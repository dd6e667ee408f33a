"""Command-line front end.

Model files are strict JSON with a versioned schema; unknown fields are
rejected with a dotted-path address. All numbers serialize with 17
significant digits and every output file is written atomically.

Exit codes: 0 success, 2 spec/config error, 3 numeric or branch error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import core
from .core import LevyTriplet, SubordinatorPair
from .errors import ConfigError, LevyMixError, SpecError
from .mixing import IntervalSet, phi_mix_mass
from .recover import FAMILIES, default_theta_grid, recover_from_path
from .simulate import (
    _MAX_STEPS,
    LssKernel,
    SimConfig,
    TimeGrid,
    exp_kernel,
    gamma_kernel,
    sample_basis_grid,
    sample_lss,
    sample_subordinated,
)
from .subordinate import SeedCell, SeedField, compose_cf, subordinate_triplet

__all__ = ["main", "load_model_spec", "ModelSpec"]

_SCHEMA = 1

_DEFAULT_PARTITION = (-8.0, -4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0, 8.0)


# ---------------------------------------------------------------------------
# 17-significant-digit JSON / CSV emission.


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise SpecError(f"non-finite number {x} cannot be serialized")
    return f"{x:.17g}"


def _to_json(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    raise SpecError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".levymix-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, *columns) -> str:
    """The columns side by side, formatted whole: the bytes _fmt gives each value."""
    table = np.column_stack(columns).astype(float, copy=False)
    finite = np.isfinite(table)
    if not finite.all():
        _fmt(float(table[~finite][0]))  # raises, naming the first in row order
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist())


# ---------------------------------------------------------------------------
# Model-spec parsing with dotted-path errors.


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    levy: LevyTriplet
    subordinator: SubordinatorPair
    seed_field: SeedField | None = None
    kernel: LssKernel | None = None
    partition: tuple | None = None
    unions: list | None = None


def _dotted(path: str, key) -> str:
    return f"{path}.{key}" if path else key


def _section(obj, path: str, allowed=None) -> dict:
    """obj, checked to be an object; given allowed, to hold no other field."""
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object" if path else "model spec must be a JSON object")
    for key in obj:
        if allowed is not None and key not in allowed:
            raise SpecError(f"{_dotted(path, key)}: unknown field")
    return obj


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise SpecError(f"{_dotted(path, key)}: missing required field")
    return obj[key]


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{path}: expected a number")
    try:
        x = float(value)
    except OverflowError:  # json.loads keeps integer literals as ints
        x = math.inf
    # json.loads also reads the literals NaN and +-Infinity as floats
    if not math.isfinite(x):
        raise SpecError(f"{path}: expected a finite number, got {x}")
    return x


def _two_reals(item, path: str, shape: str) -> tuple:
    if not isinstance(item, list) or len(item) != 2:
        raise SpecError(f"{path}: expected {shape}")
    return tuple(_real(x, f"{path}[{k}]") for k, x in enumerate(item))


def _build(path: str, make, *args):
    """make(*args), a library refusal reported as a SpecError at path."""
    try:
        return make(*args)
    except SpecError:
        raise
    except LevyMixError as exc:
        raise SpecError(f"{path}: {exc}") from exc


@functools.cache
def _arg_names(make) -> tuple:
    return tuple(inspect.signature(make).parameters)


def _numbers(obj, path: str, make, tag=()) -> list:
    """The numbers a section holds under the names of make's arguments."""
    names = _arg_names(make)
    _section(obj, path, tag + names)
    return [_real(_need(obj, n, path), f"{path}.{n}") for n in names]


# The JSON parameter names are the constructors' argument names.
_LEVY_MAKERS = {
    "gaussian": core.gaussian_law,
    "gamma": core.gamma_law,
    "poisson": core.poisson_law,
    "delta": core.delta_law,
    "symmetric_stable": core.symmetric_stable_law,
    "cauchy": core.cauchy_law,
    "one_sided_stable": core.one_sided_stable_law,
}
_JUMP_KINDS = {
    "zero": lambda: core.ZERO_MEASURE,
    "gamma": core.GammaMeasure,
    "one_sided_stable": core.OneSidedStableMeasure,
    "compound_exponential": core.CompoundExponentialMeasure,
}
_KERNEL_KINDS = {"exp": exp_kernel, "gamma_kernel": gamma_kernel}


def _parse_levy(obj, path: str) -> LevyTriplet:
    family = _need(_section(obj, path, ("family", "params")), "family", path)
    if not isinstance(family, str) or family not in _LEVY_MAKERS:
        raise SpecError(f"{path}.family: unknown family {family!r}")
    make = _LEVY_MAKERS[family]
    return _build(path, make, *_numbers(_need(obj, "params", path), f"{path}.params", make))


def _parse_kind(obj, path: str, noun: str, makers: dict):
    kind = _need(_section(obj, path), "kind", path)
    if not isinstance(kind, str) or kind not in makers:
        raise SpecError(f"{path}.kind: unknown {noun} kind {kind!r}")
    return _build(path, makers[kind], *_numbers(obj, path, makers[kind], ("kind",)))


def _parse_clock(obj: dict, path: str) -> SubordinatorPair:
    """The drift and jumps of a checked section: a subordinator or a seed cell."""
    drift = _real(_need(obj, "drift", path), f"{path}.drift")
    jumps, where = _need(obj, "jumps", path), f"{path}.jumps"
    if isinstance(jumps, dict) and jumps.get("kind") == "atomic":
        atoms = _need(_section(jumps, where, ("kind", "atoms")), "atoms", where)
        if not isinstance(atoms, list) or not atoms:
            raise SpecError(f"{where}.atoms: expected a nonempty list")
        pairs = (_two_reals(a, f"{where}.atoms[{i}]", "[position, mass]") for i, a in enumerate(atoms))
        measure = _build(where, core.AtomicMeasure, tuple(pairs))
    else:
        measure = _parse_kind(jumps, where, "measure", _JUMP_KINDS)
    return _build(path, SubordinatorPair, drift, measure)


def _parse_seed_field(obj, path: str) -> SeedField:
    cells_obj = _need(_section(obj, path, ("cells",)), "cells", path)
    if not isinstance(cells_obj, list) or not cells_obj:
        raise SpecError(f"{path}.cells: expected a nonempty list")
    cells = []
    for i, cell in enumerate(cells_obj):
        where = f"{path}.cells[{i}]"
        rect = _need(_section(cell, where, ("rect", "weight", "drift", "jumps")), "rect", where)
        if not isinstance(rect, list) or len(rect) not in (1, 2):
            raise SpecError(f"{where}.rect: expected [[lo, hi]] or [[lo, hi], [lo, hi]]")
        edges = tuple(_two_reals(edge, f"{where}.rect[{j}]", "[lo, hi]") for j, edge in enumerate(rect))
        weight = _real(cell.get("weight", 1.0), f"{where}.weight")
        cells.append(_build(where, SeedCell, edges, _parse_clock(cell, where), weight))
    return _build(path, SeedField, tuple(cells))


def _parse_partition(obj, path: str):
    if not isinstance(obj, list) or len(obj) < 2:
        raise SpecError(f"{path}: expected a list of at least two edges")
    edges = [_real(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise SpecError(f"{path}: edges must be strictly increasing")
    return tuple(edges)


def _parse_unions(obj, path: str):
    if not isinstance(obj, list):
        raise SpecError(f"{path}: expected a list of index lists")
    for i, u in enumerate(obj):
        if not isinstance(u, list) or not u or not all(isinstance(k, int) and not isinstance(k, bool) for k in u):
            raise SpecError(f"{path}[{i}]: expected a nonempty list of cell indices")
    return [tuple(u) for u in obj]


def load_model_spec(path: str) -> ModelSpec:
    with open(path, encoding="utf-8") as fh:
        # refused: a JSONDecodeError, an integer past 4300 digits, a file that
        # is not UTF-8 (RFC 8259), or nesting past the decoder's recursion limit
        try:
            doc = json.loads(fh.read())
        except (ValueError, RecursionError) as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    _section(doc, "", ("schema", "levy", "subordinator", "seed_field", "kernel", "partition", "unions"))
    schema = _need(doc, "schema", "")
    # True == 1.0 == 1 in Python: only an int that is not a bool is schema 1
    if type(schema) is not int or schema != _SCHEMA:
        raise SpecError(f"schema: expected {_SCHEMA}, got {schema!r}")
    levy = _parse_levy(_need(doc, "levy", ""), "levy")
    pair = _parse_clock(_section(_need(doc, "subordinator", ""), "subordinator", ("drift", "jumps")), "subordinator")
    optional = {
        "seed_field": _parse_seed_field,
        "kernel": lambda obj, path: _parse_kind(obj, path, "kernel", _KERNEL_KINDS),
        "partition": _parse_partition,
        "unions": _parse_unions,
    }
    return ModelSpec(levy, pair, **{key: parse(doc[key], key) for key, parse in optional.items() if key in doc})


# ---------------------------------------------------------------------------
# Shared command plumbing.


def _theta_grid(args) -> np.ndarray:
    if not 2 <= args.theta_steps <= _MAX_STEPS:
        raise ConfigError(f"--theta-steps must be between 2 and {_MAX_STEPS:.0e}")
    if not args.theta_max > args.theta_min:
        raise ConfigError("--theta-max must exceed --theta-min")
    return np.linspace(args.theta_min, args.theta_max, args.theta_steps)


def _time_grid(args) -> TimeGrid:
    if args.dt is None or args.horizon is None:
        raise ConfigError("--dt and --horizon are required for this command")
    if not (args.dt > 0 and math.isfinite(args.dt)):
        raise ConfigError("--dt must be positive and finite")
    # refused before any array is built: lss-sim stretches the grid back by --burn-in
    for flag, span in (("--horizon", args.horizon), ("--burn-in", getattr(args, "burn_in", 0.0))):
        if not abs(span / args.dt) <= _MAX_STEPS:
            raise ConfigError(f"{flag} / --dt must be at most {_MAX_STEPS:.0e} steps, got {span / args.dt:.3g}")
    n = round(args.horizon / args.dt)
    if n < 1:
        raise ConfigError("--horizon must cover at least one step of --dt")
    return TimeGrid(0.0, args.dt, n)


def _mass_table(spec: ModelSpec, mass) -> list:
    """The mass of each partition cell, from one call of mass for the whole
    table; the mixed measure has none at 0, so a cell that straddles it is
    skipped."""
    edges = spec.partition if spec.partition is not None else _DEFAULT_PARTITION
    cells = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if not lo < 0.0 <= hi]
    if not cells:
        raise SpecError("partition: no usable intervals (every cell straddles 0)")
    masses = mass([IntervalSet.of(lo, hi) for lo, hi in cells])
    return [{"lo": lo, "hi": hi, "mass": r.value} for (lo, hi), r in zip(cells, masses)]


def _write_paths(out: str, samples) -> None:
    """A single path goes to out, path k of several to <stem>.p<k><ext>."""
    stem, ext = os.path.splitext(out)
    paths = samples if isinstance(samples, list) else [samples]
    for k, sample in enumerate(paths):
        name = f"{stem}.p{k}{ext}" if len(paths) > 1 else out
        _atomic_write(name, _csv("t,value", sample.grid.times(), sample.values))


# ---------------------------------------------------------------------------
# Commands.


def cmd_cf(args) -> int:
    spec = load_model_spec(args.model)
    thetas = _theta_grid(args)
    values = compose_cf(spec.levy, spec.subordinator, thetas)
    _atomic_write(args.out, _csv("theta,re,im", thetas, values.real, values.imag))
    return 0


def cmd_subordinate(args) -> int:
    spec = load_model_spec(args.model)
    st = subordinate_triplet(spec.levy, spec.subordinator)
    report = {
        "schema": _SCHEMA,
        "gamma_bar": st.gamma_bar,
        "b_bar": st.b_bar,
        "nu_bar": _mass_table(spec, st.jumps.mass),
    }
    _atomic_write(args.out, _to_json(report) + "\n")
    return 0


def cmd_mix(args) -> int:
    spec = load_model_spec(args.model)
    table = _mass_table(spec, lambda cells: phi_mix_mass(spec.levy, spec.subordinator.jumps, cells))
    _atomic_write(args.out, _to_json({"schema": _SCHEMA, "mixed_mass": table}) + "\n")
    return 0


def cmd_simulate(args) -> int:
    spec = load_model_spec(args.model)
    grid = _time_grid(args)
    cfg = SimConfig(seed=args.seed, n_paths=args.n_paths)
    samples = sample_subordinated(spec.levy, spec.subordinator, grid, cfg)
    _write_paths(args.out, samples)
    return 0


def cmd_recover(args) -> int:
    spec = load_model_spec(args.model)
    grid = _time_grid(args)
    cfg = SimConfig(seed=args.seed)
    path = sample_subordinated(spec.levy, spec.subordinator, grid, cfg)
    fit = recover_from_path(path, spec.levy, args.family)
    thetas = default_theta_grid()
    report = {
        "schema": _SCHEMA,
        "family": fit.family,
        "params": list(fit.params),
        "beta0": fit.beta0_hat,
        "objective": fit.objective,
        "residual_max": fit.residual_max,
        "n_starts_converged": fit.n_starts_converged,
        "theta_grid": list(thetas),
        "n_obs": grid.n_steps,
        "seed": args.seed,
    }
    _atomic_write(args.out, _to_json(report) + "\n")
    return 0


def cmd_basis_sim(args) -> int:
    spec = load_model_spec(args.model)
    if spec.seed_field is None:
        raise SpecError("seed_field: required for basis-sim")
    if any(len(cell.rect) != 2 for cell in spec.seed_field.cells):
        raise SpecError("seed_field.cells: basis-sim writes 2-D grids; every rect needs two edges")
    gf = sample_basis_grid(spec.levy, spec.seed_field, SimConfig(seed=args.seed))
    for union in spec.unions or ():
        if any(not 0 <= k < len(gf.cells) for k in union):
            raise SpecError(f"unions: cell index out of range in {list(union)}")
        gf = gf.with_union(union)
    rects = np.array([rect for rect, _, _ in gf.cells])  # (cell, axis, lo/hi)
    members = [rects[list(idx)] for idx, _ in gf.unions]
    lo = np.vstack([rects[:, :, 0]] + [m[:, :, 0].min(axis=0) for m in members])
    hi = np.vstack([rects[:, :, 1]] + [m[:, :, 1].max(axis=0) for m in members])
    values = np.concatenate([gf.cell_values(), [value for _, value in gf.unions]])
    _atomic_write(args.out, _csv("x0,y0,x1,y1,value", lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1], values))
    return 0


def cmd_lss_sim(args) -> int:
    spec = load_model_spec(args.model)
    kernel = spec.kernel if spec.kernel is not None else LssKernel(0.0)
    grid = _time_grid(args)
    cfg = SimConfig(seed=args.seed, n_paths=args.n_paths)
    samples = sample_lss(kernel, spec.levy, spec.subordinator, grid, args.burn_in, cfg)
    _write_paths(args.out, samples)
    return 0


# ---------------------------------------------------------------------------
# Entry point.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levymix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, draws=False, grid_flags=False, paths=False):
        p.add_argument("--model", required=True, help="model spec JSON file")
        p.add_argument("--out", required=True, help="output file")
        if draws:
            p.add_argument("--seed", type=int, default=0)
        if grid_flags:
            p.add_argument("--dt", type=float, default=None)
            p.add_argument("--horizon", type=float, default=None)
        if paths:
            p.add_argument("--n-paths", type=int, default=1, dest="n_paths")

    p = sub.add_parser("cf", help="composed log-CF table")
    common(p)
    p.add_argument("--theta-min", type=float, default=-10.0, dest="theta_min")
    p.add_argument("--theta-max", type=float, default=10.0, dest="theta_max")
    p.add_argument("--theta-steps", type=int, default=201, dest="theta_steps")
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("subordinate", help="triplet summary with interval masses")
    common(p)
    p.set_defaults(fn=cmd_subordinate)

    p = sub.add_parser("mix", help="mixed-measure interval masses")
    common(p)
    p.set_defaults(fn=cmd_mix)

    p = sub.add_parser("simulate", help="sample the time-changed process")
    common(p, draws=True, grid_flags=True, paths=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("recover", help="simulate then recover the subordinator")
    common(p, draws=True, grid_flags=True)
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("basis-sim", help="sample a cell field")
    common(p, draws=True)
    p.set_defaults(fn=cmd_basis_sim)

    p = sub.add_parser("lss-sim", help="sample a kernel-smoothed moving average")
    common(p, draws=True, grid_flags=True, paths=True)
    p.add_argument("--burn-in", type=float, default=25.0, dest="burn_in")
    p.set_defaults(fn=cmd_lss_sim)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LevyMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
