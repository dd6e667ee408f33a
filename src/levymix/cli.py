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
from .recover import FAMILIES, FitOptions, default_theta_grid, recover_from_path
from .simulate import (
    _MAX_STEPS,
    LssKernel,
    SimConfig,
    TimeGrid,
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


class ModelSpec:
    def __init__(self, levy, subordinator, seed_field=None, kernel=None, partition=None, unions=None):
        self.levy = levy
        self.subordinator = subordinator
        self.seed_field = seed_field
        self.kernel = kernel
        self.partition = partition
        self.unions = unions


def _check_fields(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SpecError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        dotted = f"{path}.{key}" if path else key
        raise SpecError(f"{dotted}: missing required field")
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


def _parse_levy(obj, path: str) -> LevyTriplet:
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object")
    _check_fields(obj, ("family", "params"), path)
    family = _need(obj, "family", path)
    if family not in _LEVY_MAKERS:
        raise SpecError(f"{path}.family: unknown family {family!r}")
    params = _need(obj, "params", path)
    if not isinstance(params, dict):
        raise SpecError(f"{path}.params: expected an object")
    names = tuple(inspect.signature(_LEVY_MAKERS[family]).parameters)
    _check_fields(params, names, f"{path}.params")
    args = [_real(_need(params, n, f"{path}.params"), f"{path}.params.{n}") for n in names]
    try:
        return _LEVY_MAKERS[family](*args)
    except LevyMixError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _parse_jumps(obj, path: str):
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object")
    kind = _need(obj, "kind", path)
    try:
        if kind == "zero":
            _check_fields(obj, ("kind",), path)
            return core.ZERO_MEASURE
        measure_cls = FAMILIES.get(kind) if isinstance(kind, str) else None
        if measure_cls is not None:
            names = tuple(f.name for f in dataclasses.fields(measure_cls))
            _check_fields(obj, ("kind",) + names, path)
            return measure_cls(*(_real(_need(obj, n, path), f"{path}.{n}") for n in names))
        if kind == "atomic":
            _check_fields(obj, ("kind", "atoms"), path)
            atoms = _need(obj, "atoms", path)
            if not isinstance(atoms, list) or not atoms:
                raise SpecError(f"{path}.atoms: expected a nonempty list")
            pairs = []
            for i, atom in enumerate(atoms):
                if not isinstance(atom, list) or len(atom) != 2:
                    raise SpecError(f"{path}.atoms[{i}]: expected [position, mass]")
                pairs.append(
                    (_real(atom[0], f"{path}.atoms[{i}][0]"), _real(atom[1], f"{path}.atoms[{i}][1]"))
                )
            return core.AtomicMeasure(tuple(pairs))
    except LevyMixError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"{path}: {exc}") from exc
    raise SpecError(f"{path}.kind: unknown measure kind {kind!r}")


def _parse_pair(obj, path: str) -> SubordinatorPair:
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object")
    _check_fields(obj, ("drift", "jumps"), path)
    drift = _real(_need(obj, "drift", path), f"{path}.drift")
    jumps = _parse_jumps(_need(obj, "jumps", path), f"{path}.jumps")
    try:
        return SubordinatorPair(drift, jumps)
    except LevyMixError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _parse_seed_field(obj, path: str) -> SeedField:
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object")
    _check_fields(obj, ("cells",), path)
    cells_obj = _need(obj, "cells", path)
    if not isinstance(cells_obj, list) or not cells_obj:
        raise SpecError(f"{path}.cells: expected a nonempty list")
    cells = []
    for i, cell in enumerate(cells_obj):
        where = f"{path}.cells[{i}]"
        if not isinstance(cell, dict):
            raise SpecError(f"{where}: expected an object")
        _check_fields(cell, ("rect", "weight", "drift", "jumps"), where)
        rect_obj = _need(cell, "rect", where)
        if not isinstance(rect_obj, list) or len(rect_obj) not in (1, 2):
            raise SpecError(f"{where}.rect: expected [[lo, hi]] or [[lo, hi], [lo, hi]]")
        rect = []
        for j, edge in enumerate(rect_obj):
            if not isinstance(edge, list) or len(edge) != 2:
                raise SpecError(f"{where}.rect[{j}]: expected [lo, hi]")
            rect.append((_real(edge[0], f"{where}.rect[{j}][0]"), _real(edge[1], f"{where}.rect[{j}][1]")))
        weight = _real(cell.get("weight", 1.0), f"{where}.weight")
        drift = _real(_need(cell, "drift", where), f"{where}.drift")
        jumps = _parse_jumps(_need(cell, "jumps", where), f"{where}.jumps")
        try:
            cells.append(SeedCell(tuple(rect), SubordinatorPair(drift, jumps), weight))
        except LevyMixError as exc:
            raise SpecError(f"{where}: {exc}") from exc
    try:
        return SeedField(tuple(cells))
    except LevyMixError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _parse_kernel(obj, path: str) -> LssKernel:
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object")
    kind = _need(obj, "kind", path)
    if kind == "exp":
        _check_fields(obj, ("kind",), path)
        return LssKernel(0.0)
    if kind == "gamma_kernel":
        _check_fields(obj, ("kind", "alpha"), path)
        try:
            return LssKernel(_real(_need(obj, "alpha", path), f"{path}.alpha"))
        except LevyMixError as exc:
            raise SpecError(f"{path}: {exc}") from exc
    raise SpecError(f"{path}.kind: unknown kernel kind {kind!r}")


def _parse_partition(obj, path: str):
    if not isinstance(obj, list) or len(obj) < 2:
        raise SpecError(f"{path}: expected a list of at least two edges")
    edges = [_real(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise SpecError(f"{path}: edges must be strictly increasing")
    return tuple(edges)


def load_model_spec(path: str) -> ModelSpec:
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past 4300 digits
        raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SpecError("model spec must be a JSON object")
    _check_fields(
        doc, ("schema", "levy", "subordinator", "seed_field", "kernel", "partition", "unions"), ""
    )
    if _need(doc, "schema", "") != _SCHEMA:
        raise SpecError(f"schema: expected {_SCHEMA}, got {doc.get('schema')!r}")
    levy = _parse_levy(_need(doc, "levy", ""), "levy")
    pair = _parse_pair(_need(doc, "subordinator", ""), "subordinator")
    fld = _parse_seed_field(doc["seed_field"], "seed_field") if "seed_field" in doc else None
    kernel = _parse_kernel(doc["kernel"], "kernel") if "kernel" in doc else None
    partition = _parse_partition(doc["partition"], "partition") if "partition" in doc else None
    unions = None
    if "unions" in doc:
        if not isinstance(doc["unions"], list):
            raise SpecError("unions: expected a list of index lists")
        unions = []
        for i, u in enumerate(doc["unions"]):
            if not isinstance(u, list) or not u or not all(isinstance(k, int) and not isinstance(k, bool) for k in u):
                raise SpecError(f"unions[{i}]: expected a nonempty list of cell indices")
            unions.append(tuple(u))
    return ModelSpec(levy, pair, fld, kernel, partition, unions)


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


def _partition_intervals(edges):
    pairs = []
    for lo, hi in zip(edges, edges[1:]):
        if lo < 0.0 <= hi:
            continue  # the mixed measure has no mass at 0; skip the straddling cell
        pairs.append((lo, hi))
    if not pairs:
        raise SpecError("partition: no usable intervals (every cell straddles 0)")
    return pairs


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
    edges = spec.partition if spec.partition is not None else _DEFAULT_PARTITION
    table = []
    for lo, hi in _partition_intervals(edges):
        res = st.jumps.mass(IntervalSet(((lo, hi),)))
        table.append({"lo": lo, "hi": hi, "mass": res.value})
    report = {
        "schema": _SCHEMA,
        "gamma_bar": st.gamma_bar,
        "b_bar": st.b_bar,
        "nu_bar": table,
    }
    _atomic_write(args.out, _to_json(report) + "\n")
    return 0


def cmd_mix(args) -> int:
    spec = load_model_spec(args.model)
    edges = spec.partition if spec.partition is not None else _DEFAULT_PARTITION
    table = []
    for lo, hi in _partition_intervals(edges):
        res = phi_mix_mass(spec.levy, spec.subordinator.jumps, IntervalSet(((lo, hi),)))
        table.append({"lo": lo, "hi": hi, "mass": res.value})
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
    fit = recover_from_path(path, spec.levy, args.family, FitOptions(weighted=True))
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

    def common(p, grid_flags=False, paths=False):
        p.add_argument("--model", required=True, help="model spec JSON file")
        p.add_argument("--out", required=True, help="output file")
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
    common(p, grid_flags=True, paths=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("recover", help="simulate then recover the subordinator")
    common(p, grid_flags=True)
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("basis-sim", help="sample a cell field")
    common(p)
    p.set_defaults(fn=cmd_basis_sim)

    p = sub.add_parser("lss-sim", help="sample a kernel-smoothed moving average")
    common(p, grid_flags=True, paths=True)
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
