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


def _temp_beside(path: str) -> tuple:
    """(fd, name) of a new temporary file in path's directory."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    return tempfile.mkstemp(dir=directory, prefix=".levymix-")


def _atomic_write(path: str, text: str) -> None:
    fd, tmp = _temp_beside(path)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The CSV writer formats a block of rows at a time in numpy and gives the
# bytes of f"{x:.17g}" for every value. CPython's %.17g is Gay's correctly
# rounded dtoa (Gay 1990); the block formatter reaches the same digits:
#  - X = floor(log10 |x|), corrected so that y = |x|·10^(16−X) lies in
#    [1e16, 1e17). y is one long-double product or quotient against the
#    exact powers 10^0 … 10^27, so it is off by at most eps/2 relative;
#  - the digits are y rounded to the integer D, and a carry to 1e17 moves X;
#  - Python formats a value whose y lies within 4·(eps/2)·y of a half
#    integer, where that rounding could go either way, or whose 16 − X is
#    past the table. Where np.longdouble is float64 the band is wider than
#    1/2 and every value falls back;
#  - D becomes text through a table of 4-digit groups. Each layout of %.17g
#    (the point after digit X for −4 ≤ X ≤ 16, else the exponent form) is
#    written with plain slices into a NUL-padded byte matrix whose rows are
#    sorted by layout, and the NULs are deleted.

_BLOCK_ROWS = 2048
_POW10 = np.cumprod(np.full(28, 10, dtype=np.longdouble)) / 10  # 10^0 … 10^27, exact
_HALF_BAND = 2 * float(np.finfo(np.longdouble).eps)  # 4·(eps/2)
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T) + np.uint8(ord("0"))
_QUAD_TEXT = _QUADS.view(np.uint32).ravel()  # "0000" … "9999", a word each
_LEAD_TEXT = (_QUADS[:10] * np.uint8([0, 0, 0, 1])).view(np.uint32).ravel()  # "\0\0\0d"
# the trailing zeros of each group: the run of "0" columns that ends the row
_QUAD_ZEROS = functools.reduce(lambda run, col: (col == ord("0")) * (run + 1), _QUADS.T, np.int8(0))
# row k keeps the first k digits of a 20-byte row "\0\0\0" + 17 digits
_KEEP_DIGITS = (np.tri(18, 20, 2, dtype=np.uint8) * np.uint8(255)).view(np.uint32)
_WIDTH = 25  # the longest %.17g text, -1.7976931348623157e+308, and a separator
_FIXED_LO, _FIXED_HI = -4, 16  # the exponents %.17g writes without an e
_EXP_FORM = _FIXED_HI - _FIXED_LO + 1
_FALLBACK = _EXP_FORM + 1


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a·10^k in one long-double rounding, k clipped to the table's range."""
    k = np.clip(k, -27, 27)
    y = _POW10[np.maximum(k, 0)]
    y *= a
    down = k < 0
    if down.any():
        y[down] = a[down] / _POW10[-k[down]]
    return y


def _decimal(v: np.ndarray) -> tuple:
    """(X, D, fallback): D = |v|·10^(16−X) rounded, 1e16 ≤ D < 1e17 or D = 0
    for v = 0; fallback marks the values that Python must format."""
    a = np.abs(v)
    zero = a == 0
    with np.errstate(divide="ignore"):
        x = np.floor(np.log10(a))
    x[zero] = 0
    x = x.astype(np.int16)
    a = a.astype(np.longdouble)
    a[zero] = 1.0
    y = _scaled(a, 16 - x)
    low, high = y < 1e16, y >= 1e17
    x += high
    x -= low
    far = np.abs(16 - x) > 27
    redo = (low | high) & ~far
    if redo.any():
        y[redo] = _scaled(a[redo], 16 - x[redo])
    y[far] = 1e16  # masked before the cast, which would warn on them
    d = y.astype(np.uint64)
    band = _HALF_BAND * y.astype(float)
    y -= d
    frac = y.astype(float)
    fallback = far | (np.abs(frac - 0.5) <= band)
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    x[carry] += 1
    d[zero] = 0
    return x, d, fallback


def _digit_text(x: np.ndarray, d: np.ndarray) -> tuple:
    """(digits, point): per value the row "\0\0\0" + the 17 digits of D, the
    zeros that %.17g drops set to NUL, and its "." or NUL."""
    # D = lead·10^16 + four 4-digit groups, the most significant first
    top, bottom = (q.astype(np.uint32) for q in np.divmod(d, 10**8))
    lead, mid = np.divmod(top, 10**8)
    groups = (*np.divmod(mid, 10**4), *np.divmod(bottom, 10**4))
    digits = np.empty((d.size, 5), np.uint32)
    digits[:, 0] = _LEAD_TEXT[lead]
    trailing = np.zeros(d.size, np.int8)
    for j, g in enumerate(groups, 1):
        digits[:, j] = _QUAD_TEXT[g]
        trailing = np.where(g == 0, trailing + 4, _QUAD_ZEROS[g])
    nsig = 17 - trailing
    whole = np.where((x > 0) & (x <= _FIXED_HI), x, 0) + 1  # digits before the point
    digits &= np.take(_KEEP_DIGITS, np.maximum(nsig, whole), axis=0)
    return digits.view(np.uint8), (nsig > whole) * np.uint8(ord("."))


def _block_bytes(v: np.ndarray, seps: np.ndarray) -> bytes:
    """f"{x:.17g}" of each finite value, each followed by its separator:
    one byte row per value, its sign in column 0, its text from column 1
    and its separator last."""
    m = v.size
    x, d, fallback = _decimal(v)
    digits, point = _digit_text(x, d)
    del d
    layout = np.where((x >= _FIXED_LO) & (x <= _FIXED_HI), x - _FIXED_LO, _EXP_FORM).astype(np.uint8)
    layout[fallback] = _FALLBACK
    order = np.argsort(layout, kind="stable")
    counts = np.bincount(layout, minlength=_FALLBACK + 1)
    ends = np.cumsum(counts)
    ds, points, xs = np.take(digits, order, axis=0)[:, 3:], point[order], x[order]
    del digits, point, x  # freed before the byte matrix is built
    out = np.zeros((m, _WIDTH), np.uint8)
    for c in np.flatnonzero(counts):
        r = slice(ends[c] - counts[c], ends[c])
        if c == _FALLBACK:
            text = "".join([f"{z:.17g}".ljust(_WIDTH - 1, "\0") for z in v[order[r]].tolist()])
            out[r, :-1] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _WIDTH - 1)
        elif c == _EXP_FORM:  # d.ddd…e±XX: |X| < 100 here
            out[r, 1] = ds[r, 0]
            out[r, 2] = points[r]
            out[r, 3:19] = ds[r, 1:]
            out[r, 19] = ord("e")
            out[r, 20] = np.where(xs[r] < 0, ord("-"), ord("+"))
            out[r, 21:23] = _QUADS[np.abs(xs[r]), 2:]
        elif c >= -_FIXED_LO:  # X ≥ 0: ddd.ddd
            e = c + _FIXED_LO
            out[r, 1:e + 2] = ds[r, :e + 1]
            out[r, e + 2] = points[r]
            out[r, e + 3:19] = ds[r, e + 1:]
        else:  # X < 0: 0.000ddd
            e = c + _FIXED_LO
            out[r, 1:3] = np.frombuffer(b"0.", np.uint8)
            out[r, 3:2 - e] = ord("0")
            out[r, 2 - e:19 - e] = ds[r]
    del ds, points, xs
    unsort = np.empty_like(order)
    unsort[order] = np.arange(m)
    out = np.take(out, unsort, axis=0)
    out[:, 0] |= (np.signbit(v) & ~fallback) * np.uint8(ord("-"))
    out[:, -1] = seps
    return out.tobytes().translate(None, b"\0")


def _csv(write, header: str, *columns) -> None:
    """The columns side by side, formatted a block of rows at a time: write
    gets the header line, then each block's bytes, the bytes _fmt gives each
    value. Every value is checked before the first write."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    first = min((np.argmin(np.isfinite(c)) for c in columns if not np.isfinite(c).all()), default=None)
    if first is not None:  # raises, naming the first in row order
        _fmt(float(next(c[first] for c in columns if not math.isfinite(c[first]))))
    n = len(columns[0])
    seps = np.full(len(columns), ord(","), np.uint8)
    seps[-1] = ord("\n")
    seps = np.tile(seps, min(n, _BLOCK_ROWS))
    write(f"{header}\n".encode("ascii"))
    for r in range(0, n, _BLOCK_ROWS):
        v = np.column_stack([c[r:r + _BLOCK_ROWS] for c in columns]).ravel()
        write(_block_bytes(v, seps[:v.size]))


class _RowFiles:
    """A write target for _csv that splits its table into files: the rows
    before splits[0] go to names[0], those before splits[1] to names[1],
    and so on, the rest to the last name, each file under the header line,
    _csv's first write. Each file is written to a temporary beside its name,
    created when its first row comes, so a table that _csv refuses creates
    none, and moved into place once its last row is written."""

    def __init__(self, names, splits):
        self.names, self.splits = names, splits
        self.header = None
        self.k = -1  # the file being written, or the last one moved into place
        self.fh = self.tmp = None
        self.rows = 0  # rows before the next chunk, while a split is ahead

    def write(self, chunk: bytes) -> None:
        if self.header is None:
            self.header = chunk
            return
        view, start, ends = memoryview(chunk), 0, None
        while start < len(chunk):
            if self.fh is None:
                self.k += 1
                fd, self.tmp = _temp_beside(self.names[self.k])
                self.fh = os.fdopen(fd, "wb")
                self.fh.write(self.header)
            if self.k == len(self.splits):  # the last file takes the rest
                self.fh.write(view[start:])
                return
            if ends is None:  # the offset past each of the chunk's rows
                ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + 1
                first, self.rows = self.rows, self.rows + ends.size
            last = self.splits[self.k] - first  # the chunk's rows up to file k's end
            if last > ends.size:
                self.fh.write(view[start:])
                return
            self.fh.write(view[start:ends[last - 1]])
            self.finish()
            start = ends[last - 1]

    def finish(self) -> None:
        """Moves the file being written into place."""
        self.fh.close()
        self.fh = None
        os.replace(self.tmp, self.names[self.k])
        self.tmp = None

    def discard(self) -> None:
        """Removes the file being written."""
        if self.fh is not None:
            self.fh.close()
        if self.tmp is not None and os.path.exists(self.tmp):
            os.unlink(self.tmp)


def _write_csv(names, header: str, *columns, splits=()) -> None:
    """The table of _csv streamed into the files names, split at the rows
    splits as _RowFiles splits it; on an error the file being written is
    removed."""
    files = _RowFiles(names, splits)
    try:
        _csv(files.write, header, *columns)
        files.finish()
    except BaseException:
        files.discard()
        raise


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
    """A single path goes to out, path k of several to <stem>.p<k><ext>.
    The paths are formatted as one table, so a non-finite value in any of
    them is refused before the first file is created."""
    paths = samples if isinstance(samples, list) else [samples]
    stem, ext = os.path.splitext(out)
    names = [out] if len(paths) == 1 else [f"{stem}.p{k}{ext}" for k in range(len(paths))]
    splits = np.cumsum([len(p.values) for p in paths[:-1]]).tolist()
    times, values = (c[0] if len(c) == 1 else np.concatenate(c)
                     for c in ([p.grid.times() for p in paths], [p.values for p in paths]))
    _write_csv(names, "t,value", times, values, splits=splits)


# ---------------------------------------------------------------------------
# Commands.


def cmd_cf(args) -> int:
    spec = load_model_spec(args.model)
    thetas = _theta_grid(args)
    # a block of rows at a time, so that the exponents' temporaries stay a
    # block long: every value is computed from its own theta alone
    values = np.empty(thetas.size, complex)
    for r in range(0, thetas.size, _BLOCK_ROWS):
        values[r:r + _BLOCK_ROWS] = compose_cf(spec.levy, spec.subordinator, thetas[r:r + _BLOCK_ROWS])
    _write_csv([args.out], "theta,re,im", thetas, values.real, values.imag)
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
    _write_csv([args.out], "x0,y0,x1,y1,value", lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1], values)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main() call."""
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

    p = sub.add_parser("subordinate", help="triplet summary with interval masses")
    common(p)

    p = sub.add_parser("mix", help="mixed-measure interval masses")
    common(p)

    p = sub.add_parser("simulate", help="sample the time-changed process")
    common(p, draws=True, grid_flags=True, paths=True)

    p = sub.add_parser("recover", help="simulate then recover the subordinator")
    common(p, draws=True, grid_flags=True)
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))

    p = sub.add_parser("basis-sim", help="sample a cell field")
    common(p, draws=True)

    p = sub.add_parser("lss-sim", help="sample a kernel-smoothed moving average")
    common(p, draws=True, grid_flags=True, paths=True)
    p.add_argument("--burn-in", type=float, default=25.0, dest="burn_in")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, not bound into the once-built parser, so that a
    # wrapper later installed on cli.cmd_* (bench/spans.py's tracer) sees it
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
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
