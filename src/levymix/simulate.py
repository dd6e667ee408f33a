"""Monte Carlo sampling of subordinators, Levy paths, time-changed paths,
cell fields driven by a positive random measure, and kernel-smoothed
moving-average paths.

Every sampler is deterministic given (seed, stream_id): each stream gets its
own counter-based generator, so path ensembles are reproducible regardless of
evaluation order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LevyTriplet, SubordinatorPair, TruncationConvention, _truncation_shift
from .errors import ConfigError, DomainError
from .subordinate import SeedField

__all__ = [
    "TimeGrid",
    "SimConfig",
    "PathSample",
    "GridField",
    "LssKernel",
    "exp_kernel",
    "gamma_kernel",
    "make_rng",
    "conv_power_sample",
    "sample_subordinator",
    "sample_levy",
    "sample_subordinated",
    "sample_basis_grid",
    "sample_basis_ensemble",
    "sample_lss",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + k*dt, k = 0..n_steps."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError("dt must be positive and finite")
        if self.n_steps < 1 or self.n_steps != int(self.n_steps):
            raise ConfigError("n_steps must be a positive integer")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def horizon(self) -> float:
        return self.dt * self.n_steps


@dataclass(frozen=True)
class SimConfig:
    """Sampling controls: the seed and the number of paths, one stream
    each. Every draw is exact, so there is nothing else to tune."""

    seed: int = 0
    n_paths: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")


@dataclass(frozen=True)
class PathSample:
    grid: TimeGrid
    values: np.ndarray
    seed: int
    stream_id: int

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


@dataclass(frozen=True)
class GridField:
    """Sampled cell values (rect, area, value) plus stored union cells.

    Each stored union records member indices and a value computed by exact
    summation, so additivity over stored unions holds to the last bit.
    """

    cells: tuple
    seed: int
    unions: tuple = ()

    def cell_values(self) -> np.ndarray:
        return np.array([value for _, _, value in self.cells])

    def with_union(self, indices) -> "GridField":
        idx = tuple(int(i) for i in indices)
        if len(set(idx)) != len(idx) or not idx:
            raise ConfigError("union indices must be distinct and nonempty")
        total = sum(self.cells[i][2] for i in idx)
        return GridField(self.cells, self.seed, self.unions + ((idx, total),))


def make_rng(seed: int, stream_id: int = 0, channel: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream, channel)."""
    key = [seed & _MASK64, ((stream_id & _MASK64) << 16 | (channel & 0xFFFF)) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Exact convolution-power sampling of any triplet.

# The step budget: the most steps the CLI's grid flags (--horizon and
# --burn-in over --dt, and --theta-steps) and sample_lss's burn-in may ask
# for, refused before any array is built.
_MAX_STEPS = 1e7


def conv_power_sample(t: LevyTriplet, r, rng) -> np.ndarray:
    """One exact draw from mu^r for each entry of r (r >= 0), mu the law of
    the triplet at time one: drift r + sqrt(var r) Z - shift r + jumps(r),
    where shift is the compensator's drift and jumps(r) the measure's sum
    of all jumps over a step of length r. A draw past the float range is
    refused, never returned as inf."""
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise DomainError("convolution powers need r >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        out = t.drift * r
        if t.gaussian_var > 0:
            out = out + np.sqrt(t.gaussian_var * r) * rng.standard_normal(r.shape)
        if not t.jumps.is_zero():
            jumps = t.jumps.sample_increments(r, rng)
            out = out - _truncation_shift(t.jumps, t.convention) * r + jumps
    if not np.isfinite(out).all():
        raise DomainError("a draw from a convolution power is past the float range")
    return out


def _clock_triplet(pair: SubordinatorPair) -> LevyTriplet:
    """The subordinator as the Levy triplet (drift, 0, jumps) under the
    zero-truncation convention (Sato 1999, Thm 21.5): its shift is 0."""
    return LevyTriplet(pair.drift, 0.0, pair.jumps, TruncationConvention.ZERO)


def _walk(inc: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        path = np.concatenate(([0.0], np.cumsum(inc)))
    if not math.isfinite(path[-1]):  # a partial sum past the float range stays there
        raise DomainError("the path leaves the float range")
    return path


def _paths(values, grid: TimeGrid, cfg: SimConfig):
    """One PathSample per stream from values(stream); a single one bare."""
    out = [PathSample(grid, values(stream), cfg.seed, stream) for stream in range(cfg.n_paths)]
    return out[0] if cfg.n_paths == 1 else out


# ---------------------------------------------------------------------------
# Levy paths; a subordinator is the Levy path of its clock triplet.


def sample_levy(t: LevyTriplet, grid: TimeGrid, cfg: SimConfig = SimConfig()):
    """Levy path(s) with iid increments per step, started at 0."""

    def values(stream):
        rng = make_rng(cfg.seed, stream, channel=0)
        return _walk(conv_power_sample(t, np.full(grid.n_steps, grid.dt), rng))

    return _paths(values, grid, cfg)


def sample_subordinator(pair: SubordinatorPair, grid: TimeGrid, cfg: SimConfig = SimConfig()):
    """Nondecreasing path(s) of the subordinator on the grid, started at 0."""
    return sample_levy(_clock_triplet(pair), grid, cfg)


# ---------------------------------------------------------------------------
# Time-changed paths.


def _clock_then_power(mu_L, clock, dt, n, cfg, stream):
    """n clock increments on channel 0, then one draw from mu_L to each one's power on channel 1."""
    d_t = conv_power_sample(clock, np.full(n, dt), make_rng(cfg.seed, stream, channel=0))
    return conv_power_sample(mu_L, d_t, make_rng(cfg.seed, stream, channel=1))


def sample_subordinated(
    mu_L: LevyTriplet,
    pair: SubordinatorPair,
    grid: TimeGrid,
    cfg: SimConfig = SimConfig(),
):
    """Path(s) of the time-changed process: the base process run at the
    subordinator's clock.

    Conditionally exact for every base triplet and clock: per step, draw
    the clock increment, then one exact draw from the base law raised to
    that power.
    """
    clock = _clock_triplet(pair)

    def values(stream):
        return _walk(_clock_then_power(mu_L, clock, grid.dt, grid.n_steps, cfg, stream))

    return _paths(values, grid, cfg)


# ---------------------------------------------------------------------------
# Cell fields.


def sample_basis_grid(mu_L: LevyTriplet, fld: SeedField, cfg: SimConfig = SimConfig()) -> GridField:
    """One independent draw per cell: the cell's control mass feeds its
    subordinator seed, whose value then powers the base law."""
    values = sample_basis_ensemble(mu_L, fld, cfg, 1)[0]
    cells = tuple((cell.rect, cell.volume, float(v)) for cell, v in zip(fld.cells, values))
    return GridField(cells, cfg.seed)


def sample_basis_ensemble(mu_L: LevyTriplet, fld: SeedField, cfg: SimConfig, n_draws: int) -> np.ndarray:
    """n_draws independent copies of every cell value; shape (n_draws, n_cells)."""
    if n_draws < 1:
        raise ConfigError("n_draws must be >= 1")
    cols = [
        _clock_then_power(mu_L, _clock_triplet(cell.pair), cell.control_mass, n_draws, cfg, idx)
        for idx, cell in enumerate(fld.cells)
    ]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Kernel-smoothed moving averages.


@dataclass(frozen=True)
class LssKernel:
    """Moving-average kernel: exp(-x) or exp(-x) x**alpha, zero for x <= 0."""

    alpha: float = 0.0

    def __post_init__(self):
        if not (self.alpha > -1.0):
            raise ConfigError("kernel exponent must be > -1")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        pos = x > 0
        out[pos] = np.exp(-x[pos]) * x[pos] ** self.alpha
        return out


def exp_kernel() -> LssKernel:
    return LssKernel(0.0)


def gamma_kernel(alpha: float) -> LssKernel:
    return LssKernel(alpha)


def sample_lss(
    kernel: LssKernel,
    mu_L: LevyTriplet,
    pair: SubordinatorPair,
    grid: TimeGrid,
    burn_in: float,
    cfg: SimConfig = SimConfig(),
):
    """Riemann-sum moving average of time-changed increments.

    Y(t_i) = sum_j kernel(t_i - s_j) dX(s_j) over a grid stretched back to
    t0 - burn_in, so the output window sees a near-stationary state.

    The sum is one causal convolution by real FFT, at the power of two that
    holds the full linear convolution, with the kernel's transform shared by
    every path; the kernel is not truncated. It matches the direct sum to a
    normwise bound, not bit for bit: within eps * log2(FFT size) * sum|w| *
    max|dX| for the kernel weights w, and a large jump's rounding reaches
    the outputs before it too.
    """
    if not (burn_in > 0):
        raise ConfigError("burn_in must be > 0")
    if not burn_in / grid.dt <= _MAX_STEPS:
        raise ConfigError(f"burn_in must span at most {_MAX_STEPS:.0e} steps of dt, got {burn_in / grid.dt:.3g}")
    if float(kernel(np.array([burn_in]))[0]) > 1e-8:
        raise ConfigError("burn_in too small: kernel has not decayed to 1e-8")
    m = int(math.ceil(burn_in / grid.dt))
    ext = TimeGrid(grid.t0 - m * grid.dt, grid.dt, m + grid.n_steps)
    weights = kernel(grid.dt * np.arange(ext.n_steps + 1))
    size = 1 << (2 * ext.n_steps - 1).bit_length()
    w_hat = np.fft.rfft(weights, size)
    clock = _clock_triplet(pair)

    def values(stream):
        d_x = _clock_then_power(mu_L, clock, ext.dt, ext.n_steps, cfg, stream)
        return np.fft.irfft(np.fft.rfft(d_x, size) * w_hat, size)[m : m + grid.n_steps + 1]

    return _paths(values, grid, cfg)
