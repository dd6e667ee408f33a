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

from .core import LevyMeasure, LevyTriplet, SubordinatorPair, TruncationConvention, _truncation_shift
from .errors import ConfigError, DomainError, UnsupportedFamily
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
    """Sampling controls.

    epsilon=None picks the jump-truncation level per run so the dropped
    small-jump moments are below 1e-6 * horizon, and refuses a run where no
    level within 1e7 expected jumps does; explicit values must be > 0.
    The truncation only matters for measures without an exact sampler.
    """

    epsilon: float | None = None
    seed: int = 0
    n_paths: int = 1

    def __post_init__(self):
        if self.epsilon is not None and not (self.epsilon > 0):
            raise ConfigError("epsilon must be > 0")
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
# Exact convolution-power sampling of the tagged time-one laws.


def conv_power_sample(mu: LevyTriplet, r, rng) -> np.ndarray:
    """One draw from mu^r for each entry of r (r >= 0)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("convolution powers need r >= 0")
    if mu.law is None:
        raise UnsupportedFamily("no closed-form power sampler for an untagged law")
    return mu.law.sample(r, rng)


# ---------------------------------------------------------------------------
# Increments: exact jump samplers where the family has one, else truncation.

# Expected jump count above which the truncation route refuses to sample.
_MAX_EXPECTED_JUMPS = 1e7
# Fine-grid steps per path above which the refine fallback refuses to sample.
_MAX_FINE_STEPS = 1e7
# Fine base steps per clock step on the refine fallback.
_REFINE = 64


def _auto_epsilon(measure: LevyMeasure, horizon: float) -> float:
    """Largest power of two meeting the small-jump budget. Halving only adds
    expected jumps, so the search stops where _epsilon_route would refuse."""
    budget = 1e-6 * max(horizon, 1e-12)
    eps = 1.0
    while eps > 0.0 and measure.mass_above(eps) * horizon <= _MAX_EXPECTED_JUMPS:
        small = abs(measure.truncated_moment(1, eps)) + measure.truncated_moment(2, eps) / eps
        if small < budget:
            return eps
        eps *= 0.5
    raise ConfigError(
        f"no truncation level keeps the dropped small jumps under 1e-6 * horizon = {budget:.3g} "
        f"with at most {_MAX_EXPECTED_JUMPS:.0e} expected jumps; pass --epsilon"
    )


def _epsilon_route(measure: LevyMeasure, dt: float, n: int, epsilon, rng) -> np.ndarray:
    """Per-step jumps above epsilon (a compound Poisson sum) plus the exact
    mean of the dropped small jumps; epsilon=None picks it by _auto_epsilon.

    The expected number of jumps is checked before anything is drawn.
    """
    eps = epsilon if epsilon is not None else _auto_epsilon(measure, dt * n)
    lam = measure.mass_above(eps)
    expected = lam * dt * n
    if expected > _MAX_EXPECTED_JUMPS:
        raise ConfigError(
            f"epsilon={eps:.3g} leaves {expected:.3g} expected jumps to draw, "
            f"over the limit of {_MAX_EXPECTED_JUMPS:.0e}; choose a larger epsilon"
        )
    out = np.zeros(n)
    if lam == 0.0:
        if measure.tail_cutoff(1e-300) <= eps or measure.is_zero():
            raise ConfigError(f"epsilon={eps} is at or above the jump support")
    else:
        counts = rng.poisson(lam * dt, n)
        total = int(counts.sum())
        if total:
            jumps = measure.sample_tail(rng, eps, total)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            out = np.add.reduceat(np.concatenate((jumps, [0.0])), bounds[:-1])
            out[counts == 0] = 0.0
    return out + measure.truncated_moment(1, eps) * dt


def _levy_increments(t: LevyTriplet, dt: float, n: int, cfg: SimConfig, rng) -> np.ndarray:
    """n independent increments over steps of length dt: exact where the
    jump measure has an exact sampler, else the epsilon-truncation with the
    dropped mean folded into the drift (so a clock's paths stay monotone)."""
    nu = t.jumps
    inc = t.drift * dt * np.ones(n)
    if t.gaussian_var > 0:
        inc += math.sqrt(t.gaussian_var * dt) * rng.standard_normal(n)
    # With every jump kept, the triplet's compensator is a deterministic shift.
    inc = inc - _truncation_shift(nu, t.convention) * dt
    jumps = nu.sample_increments(dt, n, rng)
    if jumps is None:
        jumps = _epsilon_route(nu, dt, n, cfg.epsilon, rng)
    return inc + jumps


def _clock_triplet(pair: SubordinatorPair) -> LevyTriplet:
    """The subordinator as the Levy triplet (drift, 0, jumps) under the
    zero-truncation convention (Sato 1999, Thm 21.5): its shift is 0."""
    return LevyTriplet(pair.drift, 0.0, pair.jumps, TruncationConvention.ZERO)


def _walk(inc: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(inc)))


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
        return _walk(_levy_increments(t, grid.dt, grid.n_steps, cfg, rng))

    return _paths(values, grid, cfg)


def sample_subordinator(pair: SubordinatorPair, grid: TimeGrid, cfg: SimConfig = SimConfig()):
    """Nondecreasing path(s) of the subordinator on the grid, started at 0."""
    return sample_levy(_clock_triplet(pair), grid, cfg)


# ---------------------------------------------------------------------------
# Time-changed paths.


def _power_samplable(mu: LevyTriplet) -> bool:
    return mu.law is not None and mu.law.power_samplable


def _clock_then_power(mu_L, clock, dt, n, cfg, stream):
    """n clock increments on channel 0, then one draw from mu_L to each one's power on channel 1."""
    d_t = _levy_increments(clock, dt, n, cfg, make_rng(cfg.seed, stream, channel=0))
    return conv_power_sample(mu_L, d_t, make_rng(cfg.seed, stream, channel=1))


def sample_subordinated(
    mu_L: LevyTriplet,
    pair: SubordinatorPair,
    grid: TimeGrid,
    cfg: SimConfig = SimConfig(),
):
    """Path(s) of the time-changed process: the base process run at the
    subordinator's clock.

    Conditionally exact whenever the base law family supports convolution
    power sampling: per step, draw the clock increment, then one exact draw
    from the base law raised to that power. Otherwise the base path is
    simulated 64 times finer over the clock's range and read off at the
    clock times, on grids of at most 156,250 steps (1e7 fine steps).
    """
    conditional = _power_samplable(mu_L)
    if not conditional and _REFINE * grid.n_steps > _MAX_FINE_STEPS:
        raise ConfigError(
            f"the refine fallback takes {_REFINE * grid.n_steps:.3g} fine steps per path, over the "
            f"limit of {_MAX_FINE_STEPS:.0e}; at most {int(_MAX_FINE_STEPS // _REFINE)} steps fit"
        )
    clock = _clock_triplet(pair)

    def values(stream):
        if conditional:
            return _walk(_clock_then_power(mu_L, clock, grid.dt, grid.n_steps, cfg, stream))
        rng_t = make_rng(cfg.seed, stream, channel=0)
        clock_path = _walk(_levy_increments(clock, grid.dt, grid.n_steps, cfg, rng_t))
        t_end = float(clock_path[-1])
        if t_end == 0.0:
            return np.zeros(grid.n_steps + 1)
        n_fine = _REFINE * grid.n_steps
        dt_fine = t_end / n_fine
        path = _walk(_levy_increments(mu_L, dt_fine, n_fine, cfg, make_rng(cfg.seed, stream, channel=1)))
        idx = np.minimum((clock_path / dt_fine).astype(int), n_fine)
        return _walk(np.diff(path[idx]))

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
    if not _power_samplable(mu_L):
        raise UnsupportedFamily("cell sampling needs a power-samplable base law")
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
    """
    if not (burn_in > 0):
        raise ConfigError("burn_in must be > 0")
    if float(kernel(np.array([burn_in]))[0]) > 1e-8:
        raise ConfigError("burn_in too small: kernel has not decayed to 1e-8")
    if not _power_samplable(mu_L):
        raise UnsupportedFamily("moving-average sampling needs a power-samplable base law")
    m = int(math.ceil(burn_in / grid.dt))
    ext = TimeGrid(grid.t0 - m * grid.dt, grid.dt, m + grid.n_steps)
    weights = kernel(grid.dt * np.arange(ext.n_steps + 1))
    clock = _clock_triplet(pair)

    def values(stream):
        d_x = _clock_then_power(mu_L, clock, ext.dt, ext.n_steps, cfg, stream)
        return np.convolve(d_x, weights)[m : m + grid.n_steps + 1]

    return _paths(values, grid, cfg)
