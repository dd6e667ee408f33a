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
from enum import Enum

import numpy as np

from .core import LevyMeasure, LevyTriplet, SubordinatorPair, _truncation_shift
from .errors import ConfigError, DomainError, UnsupportedFamily
from .subordinate import SeedField

__all__ = [
    "SmallJumpMode",
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


class SmallJumpMode(Enum):
    DRIFT_ONLY = "drift_only"
    GAUSSIAN_SUBSTITUTE = "gaussian_substitute"


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
    small-jump mean is below 1e-6 * horizon; explicit values must be > 0.
    The truncation only matters for measures without an exact sampler.
    """

    epsilon: float | None = None
    seed: int = 0
    n_paths: int = 1
    small_jump_mode: SmallJumpMode = SmallJumpMode.DRIFT_ONLY

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


def _auto_epsilon(measure: LevyMeasure, horizon: float) -> float:
    budget = 1e-6 * max(horizon, 1e-12)
    eps = 1.0
    for _ in range(4000):
        small = abs(measure.truncated_moment(1, eps)) + measure.truncated_moment(2, eps) / max(eps, 1e-300)
        if small < budget:
            return eps
        eps *= 0.5
    raise ConfigError("could not find a truncation level meeting the error budget")


def _epsilon_route(measure: LevyMeasure, dt: float, n: int, epsilon, rng,
                   small_jump_mode: SmallJumpMode = SmallJumpMode.DRIFT_ONLY) -> np.ndarray:
    """Per-step jumps above epsilon (a compound Poisson sum) plus the exact
    mean of the dropped small jumps, and with GAUSSIAN_SUBSTITUTE a Gaussian
    of their variance.  epsilon=None picks the level by _auto_epsilon.

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
    out = out + measure.truncated_moment(1, eps) * dt
    if small_jump_mode is SmallJumpMode.GAUSSIAN_SUBSTITUTE:
        var = measure.truncated_moment(2, eps)
        if var > 0:
            out += math.sqrt(var * dt) * rng.standard_normal(n)
    return out


def _subordinator_increments(pair: SubordinatorPair, dt: float, n: int, cfg: SimConfig, rng) -> np.ndarray:
    """n independent increments of the subordinator over steps of length dt.

    Exact where the jump measure has an exact sampler; anything else gets
    the epsilon-truncation with the dropped mean folded into the drift
    (always nonnegative, so paths stay monotone).
    """
    jumps = pair.jumps.sample_increments(dt, n, rng)
    if jumps is None:
        jumps = _epsilon_route(pair.jumps, dt, n, cfg.epsilon, rng)
    return pair.drift * dt * np.ones(n) + jumps


def _paths_from_increments(draw, grid: TimeGrid, cfg: SimConfig):
    out = []
    for stream in range(cfg.n_paths):
        inc = draw(stream)
        values = np.concatenate(([0.0], np.cumsum(inc)))
        out.append(PathSample(grid, values, cfg.seed, stream))
    return out[0] if cfg.n_paths == 1 else out


def sample_subordinator(pair: SubordinatorPair, grid: TimeGrid, cfg: SimConfig = SimConfig()):
    """Nondecreasing path(s) of the subordinator on the grid, started at 0."""

    def draw(stream):
        rng = make_rng(cfg.seed, stream, channel=0)
        return _subordinator_increments(pair, grid.dt, grid.n_steps, cfg, rng)

    return _paths_from_increments(draw, grid, cfg)


# ---------------------------------------------------------------------------
# Levy paths.


def _levy_increments(t: LevyTriplet, dt: float, n: int, cfg: SimConfig, rng) -> np.ndarray:
    nu = t.jumps
    inc = t.drift * dt * np.ones(n)
    if t.gaussian_var > 0:
        inc += math.sqrt(t.gaussian_var * dt) * rng.standard_normal(n)
    # With every jump kept, the triplet's compensator is a deterministic shift.
    inc = inc - _truncation_shift(nu, t.convention) * dt
    jumps = nu.sample_increments(dt, n, rng)
    if jumps is None:
        jumps = _epsilon_route(nu, dt, n, cfg.epsilon, rng, cfg.small_jump_mode)
    return inc + jumps


def sample_levy(t: LevyTriplet, grid: TimeGrid, cfg: SimConfig = SimConfig()):
    """Levy path(s) with iid increments per step, started at 0."""

    def draw(stream):
        rng = make_rng(cfg.seed, stream, channel=0)
        return _levy_increments(t, grid.dt, grid.n_steps, cfg, rng)

    return _paths_from_increments(draw, grid, cfg)


# ---------------------------------------------------------------------------
# Time-changed paths.


def _power_samplable(mu: LevyTriplet) -> bool:
    return mu.law is not None and mu.law.power_samplable


def _clock_then_power(mu_L, pair, dt, n, cfg, stream):
    """n clock increments on channel 0, then one draw from mu_L to each one's power on channel 1."""
    rng_t = make_rng(cfg.seed, stream, channel=0)
    d_t = _subordinator_increments(pair, dt, n, cfg, rng_t)
    return conv_power_sample(mu_L, d_t, make_rng(cfg.seed, stream, channel=1))


def sample_subordinated(
    mu_L: LevyTriplet,
    pair: SubordinatorPair,
    grid: TimeGrid,
    cfg: SimConfig = SimConfig(),
    refine: int = 64,
):
    """Path(s) of the time-changed process: the base process run at the
    subordinator's clock.

    Conditionally exact whenever the base law family supports convolution
    power sampling: per step, draw the clock increment, then one exact draw
    from the base law raised to that power. Otherwise the base path is
    simulated on a grid refined by `refine` and read off at the clock times.
    """
    conditional = _power_samplable(mu_L)
    if not conditional and int(refine) * grid.n_steps > _MAX_FINE_STEPS:
        fits = int(_MAX_FINE_STEPS // grid.n_steps)
        hint = f"the largest refine that fits is {fits}" if fits >= 1 else "use fewer steps"
        raise ConfigError(
            f"refine={refine} gives {int(refine) * grid.n_steps:.3g} fine steps per path, "
            f"over the limit of {_MAX_FINE_STEPS:.0e}; {hint}"
        )

    def draw(stream):
        if conditional:
            return _clock_then_power(mu_L, pair, grid.dt, grid.n_steps, cfg, stream)
        rng_t = make_rng(cfg.seed, stream, channel=0)
        d_t = _subordinator_increments(pair, grid.dt, grid.n_steps, cfg, rng_t)
        clock = np.concatenate(([0.0], np.cumsum(d_t)))
        t_end = float(clock[-1])
        if t_end == 0.0:
            return np.zeros(grid.n_steps)
        n_fine = max(int(refine) * grid.n_steps, 64)
        dt_fine = t_end / n_fine
        inc = _levy_increments(mu_L, dt_fine, n_fine, cfg, make_rng(cfg.seed, stream, channel=1))
        path = np.concatenate(([0.0], np.cumsum(inc)))
        idx = np.minimum((clock / dt_fine).astype(int), n_fine)
        return np.diff(path[idx])

    return _paths_from_increments(draw, grid, cfg)


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
        _clock_then_power(mu_L, cell.pair, cell.control_mass, n_draws, cfg, idx)
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
        if self.alpha == 0.0:
            out[pos] = np.exp(-x[pos])
        else:
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

    def draw_path(stream):
        d_x = _clock_then_power(mu_L, pair, ext.dt, ext.n_steps, cfg, stream)
        return np.convolve(d_x, weights)[m : m + grid.n_steps + 1]

    out = []
    for stream in range(cfg.n_paths):
        out.append(PathSample(grid, draw_path(stream), cfg.seed, stream))
    return out[0] if cfg.n_paths == 1 else out
