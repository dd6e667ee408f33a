"""Recovery of a subordinator's law from increments of the time-changed
process when the base law is known.

The chain is: empirical CF of increments -> continuous log branch ->
samples of the subordinator exponent along the curve traced by the base
exponent -> parametric least squares over a named subordinator family.
No density or distribution-function inversion is performed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np
from scipy import optimize

from .core import (
    CompoundExponentialMeasure,
    GammaMeasure,
    LevyTriplet,
    OneSidedStableMeasure,
    char_exponent,
)
from .errors import (
    BranchAmbiguity,
    ConfigError,
    DegenerateBaseProcess,
    DomainError,
    EmptyInput,
    GridTooCoarse,
    InsufficientPoints,
    LevyMixError,
    NearZeroCF,
    NonConvergence,
    UnsupportedFamily,
)

__all__ = [
    "CFSample",
    "PsiCurve",
    "FitOptions",
    "FitResult",
    "default_theta_grid",
    "empirical_cf",
    "analytic_cf",
    "trim_cf",
    "unwrap_log_cf",
    "psi_curve",
    "fit_subordinator",
    "recover_from_path",
    "ou_invert",
]

# Clock families a fit can name: the jump-measure class whose fields are the
# fitted parameters, in field order, or None for a pure drift.
FAMILIES = {
    "gamma": GammaMeasure,
    "one_sided_stable": OneSidedStableMeasure,
    "compound_exponential": CompoundExponentialMeasure,
    "drift": None,
}


def default_theta_grid() -> np.ndarray:
    """101 equally spaced points spanning [-10, 10], hitting 0 exactly."""
    return np.arange(-50, 51) * 0.2


@dataclass(frozen=True)
class CFSample:
    """Characteristic-function values on a grid; n_obs=0 marks analytic input."""

    theta_grid: np.ndarray
    values: np.ndarray
    n_obs: int = 0

    def __post_init__(self):
        theta = np.asarray(self.theta_grid, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if theta.ndim != 1 or theta.size != vals.size or theta.size == 0:
            raise DomainError("theta grid and values must be matching 1-D arrays")
        if not np.all(np.diff(theta) > 0):
            raise DomainError("theta grid must be strictly increasing")
        if not np.any(theta == 0.0):
            raise DomainError("theta grid must contain 0")
        if vals[int(np.flatnonzero(theta == 0.0)[0])] != 1.0:
            raise DomainError("the value at theta=0 must be exactly 1")
        slack = 4.0 / math.sqrt(self.n_obs) if self.n_obs > 0 else 0.0
        if np.any(np.abs(vals) > 1.0 + slack + 1e-12):
            raise DomainError("characteristic function values exceed the unit bound")
        object.__setattr__(self, "theta_grid", theta)
        object.__setattr__(self, "values", vals)

    def zero_index(self) -> int:
        return int(np.flatnonzero(self.theta_grid == 0.0)[0])


@dataclass(frozen=True)
class PsiCurve:
    """Samples (z_j, psi_hat_j) of the subordinator exponent along the set
    swept by the base exponent, with the source theta kept per point."""

    z: np.ndarray
    psi_hat: np.ndarray
    theta: np.ndarray
    n_obs: int = 0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        h = np.asarray(self.psi_hat, dtype=complex)
        th = np.asarray(self.theta, dtype=float)
        if not (z.size == h.size == th.size) or z.size == 0:
            raise DomainError("curve arrays must be nonempty and matched")
        j0 = np.flatnonzero(th == 0.0)
        if j0.size != 1 or z[j0[0]] != 0 or h[j0[0]] != 0:
            raise DomainError("the curve must be anchored at exactly (0, 0)")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "psi_hat", h)
        object.__setattr__(self, "theta", th)

    def __len__(self) -> int:
        return int(self.z.size)


@dataclass(frozen=True)
class FitOptions:
    seed: int = 0
    n_starts: int = 8
    max_evals: int = 20_000
    objective_tol: float = 1e-10
    weighted: bool = False
    fixed_alpha: float | None = None

    def __post_init__(self):
        if self.n_starts < 1 or self.max_evals < 10:
            raise ConfigError("n_starts must be >= 1 and max_evals >= 10")
        if self.fixed_alpha is not None and not (0 < self.fixed_alpha < 1):
            raise ConfigError("fixed_alpha must lie in (0, 1)")


@dataclass(frozen=True)
class FitResult:
    family: str
    params: tuple
    beta0_hat: float
    objective: float
    n_starts_converged: int
    residual_max: float


# ---------------------------------------------------------------------------
# CF construction.


def empirical_cf(increments, theta_grid) -> CFSample:
    """Mean of exp(i theta x) over the sample, exactly 1 at theta=0."""
    x = np.asarray(increments, dtype=float).ravel()
    if x.size == 0:
        raise EmptyInput("need at least one increment")
    theta = np.asarray(theta_grid, dtype=float)
    sums = np.zeros(theta.size, dtype=complex)
    step = max(1, int(4_000_000 // max(theta.size, 1)))
    for lo in range(0, x.size, step):
        blk = x[lo : lo + step]
        sums += np.exp(1j * np.outer(theta, blk)).sum(axis=1)
    vals = sums / x.size
    vals[theta == 0.0] = 1.0
    return CFSample(theta, vals, n_obs=int(x.size))


def analytic_cf(log_cf, theta_grid) -> CFSample:
    """Wrap a callable theta -> log CF as a noiseless sample (n_obs=0)."""
    theta = np.asarray(theta_grid, dtype=float)
    vals = np.array([np.exp(complex(log_cf(t))) for t in theta])
    vals[theta == 0.0] = 1.0
    return CFSample(theta, vals, n_obs=0)


def trim_cf(cf: CFSample, threshold: float) -> CFSample:
    """Largest contiguous window around theta=0 where |values| > threshold."""
    good = np.abs(cf.values) > threshold
    j0 = cf.zero_index()
    if not good[j0]:
        raise NearZeroCF("the characteristic function is below threshold at 0")
    lo = j0
    while lo > 0 and good[lo - 1]:
        lo -= 1
    hi = j0
    while hi + 1 < good.size and good[hi + 1]:
        hi += 1
    return CFSample(cf.theta_grid[lo : hi + 1], cf.values[lo : hi + 1], cf.n_obs)


# ---------------------------------------------------------------------------
# Branch tracking.


def _near_zero_floor(n_obs: int) -> float:
    return 10.0 / math.sqrt(max(n_obs, 100))


def unwrap_log_cf(cf: CFSample) -> np.ndarray:
    """Continuous log of the CF along the grid, 0 at theta=0.

    Built by accumulating principal logs of consecutive ratios outward from
    the anchor; a single step of size >= pi is ambiguous and rejected.
    The noise floor check applies to empirical samples only: analytic
    values are exact, so smallness is no obstacle to branch tracking there.
    """
    vals = cf.values
    if cf.n_obs > 0 and np.min(np.abs(vals)) <= _near_zero_floor(cf.n_obs):
        raise NearZeroCF(
            "characteristic function within the noise floor "
            f"{_near_zero_floor(cf.n_obs):.3g}; trim the grid first"
        )
    if np.any(vals == 0):
        raise NearZeroCF("characteristic function vanishes on the grid")
    j0 = cf.zero_index()
    h = np.zeros(vals.size, dtype=complex)
    steps = np.log(vals[1:] / vals[:-1])
    if np.any(np.abs(steps.imag) >= math.pi):
        raise BranchAmbiguity("phase step of at least pi between grid points")
    for j in range(j0 + 1, vals.size):
        h[j] = h[j - 1] + steps[j - 1]
    for j in range(j0 - 1, -1, -1):
        h[j] = h[j + 1] - steps[j]
    return h


def psi_curve(mu_L: LevyTriplet, cf: CFSample) -> PsiCurve:
    """Pair each theta's base-exponent value with the tracked log CF."""
    if mu_L.is_degenerate() and mu_L.drift == 0.0:
        raise DegenerateBaseProcess("a point mass at zero identifies nothing")
    h = unwrap_log_cf(cf)
    z = char_exponent(mu_L, cf.theta_grid)
    j0 = cf.zero_index()
    z[j0] = 0.0
    h[j0] = 0.0
    return PsiCurve(z, h, cf.theta_grid, cf.n_obs)


# ---------------------------------------------------------------------------
# Parametric fitting.


def _softplus(u: float) -> float:
    return math.log1p(math.exp(-abs(u))) + max(u, 0.0)


def _unpack(family: str, vec, fixed_alpha):
    beta0 = _softplus(vec[0])
    if family != "one_sided_stable":
        return beta0, tuple(math.exp(v) for v in vec[1:])
    if fixed_alpha is not None:
        return beta0, (fixed_alpha, math.exp(vec[1]))
    return beta0, (1.0 / (1.0 + math.exp(-vec[1])), math.exp(vec[2]))


def _param_dim(family: str, fixed_alpha) -> int:
    if family == "drift":
        return 1
    if family == "one_sided_stable" and fixed_alpha is not None:
        return 2
    return 3


def _curve_weights(curve: PsiCurve, weighted: bool) -> np.ndarray:
    if not weighted or curve.n_obs == 0:
        return np.ones(len(curve))
    # Inverse variance of the tracked log: the ECF's asymptotic variance
    # (1 - |phi|^2) / N divided by |phi|^2 for the log transform. The anchor
    # gets weight 0; its residual is identically zero for every family.
    mod2 = np.exp(2.0 * curve.psi_hat.real)
    w = np.zeros(len(curve))
    ok = mod2 < 1.0 - 1e-12
    w[ok] = curve.n_obs * mod2[ok] / (1.0 - mod2[ok])
    return w


def fit_subordinator(curve: PsiCurve, family: str, options: FitOptions = FitOptions()) -> FitResult:
    """Weighted least squares for (beta0, family params) on the curve.

    Derivative-free simplex from several deterministic starts in
    log-parameter space; beta0 is kept nonnegative through a smooth positive
    reparameterization. Results are reproducible given options.seed.
    """
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}; pick one of {tuple(FAMILIES)}")
    dim = _param_dim(family, options.fixed_alpha)
    if len(curve) < 3 * dim:
        raise InsufficientPoints(f"need at least {3 * dim} curve points, have {len(curve)}")
    z, h = curve.z, curve.psi_hat
    w = _curve_weights(curve, options.weighted)

    if family == "drift":
        # One real parameter: exact projection, clipped at zero.
        denom = float(np.sum(w * np.abs(z) ** 2))
        beta0 = 0.0 if denom == 0 else max(0.0, float(np.sum(w * (np.conj(z) * h).real)) / denom)
        resid = h - beta0 * z
        return FitResult(
            family, (), beta0, float(np.sum(w * np.abs(resid) ** 2)), 1,
            float(np.max(np.abs(resid))),
        )

    measure_cls = FAMILIES[family]

    def objective(vec):
        beta0, params = _unpack(family, vec, options.fixed_alpha)
        try:
            # A vector the measure rejects (an underflowed parameter, an
            # index rounded to 1) lies outside the family.
            psi = measure_cls(*params).laplace_integral(z)
        except LevyMixError:
            return math.inf
        return float(np.sum(w * np.abs(h - (beta0 * z + psi)) ** 2))

    rng = np.random.Generator(np.random.Philox(key=[options.seed & ((1 << 64) - 1), 0x5EED]))
    starts = [np.zeros(dim)]
    while len(starts) < options.n_starts:
        v = rng.uniform(-2.0, 2.0, dim)
        v[0] = rng.uniform(-8.0, 1.0)
        starts.append(v)

    best = None
    converged = 0
    for idx, start in enumerate(starts):
        res = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxfev": options.max_evals,
                "fatol": options.objective_tol,
                "xatol": 1e-9,
            },
        )
        if res.success:
            converged += 1
        key = (res.fun, idx)
        if best is None or key < best[0]:
            best = (key, res.x)
    if converged == 0:
        raise NonConvergence("no simplex start met the tolerance")
    beta0, params = _unpack(family, best[1], options.fixed_alpha)
    resid = h - (beta0 * z + measure_cls(*params).laplace_integral(z))
    return FitResult(
        family,
        tuple(params),
        beta0,
        float(np.sum(w * np.abs(resid) ** 2)),
        converged,
        float(np.max(np.abs(resid))),
    )


def _rescale_for_spacing(family: str, fit: FitResult, dt: float) -> FitResult:
    """Undo the per-step spacing: the fitted exponent equals dt times the
    unit-time exponent, so beta0 and the jump measure divide by dt."""
    if dt == 1.0:
        return fit
    params = fit.params
    if FAMILIES[family] is not None:
        params = astuple(FAMILIES[family](*params).scaled(1.0 / dt))
    return replace(fit, params=params, beta0_hat=fit.beta0_hat / dt)


def recover_from_path(path, mu_L: LevyTriplet, family: str, options: FitOptions = FitOptions(),
                      theta_grid=None) -> FitResult:
    """Full pipeline: path increments -> CF -> curve -> parametric fit.

    The grid spacing is absorbed by fitting the per-step exponent and then
    rescaling the time-linear parameters.
    """
    increments = np.diff(np.asarray(path.values, dtype=float))
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    cf = empirical_cf(increments, grid)
    cf = trim_cf(cf, _near_zero_floor(cf.n_obs))
    curve = psi_curve(mu_L, cf)
    fit = fit_subordinator(curve, family, options)
    return _rescale_for_spacing(family, fit, path.grid.dt)


# ---------------------------------------------------------------------------
# OU inversion.


def ou_invert(y) -> np.ndarray:
    """Driving increments from an exponential-kernel moving average.

    Uses the Euler form of the kernel's Langevin dynamics, so the per-unit-
    time reconstruction error vanishes linearly with the step.
    """
    dt = y.grid.dt
    if dt > 0.1:
        raise GridTooCoarse(f"dt={dt} too coarse for the Euler inversion (need <= 0.1)")
    vals = np.asarray(y.values, dtype=float)
    return vals[1:] - vals[:-1] + vals[:-1] * dt
