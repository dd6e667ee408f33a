"""Recovery of a subordinator's law from increments of the time-changed
process when the base law is known.

The chain is: empirical CF of increments -> continuous log branch ->
samples of the subordinator exponent along the curve traced by the base
exponent -> parametric least squares over a named subordinator family.
No density or distribution-function inversion is performed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

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
# fitted parameters, or None for a pure drift. The fit solves the class's
# amplitude field and the drift in closed form and searches the other field.
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
    weighted: bool = False
    fixed_alpha: float | None = None

    def __post_init__(self):
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
    # Objective evaluations summed over the simplex starts (0 when closed form).
    n_evals: int = 0
    # The trimmed (theta_lo, theta_hi) the curve came from, when known.
    theta_window: tuple | None = None


# ---------------------------------------------------------------------------
# CF construction.


def empirical_cf(increments, theta_grid) -> CFSample:
    """Mean of exp(i theta x) over the sample, exactly 1 at theta=0.

    On a grid j*h, j = -K..K (the default grid), this costs one complex exp
    per observation; any other grid takes the blocked route.
    """
    x = np.asarray(increments, dtype=float).ravel()
    if x.size == 0:
        raise EmptyInput("need at least one increment")
    theta = np.asarray(theta_grid, dtype=float)
    if _is_symmetric_uniform(theta):
        sums = _ecf_sums_power(x, theta)
    else:
        sums = _ecf_sums_blocked(x, theta)
    vals = sums / x.size
    vals[theta == 0.0] = 1.0
    return CFSample(theta, vals, n_obs=int(x.size))


def _is_symmetric_uniform(theta: np.ndarray) -> bool:
    """Whether theta is exactly j*h for j = -K..K with K >= 1."""
    if theta.ndim != 1 or theta.size < 3 or theta.size % 2 == 0:
        return False
    k = theta.size // 2
    return bool(np.array_equal(theta, np.arange(-k, k + 1) * theta[k + 1]))


def _ecf_sums_power(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Sums of exp(i j h x) for theta = j*h, j = -K..K.

    The positive half comes from the powers of exp(i h x), the negative
    half by conjugation (the summands are Hermitian in theta). The powers
    carry a phase error of order ulp * j * h * |x|, the same order as the
    rounding of theta * x on the blocked route.
    """
    k = theta.size // 2
    step = np.exp(1j * theta[k + 1] * x)
    power = np.ones_like(step)
    half = np.empty(k, dtype=complex)
    for j in range(k):
        power *= step
        half[j] = power.sum()
    return np.concatenate([np.conj(half[::-1]), [complex(x.size)], half])


def _ecf_sums_blocked(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Sums of exp(i theta x) on an arbitrary grid, in blocks of the sample."""
    sums = np.zeros(theta.size, dtype=complex)
    step = max(1, int(4_000_000 // max(theta.size, 1)))
    for lo in range(0, x.size, step):
        blk = x[lo : lo + step]
        sums += np.exp(1j * np.outer(theta, blk)).sum(axis=1)
    return sums


def analytic_cf(log_cf, theta_grid) -> CFSample:
    """Wrap a callable on a theta array -> log CF as a noiseless sample (n_obs=0)."""
    theta = np.asarray(theta_grid, dtype=float)
    vals = np.exp(np.broadcast_to(np.asarray(log_cf(theta), dtype=complex), theta.shape))
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


def _param_dim(family: str, fixed_alpha) -> int:
    """Number of fitted parameters, beta0 included."""
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
    if not w.any():
        raise NonConvergence("|phi| = 1 at every curve point: the increments are deterministic")
    return w


# Below this value of det / (<z,z> <g,g>), the squared sine of the angle
# between z and g, the 2x2 normal equations are too ill-conditioned to solve
# and the fit takes the better one-column solution.
_COLLINEAR = 1e-10


def _separable_solver(z: np.ndarray, h: np.ndarray, w: np.ndarray):
    """The closed-form part of the fit: for a given basis g, the nonnegative
    (beta0, amp) minimizing sum w |h - beta0 z - amp g|^2, with that sum.

    The weighted real inner products that do not involve g are computed
    once here. g=None fits the drift alone.
    """
    wz = w * np.conj(z)
    wh = w * np.conj(h)
    zz = float(np.dot(w, z.real**2 + z.imag**2))
    zh = float(np.dot(wz, h).real)
    drift_only = max(0.0, zh / zz) if zz > 0 else 0.0

    def objective(beta0, amp, g):
        r = h - beta0 * z if amp == 0.0 else h - beta0 * z - amp * g
        return float(np.dot(w, r.real**2 + r.imag**2))

    def solve(g):
        if g is None:
            return drift_only, 0.0, objective(drift_only, 0.0, None)
        gg = float(np.dot(w, g.real**2 + g.imag**2))
        if not math.isfinite(gg):
            return 0.0, 0.0, math.inf
        if gg == 0.0:
            # g underflowed to 0 (a rate far above the curve's scale).
            return drift_only, 0.0, objective(drift_only, 0.0, None)
        zg = float(np.dot(wz, g).real)
        gh = float(np.dot(wh, g).real)
        det = zz * gg - zg * zg
        if det > _COLLINEAR * zz * gg:
            beta0 = (gg * zh - zg * gh) / det
            amp = (zz * gh - zg * zh) / det
            if beta0 >= 0.0 and amp >= 0.0:
                return beta0, amp, objective(beta0, amp, g)
        # The constrained optimum lies on an edge: one column alone, the
        # drift on a tie.
        amp_only = max(0.0, gh / gg)
        on_drift = objective(drift_only, 0.0, g)
        on_amp = objective(0.0, amp_only, g)
        if on_drift <= on_amp:
            return drift_only, 0.0, on_drift
        return 0.0, amp_only, on_amp

    return solve


def _searched_field(family: str) -> tuple[int, str]:
    """Position and name of the field the simplex searches: the one that is
    not the amplitude."""
    amp_field = FAMILIES[family].amplitude
    names = [f.name for f in fields(FAMILIES[family])]
    (pos,) = [i for i, name in enumerate(names) if name != amp_field]
    return pos, names[pos]


def _from_search_coordinate(name: str, u: float) -> float:
    """An index lives in (0, 1) and is searched on the logit scale; every
    other searched field is positive and searched on the log scale."""
    if name == "index":
        return 1.0 / (1.0 + math.exp(-u))
    return math.exp(u)


def fit_subordinator(curve: PsiCurve, family: str, options: FitOptions = FitOptions()) -> FitResult:
    """Weighted least squares for (beta0, family params) on the curve.

    The family exponent beta0*z + amp*g(z; v) is linear in the drift beta0
    and in the amplitude amp, the field FAMILIES[family].amplitude names, so
    for each v both come from a closed-form 2x2 nonnegative least squares
    (variable projection, Golub & Pereyra 1973). A derivative-free simplex
    then searches v alone from several deterministic starts: the log rate
    for gamma, the log jump_rate for compound exponential and the logit
    index for one-sided stable. The drift family and the stable family at
    a fixed index need no search. Results are reproducible given
    options.seed.
    """
    from scipy import optimize  # deferred, so that cf, mix and simulate never load it

    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}; pick one of {tuple(FAMILIES)}")
    dim = _param_dim(family, options.fixed_alpha)
    if len(curve) < 3 * dim:
        raise InsufficientPoints(f"need at least {3 * dim} curve points, have {len(curve)}")
    z, h = curve.z, curve.psi_hat
    w = _curve_weights(curve, options.weighted)
    solve = _separable_solver(z, h, w)
    measure_cls = FAMILIES[family]
    n_evals = 0
    if measure_cls is None:
        beta0, _, _ = solve(None)
        params, jumps, converged = (), 0.0, 1
    else:
        amp_field = measure_cls.amplitude
        pos, name = _searched_field(family)

        def basis(value):
            # The exponent at unit amplitude; a value the measure rejects (an
            # underflowed rate, an index rounded to 1) lies outside the family.
            try:
                return measure_cls(**{amp_field: 1.0, name: value}).laplace_integral(z)
            except LevyMixError:
                return None

        def objective(vec):
            g = basis(_from_search_coordinate(name, vec[0]))
            return math.inf if g is None else solve(g)[2]

        if family == "one_sided_stable" and options.fixed_alpha is not None:
            value, converged = options.fixed_alpha, 1
        else:
            # Eight starts: the origin, then seven that each draw one coordinate
            # per fitted parameter, beta0 first and then the fields in order,
            # and keep the searched field's.
            rng = np.random.Generator(np.random.Philox(key=[options.seed & ((1 << 64) - 1), 0x5EED]))
            starts = [np.zeros(3)]
            while len(starts) < 8:
                v = rng.uniform(-2.0, 2.0, 3)
                v[0] = rng.uniform(-8.0, 1.0)
                starts.append(v)
            best = None
            converged = 0
            for idx, start in enumerate(starts):
                res = optimize.minimize(
                    objective,
                    start[1 + pos : 2 + pos],
                    method="Nelder-Mead",
                    options={"maxfev": 20_000, "fatol": 1e-10, "xatol": 1e-9},
                )
                n_evals += int(res.nfev)
                if res.success:
                    converged += 1
                key = (res.fun, idx)
                if best is None or key < best[0]:
                    best = (key, float(res.x[0]))
            if converged == 0:
                raise NonConvergence("no simplex start met the tolerance")
            value = _from_search_coordinate(name, best[1])

        beta0, amp, _ = solve(basis(value))
        if amp == 0.0:
            raise NonConvergence(
                f"the best {family} fit has no jumps ({amp_field} = 0); fit --family drift instead"
            )
        measure = measure_cls(**{amp_field: amp, name: value})
        params, jumps = astuple(measure), measure.laplace_integral(z)

    resid = h - (beta0 * z + jumps)
    return FitResult(
        family,
        params,
        beta0,
        float(np.sum(w * np.abs(resid) ** 2)),
        converged,
        float(np.max(np.abs(resid))),
        n_evals,
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


def recover_from_path(path, mu_L: LevyTriplet, family: str, options: FitOptions = FitOptions()) -> FitResult:
    """Full pipeline: path increments -> CF -> curve -> parametric fit.

    The grid spacing is absorbed by fitting the per-step exponent and then
    rescaling the time-linear parameters.
    """
    increments = np.diff(np.asarray(path.values, dtype=float))
    cf = empirical_cf(increments, default_theta_grid())
    cf = trim_cf(cf, _near_zero_floor(cf.n_obs))
    curve = psi_curve(mu_L, cf)
    fit = fit_subordinator(curve, family, options)
    fit = replace(fit, theta_window=(float(cf.theta_grid[0]), float(cf.theta_grid[-1])))
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
