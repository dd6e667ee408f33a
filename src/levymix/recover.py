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
    # 1 once the refine converged inside the searched range (a fit that
    # does not raises NonConvergence), and 1 for the closed-form fits.
    n_starts_converged: int
    residual_max: float
    # Objective evaluations: the scan nodes plus the refine's (0 when closed form).
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


def _curve_weights(curve: PsiCurve) -> np.ndarray:
    if curve.n_obs == 0:
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

    g is one basis (floats come back) or a block with one basis per row
    (arrays come back, one entry per row); the sum is always taken over the
    residuals. The weighted real inner products that do not involve g are
    computed once here. g=None fits the drift alone.
    """
    wzh = np.stack([w * np.conj(z), w * np.conj(h)], axis=1)
    zz = float(np.dot(w, z.real**2 + z.imag**2))
    zh = float(np.dot(wzh[:, 0], h).real)
    drift_only = max(0.0, zh / zz) if zz > 0 else 0.0
    r = h - drift_only * z
    on_drift = float(np.dot(w, r.real**2 + r.imag**2))
    # The summed squares of the curve's rounding: the unwrapped log CF
    # gathers up to one rounding of its largest value per point, so each
    # point is known to about n eps max|h|. Jumps that lower the summed
    # squares by less explain rounding, not the curve.
    noise = float(np.sum(w)) * (h.size * np.finfo(float).eps * float(np.max(np.abs(h)))) ** 2

    def solve(g):
        if g is None:
            return drift_only, 0.0, on_drift
        rows = np.atleast_2d(g)
        gg = (rows.real**2 + rows.imag**2) @ w
        zg, gh = (rows @ wzh).real.T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = zz * gg - zg * zg
            beta0 = (gg * zh - zg * gh) / det
            amp = (zz * gh - zg * zh) / det
            inside = (det > _COLLINEAR * zz * gg) & (beta0 >= 0.0) & (amp >= 0.0)
            # Elsewhere the constrained optimum lies on an edge: one column
            # alone. A g that underflowed to 0 (a rate far above the curve's
            # scale) gives a NaN amp, and so the drift below.
            beta0 = np.where(inside, beta0, 0.0)
            amp = np.where(inside, amp, np.maximum(0.0, gh / gg))
            r = h - beta0[:, None] * z - amp[:, None] * rows
            obj = (r.real**2 + r.imag**2) @ w
        # The drift alone wherever the jumps do not lower the summed squares
        # by more than the rounding: on a curve without jumps the rounding
        # in beta0 and amp can make the exact optimum lose to the drift, and
        # on a curve that is a drift to rounding, jumps fit that rounding.
        drift = ~(obj < on_drift - noise)
        beta0 = np.where(drift, drift_only, beta0)
        amp = np.where(drift, 0.0, amp)
        # A basis too large to square is no candidate.
        obj = np.where(np.isfinite(gg), np.where(drift, on_drift, obj), math.inf)
        if np.ndim(g) == 1:
            return float(beta0[0]), float(amp[0]), float(obj[0])
        return beta0, amp, obj

    return solve


# The searched coordinate (log rate, log jump_rate or logit index) is scanned
# at _SCAN_NODES equally spaced nodes of _SEARCH_RANGE, and the bracket about
# the best node is narrowed until it is _XATOL wide. e**30 is about 1e13: on
# a curve with |z| between 1e-3 and 1e3, the upper end of the range makes
# every family's exponent a drift to within 1e-10, and the lower end makes
# its jump part a constant plus at most a logarithm. A best node on an end of
# the range is no fit.
_SEARCH_RANGE = (-30.0, 30.0)
_SCAN_NODES = 121
_XATOL = 1e-9
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def _searched_field(family: str) -> str:
    """Name of the field the profile scan searches: the one that is not the
    amplitude."""
    amp_field = FAMILIES[family].amplitude
    (name,) = [f.name for f in fields(FAMILIES[family]) if f.name != amp_field]
    return name


def _from_search_coordinate(name: str, u: float) -> float:
    """An index lives in (0, 1) and is searched on the logit scale; every
    other searched field is positive and searched on the log scale."""
    if name == "index":
        return 1.0 / (1.0 + math.exp(-u))
    return math.exp(u)


def _profile_scan(basis, solve, name: str):
    """The scan nodes of the searched coordinate, with the profiled
    (beta0, amp, objective) at each from one block solve."""
    nodes = np.linspace(*_SEARCH_RANGE, _SCAN_NODES)
    block = np.array([basis(_from_search_coordinate(name, u)) for u in nodes])
    return nodes, solve(block)


def _brent_refine(f, a: float, x: float, b: float):
    """Brent's (1973) minimizer of f on the bracket [a, b], from an interior
    point x no worse than either end.

    Each step fits a parabola through the three best points so far, and
    falls back to a golden-section step where the parabola would not shrink
    the bracket fast enough. Stops once the bracket is _XATOL wide and
    returns the best point evaluated and the number of calls to f.
    """
    tol = _XATOL / 4.0
    fx = f(x)
    n_calls = 1
    v, fv, w, fw = x, fx, x, fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, n_calls
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if min(x + d - a, b - x - d) < 2.0 * tol:
                    d = tol if x < m else -tol
        if golden:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        n_calls += 1
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _no_jumps(family: str, amp_field: str) -> NonConvergence:
    return NonConvergence(f"the best {family} fit has no jumps ({amp_field} = 0); fit --family drift instead")


def fit_subordinator(curve: PsiCurve, family: str, options: FitOptions = FitOptions()) -> FitResult:
    """Weighted least squares for (beta0, family params) on the curve.

    The family exponent beta0*z + amp*g(z; v) is linear in the drift beta0
    and in the amplitude amp, the field FAMILIES[family].amplitude names, so
    for each v both come from a closed-form 2x2 nonnegative least squares
    (variable projection, Golub & Pereyra 1973). The one remaining field v
    is searched over a bounded range of one coordinate: the log rate for
    gamma, the log jump_rate for compound exponential and the logit index
    for one-sided stable. A profile scan picks the best node, and Brent's
    minimizer narrows the bracket between its neighbours to _XATOL. A best
    node on an end of the range, or one without jumps, raises
    NonConvergence. The drift family and the stable family at a fixed index
    need no search. The fit is deterministic.
    """
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}; pick one of {tuple(FAMILIES)}")
    dim = _param_dim(family, options.fixed_alpha)
    if len(curve) < 3 * dim:
        raise InsufficientPoints(f"need at least {3 * dim} curve points, have {len(curve)}")
    z, h = curve.z, curve.psi_hat
    w = _curve_weights(curve)
    solve = _separable_solver(z, h, w)
    measure_cls = FAMILIES[family]
    n_evals = 0
    if measure_cls is None:
        beta0, _, objective = solve(None)
        params, jumps = (), 0.0
    else:
        amp_field = measure_cls.amplitude
        name = _searched_field(family)

        def basis(value):
            # The exponent at unit amplitude.
            return measure_cls(**{amp_field: 1.0, name: value}).laplace_integral(z)

        if family == "one_sided_stable" and options.fixed_alpha is not None:
            value = options.fixed_alpha
        else:
            nodes, (_, amps, objectives) = _profile_scan(basis, solve, name)
            k = int(np.argmin(objectives))
            if amps[k] == 0.0:
                raise _no_jumps(family, amp_field)
            if k in (0, nodes.size - 1):
                edge = _from_search_coordinate(name, nodes[k])
                raise NonConvergence(
                    f"the best {family} fit lies on the edge of the searched range ({name} = {edge:.3g}): "
                    f"the curve does not identify a {family} clock"
                )
            u, n_calls = _brent_refine(
                lambda u: solve(basis(_from_search_coordinate(name, u)))[2], *nodes[k - 1 : k + 2]
            )
            value = _from_search_coordinate(name, u)
            n_evals = nodes.size + n_calls

        beta0, amp, objective = solve(basis(value))
        if amp == 0.0:
            raise _no_jumps(family, amp_field)
        measure = measure_cls(**{amp_field: amp, name: value})
        params, jumps = astuple(measure), measure.laplace_integral(z)

    resid = h - (beta0 * z + jumps)
    return FitResult(family, params, beta0, objective, 1, float(np.max(np.abs(resid))), n_evals)


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
