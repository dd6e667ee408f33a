"""Mixing convolution-power families through a jump measure.

The central object is the map that sends a jump measure rho on (0, inf) to
the mixed measure A -> integral of mu^s(A) rho(ds), where mu^s is the s-th
convolution power of an infinitely divisible law mu.  Everything here
evaluates interval masses, densities or transforms of that mixed measure
without materializing it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .core import (
    INF,
    LevyMeasure,
    LevyTriplet,
    MeasureFamily,
    char_exponent,
)
from .errors import DomainError, QuadratureFailure, UnsupportedFamily


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint half-open intervals (lo, hi], none of which contains 0.

    Sets touching 0 (lo == 0) are legal but only usable against finite
    mixing measures; the evaluators enforce that.
    """

    intervals: tuple

    def __post_init__(self):
        cleaned = []
        for lo, hi in self.intervals:
            lo, hi = float(lo), float(hi)
            if not hi > lo:
                raise DomainError(f"interval ({lo}, {hi}] is empty")
            if lo < 0.0 <= hi:
                raise DomainError(f"interval ({lo}, {hi}] contains 0")
            cleaned.append((lo, hi))
        cleaned.sort()
        for (_, hi_prev), (lo_next, _) in zip(cleaned, cleaned[1:]):
            if lo_next < hi_prev:
                raise DomainError("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", tuple(cleaned))

    @classmethod
    def of(cls, lo, hi):
        return cls(((lo, hi),))

    @property
    def distance_from_zero(self):
        d = INF
        for lo, hi in self.intervals:
            d = min(d, lo if lo >= 0 else -hi)
        return d


@dataclass(frozen=True)
class MixResult:
    value: float
    abs_error_estimate: float
    truncation_point: float


# ---------------------------------------------------------------------------
# Convolution powers mu^s in closed form, from the law tag.


def _require_tag(mu: LevyTriplet):
    if mu.law is None:
        raise UnsupportedFamily(
            "convolution powers need a law-tagged triplet (use the law constructors)"
        )
    return mu.law


def conv_power_cdf(mu: LevyTriplet, s: float, x: float) -> float:
    """CDF of mu^s at x for scalar s > 0."""
    return _require_tag(mu).cdf(s, x)


def conv_power_interval_mass(mu: LevyTriplet, s: float, lo: float, hi: float) -> float:
    """Mass of mu^s on the half-open interval (lo, hi]."""
    return _require_tag(mu).interval_mass(s, lo, hi)


def conv_power_set_mass(mu: LevyTriplet, s: float, sets: IntervalSet) -> float:
    return sum(conv_power_interval_mass(mu, s, lo, hi) for lo, hi in sets.intervals)


def conv_power_density(mu: LevyTriplet, s, x):
    """Density of mu^s, vectorized over x (and broadcastable s)."""
    law = _require_tag(mu)
    return law.density(np.asarray(s, dtype=float), np.asarray(x, dtype=float))


def conv_power_truncated_mean(mu: LevyTriplet, s: float) -> float:
    """Integral of x over |x| <= 1 against mu^s."""
    return _require_tag(mu).truncated_mean(s)


def lemma_constant(mu: LevyTriplet) -> float:
    """Limit of (1/s) integral (1 and x^2) d mu^s as s -> 0."""
    return mu.gaussian_var + mu.jumps.one_wedge(2)


# ---------------------------------------------------------------------------
# Integration of a function against a jump measure on (0, inf).


def _floor_for(rho, dropped_bound, target):
    """Largest floor in a halving sweep with dropped_bound(floor) < target."""
    floor = 1e-8
    for _ in range(960):
        if dropped_bound(floor) < target:
            return floor, dropped_bound(floor)
        floor *= 0.5
    return floor, dropped_bound(floor)


def integrate_rho(rho: LevyMeasure, fn, *, tol=1e-10, linear_bound=None,
                  complex_valued=False):
    """Integral of fn over (0, inf) against rho.

    fn is a scalar function, |fn| <= 1 unless a linear small-s bound
    |fn(s)| <= linear_bound * s is supplied; the bound picks the lower
    truncation for infinite-mass measures.  Returns (value, err, upper).
    """
    fam = rho.family
    if fam is MeasureFamily.ZERO:
        return (0.0j if complex_valued else 0.0), 0.0, 0.0
    if fam is MeasureFamily.FINITE_ATOMIC:
        total = sum(mass * fn(pos) for pos, mass in rho.atoms)
        err = 1e-15 * sum(mass * abs(fn(pos)) for pos, mass in rho.atoms)
        return total, err, rho.atoms[-1][0]
    if fam is MeasureFamily.TABULATED:
        def fvec(xs):
            return np.array([fn(float(v)) for v in np.atleast_1d(xs)])
        value, err = quadrature.integrate_tabulated(fvec, rho.xs, rho.dens)
        if err > max(tol * 1e4, 1e-4 * abs(value)):
            raise QuadratureFailure(f"tabulated mixing grid too coarse: {err:.3e}")
        return (complex(value) if complex_valued else float(value)), err, rho.xs[-1]

    # Density families: truncate both ends with certified bounds, then
    # integrate in u = log s so origin singularities flatten out.
    if linear_bound is not None:
        dropped = lambda f: linear_bound * rho.truncated_moment(1, f)
    else:
        total = rho.total_mass()
        if math.isinf(total):
            raise DomainError(
                "an infinite-mass mixing measure needs a linear small-s bound"
            )
        dropped = lambda f: total - rho.mass_above(f)
    floor, floor_err = _floor_for(rho, dropped, tol * 0.01)

    upper = rho.tail_cutoff(tol * 0.25)
    for _ in range(200):
        if abs(fn(upper)) * rho.mass_above(upper) < tol * 0.25:
            break
        upper *= 1.5
    tail_err = max(abs(fn(upper)), abs(fn(1.5 * upper))) * rho.mass_above(upper)

    def integrand(u):
        s = math.exp(u)
        return fn(s) * float(rho.density(np.array([s]))[0]) * s

    lo_u, hi_u = math.log(floor), math.log(upper)
    if complex_valued:
        value, qerr = quadrature.integrate_complex(integrand, lo_u, hi_u, tol=tol)
    else:
        value, qerr = quadrature.integrate_interval(integrand, lo_u, hi_u, tol=tol)
    return value, qerr + floor_err + tail_err, upper


def rho_quad_nodes(rho: LevyMeasure, *, tol=1e-12, s_floor=None, order=16,
                   max_width=1.0):
    """Nodes and weights so that integral f d rho ~ sum w_i f(s_i).

    Used by the vectorized density mixers; for atoms the nodes are the atoms
    themselves, for densities composite Gauss-Legendre panels in log s.
    """
    fam = rho.family
    if fam is MeasureFamily.ZERO:
        return np.array([]), np.array([])
    if fam is MeasureFamily.FINITE_ATOMIC:
        return rho.positions(), rho.masses()
    if fam is MeasureFamily.TABULATED:
        xs = np.asarray(rho.xs)
        dens = np.asarray(rho.dens)
        # refined trapezoid weights on a 4x midpoint-split grid
        fine = xs
        for _ in range(2):
            mids = 0.5 * (fine[:-1] + fine[1:])
            merged = np.empty(fine.size + mids.size)
            merged[0::2], merged[1::2] = fine, mids
            fine = merged
        d = np.interp(fine, xs, dens)
        w = np.zeros_like(fine)
        dx = np.diff(fine)
        w[:-1] += 0.5 * dx
        w[1:] += 0.5 * dx
        return fine, w * d
    if s_floor is None:
        s_floor = 1e-14
    upper = rho.tail_cutoff(tol)
    edges = quadrature.log_panel_edges(s_floor, upper, max_width=max_width)
    u, wu = quadrature.panel_nodes(edges, order=order)
    s = np.exp(u)
    return s, wu * s * rho.density(s)


# ---------------------------------------------------------------------------
# Public mixing operations.


def check_domain(mu: LevyTriplet, rho: LevyMeasure) -> bool:
    """Whether rho lies in the mixing domain for base law mu."""
    if not rho.is_positive():
        return False
    if mu.is_degenerate():
        return mu.drift != 0.0
    return rho.one_wedge(1) < INF


def _validate_mixing_measure(rho):
    if not rho.is_positive():
        raise DomainError("the mixing measure must live on (0, inf)")
    if rho.one_wedge(1) == INF:
        raise DomainError("the mixing measure must integrate (1 and s)")


def _delta_pushforward_mass(drift, rho, sets):
    """Mass of rho(drift^-1 dx) over the interval set; exact."""
    total = 0.0
    for lo, hi in sets.intervals:
        a, b = lo / drift, hi / drift
        if rho.family is MeasureFamily.FINITE_ATOMIC:
            if drift > 0:
                total += sum(m for p, m in rho.atoms if a < p <= b)
            else:
                total += sum(m for p, m in rho.atoms if b <= p < a)
        else:
            total += rho.interval_mass(min(a, b), max(a, b))
    return MixResult(total, 1e-15 * total, rho.tail_cutoff(1e-15))


def _mix_over_sets(mu, rho, sets, fn, tol):
    """Integral of fn, the mu^s mass of the sets, against rho.  Sets away
    from 0 give the linear small-s bound that certifies the lower cut."""
    d = sets.distance_from_zero
    if d <= 0.0 and math.isinf(rho.total_mass()):
        raise DomainError("interval sets touching 0 need a finite mixing measure")
    bound = None
    if d > 0.0:
        bound = 2.0 * lemma_constant(mu) / min(1.0, d * d)
    value, err, upper = integrate_rho(rho, fn, tol=tol, linear_bound=bound)
    return MixResult(max(value, 0.0), err, upper)


def phi_mix_mass(mu: LevyTriplet, rho: LevyMeasure, sets: IntervalSet,
                 *, tol=1e-10) -> MixResult:
    """Interval masses of the mixed measure integral mu^s(.) rho(ds)."""
    if not rho.is_positive():
        raise DomainError("the mixing measure must live on (0, inf)")
    if mu.law is not None and mu.law.mix_route == "pushforward":
        # Degenerate base: the mix is a pushforward, defined for any
        # positive jump measure as long as the point is not 0.
        if mu.law.drift == 0.0:
            raise DomainError("a degenerate base at 0 is outside the mixing domain")
        return _delta_pushforward_mass(mu.law.drift, rho, sets)
    if rho.one_wedge(1) == INF:
        raise DomainError("the mixing measure must integrate (1 and s)")
    return _mix_over_sets(mu, rho, sets, lambda s: conv_power_set_mass(mu, s, sets), tol)


def phi_mix_density_gamma(rate: float, rho: LevyMeasure, x: float,
                          *, tol=1e-10) -> float:
    """Pointwise density of the gamma-kernel mixed measure at x >= 0.

    The kernel is the gamma convolution-power family with the given rate;
    the value at 0 is defined to be 0.
    """
    if rate <= 0:
        raise DomainError("rate must be > 0")
    if x < 0:
        raise DomainError("the mixed density lives on [0, inf)")
    if x == 0.0:
        return 0.0
    _validate_mixing_measure(rho)
    log_rx = math.log(rate * x)

    def fn(s):
        return math.exp(s * log_rx - math.lgamma(s))

    # 1/Gamma(s) ~ s near 0, so |fn| <= 1.2 s for floors below 1e-8.
    value, err, _ = integrate_rho(rho, fn, tol=tol, linear_bound=1.2)
    if err > max(1e-7, 1e-6 * abs(value)):
        raise QuadratureFailure(f"mixed density error estimate {err:.3e} too large")
    return math.exp(-rate * x) / x * value


def _stable_reference_cdf(mu: LevyTriplet, alpha: float):
    """Reference CDF of the strictly stable base law, plus validation."""
    law = _require_tag(mu)
    law.require_stable(alpha)
    return lambda x: law.cdf(1.0, x)


@dataclass(frozen=True)
class StableMixEvaluator:
    """Interval masses of the mix with a strictly stable base law.

    Uses the scaling identity: mu^s(A) is mu evaluated on s**(-1/alpha) A, so
    the mix is a multiplicative smearing of the pushforward of rho under
    s -> s**(1/alpha) against one reference CDF; no per-s convolution powers.
    """

    mu: LevyTriplet
    alpha: float
    rho: LevyMeasure

    def mass(self, sets: IntervalSet, *, tol=1e-10) -> MixResult:
        cdf = _stable_reference_cdf(self.mu, self.alpha)
        inv = 1.0 / self.alpha

        def fn(s):
            scale = s**-inv
            total = 0.0
            for lo, hi in sets.intervals:
                b = 1.0 if math.isinf(hi) else cdf(hi * scale)
                a = 0.0 if math.isinf(lo) else cdf(lo * scale)
                total += max(b - a, 0.0)
            return total

        return _mix_over_sets(self.mu, self.rho, sets, fn, tol)


def phi_mix_stable(mu: LevyTriplet, alpha: float, rho: LevyMeasure) -> StableMixEvaluator:
    """Evaluator for mixing a strictly alpha-stable base law with rho."""
    _stable_reference_cdf(mu, alpha)  # validates base and alpha
    _validate_mixing_measure(rho)
    if not rho.image_in_ml1(alpha):
        raise DomainError(
            "the image of rho under s -> s**(1/alpha) must integrate (1 and t)"
        )
    return StableMixEvaluator(mu, alpha, rho)


def mixing_cf(mu: LevyTriplet, rho: LevyMeasure, theta: float, *, tol=1e-10) -> complex:
    """Characteristic transform of the mixed measure for finite rho.

    Equals the integral of exp(s * log_cf_mu(theta)) rho(ds); this identity
    needs rho to have finite total mass.
    """
    if not rho.is_positive():
        raise DomainError("the mixing measure must live on (0, inf)")
    if math.isinf(rho.total_mass()):
        raise DomainError("the transform identity needs a finite mixing measure")
    phi = char_exponent(mu, theta)
    fn = lambda s: cmath.exp(s * phi)
    value, err, _ = integrate_rho(rho, fn, tol=tol, complex_valued=True)
    if err > 1e-6 * max(1.0, abs(value)):
        raise QuadratureFailure(f"mixing transform error estimate {err:.3e}")
    return value


def small_s_ratio(mu: LevyTriplet, s: float) -> float:
    """(1/s) integral (1 and x^2) d mu^s; tends to the lemma constant."""
    if s <= 0:
        raise DomainError("s must be > 0")
    if mu.is_degenerate():
        raise DomainError("the base law must be non-degenerate")
    return _require_tag(mu).small_s_ratio(s)
