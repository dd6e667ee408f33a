"""Mixing convolution-power families through a jump measure.

The central object is the map that sends a jump measure rho on (0, inf) to
the mixed measure A -> integral of mu^s(A) rho(ds), where mu^s is the s-th
convolution power of an infinitely divisible law mu.  Everything here
evaluates interval masses, densities or transforms of that mixed measure
without materializing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from . import quadrature
from .core import (
    INF,
    LevyMeasure,
    LevyTriplet,
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


# ---------------------------------------------------------------------------
# The base law: its tag, which owns the closed forms of mu^s, and its
# small-s constant.


def mixable_law(mu: LevyTriplet):
    """The tag of a base that a clock with jumps can mix: refused for a
    triplet built from its parts, which has no closed forms of mu^s, and for
    a degenerate base at 0, whose mix would put mass at 0."""
    if mu.law is None:
        raise UnsupportedFamily(
            "convolution powers need a law-tagged triplet (use the law constructors)"
        )
    if mu.is_degenerate() and mu.drift == 0.0:
        raise DomainError("a degenerate base at 0 is outside the mixing domain")
    return mu.law


def lemma_constant(mu: LevyTriplet) -> float:
    """Limit of (1/s) integral (1 and x^2) d mu^s as s -> 0."""
    return mu.gaussian_var + mu.jumps.one_wedge(2)


def small_s_bound(mu: LevyTriplet, d: float) -> float:
    """The lemma's linear small-s bound on mu^s(|x| > d), d > 0: 2 c /
    min(1, d)^2, c the lemma constant.  It is 0 for a base with c = 0, and
    inf, which no lower cut meets, where it overflows; dividing by min(1, d)
    twice keeps a d whose square underflows from dividing by 0."""
    d = min(1.0, d)
    return 2.0 * lemma_constant(mu) / d / d


# ---------------------------------------------------------------------------
# Integration of a function against a jump measure on (0, inf).


def integrate_rho(rho: LevyMeasure, fn, *, tol=1e-10, linear_bound=None):
    """Integral of fn over (0, inf) against rho, and the rule that gave it.

    fn is vectorized over s: it maps an (n,) array of s to an (n,) block, or
    to an (n, k) block of k targets integrated together; the block's dtype
    (real or complex) is the result's.  Each entry has |fn| <= 1 unless a
    linear small-s bound |fn(s)| <= linear_bound * s is supplied; the bound
    picks the lower truncation for infinite-mass measures.

    Atoms are summed exactly, column by column.  Densities are integrated
    by adaptive Gauss-Kronrod in u = log s between a certified floor and a
    tail cut, whose bounds are added to the quadrature's error estimate,
    from starting panels also cut at the density's break points; fn must
    not jump inside a density's range, where the adaptive rule bisects the
    jump down to machine width.  Each column keeps its own value and error
    estimate; unless every estimate is quadrature.within tol,
    QuadratureFailure is raised.  Returns (value, err, (nodes, weights)),
    value and err with the block's trailing shape, and sum weights *
    g(nodes) the rule's integral of any g against rho: the atoms, or the
    K15 nodes in s of the final panels, weighted w s rho(s), which met tol
    on every column of fn.
    """
    rule = rho.fixed_rule()
    if rule is not None:
        value, err = quadrature.rule_sum(fn, *rule)
    else:
        # Density families: truncate both ends with certified bounds, then
        # integrate in u = log s so origin singularities flatten out.
        if linear_bound is not None:
            dropped = lambda f: linear_bound * rho.truncated_moment(1, f)
        else:
            total = rho.total_mass()
            if math.isinf(total):
                raise DomainError("an infinite-mass mixing measure needs a linear small-s bound")
            dropped = lambda f: total - rho.mass_above(f)
        floor = 1e-8
        for _ in range(960):
            if dropped(floor) < tol * 0.01:
                break
            floor *= 0.5
        floor_err = dropped(floor)
        with np.errstate(over="ignore"):
            floor_density = rho.density(np.array([floor]))[0]
        if not (floor_err < tol * 0.01 and np.isfinite(floor_density)):
            raise QuadratureFailure(
                f"no lower cut for {rho!r} drops less than {tol * 0.01:.3g} at a finite density: "
                f"at s = {floor:.3g} the dropped bound is {floor_err:.3g}, the density {floor_density:.3g}"
            )

        def size_at(s):
            return np.abs(fn(np.array([s])))[0]

        upper = rho.tail_cutoff(tol * 0.25)
        for _ in range(200):
            if np.max(size_at(upper)) * rho.mass_above(upper) < tol * 0.25:
                break
            upper *= 1.5
        tail_err = np.maximum(size_at(upper), size_at(1.5 * upper)) * rho.mass_above(upper)

        def integrand(u):
            s = np.exp(u)
            return (np.asarray(fn(s)).T * (rho.density(s) * s)).T

        value, qerr, edges = quadrature.integrate_adaptive(integrand, math.log(floor), math.log(upper), tol=tol,
                                                           breaks=[math.log(b) for b in rho.breaks])
        u, weights = quadrature.kronrod_nodes(edges)
        s = np.exp(u)
        err, rule = qerr + floor_err + tail_err, (s, weights * s * rho.density(s))
    if not quadrature.within(value, err, tol):
        raise QuadratureFailure(f"mixing grid too coarse: {np.max(err):.3e} at tol {tol:.3g}")
    return value[()], err[()], rule


# ---------------------------------------------------------------------------
# Public mixing operations.


def _validate_mixing_measure(rho):
    if not rho.is_positive():
        raise DomainError("the mixing measure must live on (0, inf)")
    if not rho.finite_variation():
        raise DomainError("the mixing measure must integrate (1 and s)")


def _delta_pushforward_mass(drift, rho, sets):
    """Mass of rho(drift^-1 dx) over the interval set for a density clock,
    exact: its masses between the clock times of each interval's ends."""
    total = 0.0
    for lo, hi in sets.intervals:
        a, b = lo / drift, hi / drift
        total += rho.interval_mass(min(a, b), max(a, b))
    return MixResult(total, 1e-15 * total)


def _mix_over_sets(mu, rho, cells, interval_mass):
    """One MixResult per interval set of cells: the mu^s masses of the
    non-empty sets, interval_mass(s, lo, hi) summed over each set's
    intervals, as one (n, k) block integrated against rho; an empty set's
    mass is 0.  The set nearest 0, at distance d, gives the small_s_bound
    that certifies the lower cut for every column."""
    out = [MixResult(0.0, 0.0)] * len(cells)
    live = [k for k, sets in enumerate(cells) if sets.intervals]
    if not live:
        return out
    d = min(cells[k].distance_from_zero for k in live)
    if d <= 0.0 and math.isinf(rho.total_mass()):
        raise DomainError("interval sets touching 0 need a finite mixing measure")
    bound = small_s_bound(mu, d) if d > 0.0 else None
    lo, hi = np.array([interval for k in live for interval in cells[k].intervals]).T
    starts = np.cumsum([0] + [len(cells[k].intervals) for k in live[:-1]])
    fn = lambda s: np.add.reduceat(interval_mass(s[:, None], lo, hi), starts, axis=1)
    value, err, _ = integrate_rho(rho, fn, linear_bound=bound)
    for k, v, e in zip(live, value, err):
        out[k] = MixResult(max(float(v), 0.0), float(e))
    return out


def phi_mix_mass(mu: LevyTriplet, rho: LevyMeasure, cells) -> list:
    """Masses of the mixed measure integral mu^s(.) rho(ds) on a sequence of
    interval sets, one MixResult per set, each with its own value and error
    estimate.

    A density clock integrates all the sets as one block of targets on
    shared panels (see _mix_over_sets), except under a delta base, whose
    pushforward is exact per set; an atom clock sums each column of the
    law's closed masses on its own, at x = v s for a delta(v) base, the same
    bits as a one-set call.  A zero clock mixes nothing, for any base: every
    set has mass exactly 0."""
    if not rho.is_positive():
        raise DomainError("the mixing measure must live on (0, inf)")
    cells = tuple(cells)
    if rho.is_zero():
        return [MixResult(0.0, 0.0)] * len(cells)
    law = mixable_law(mu)
    if mu.is_degenerate() and rho.fixed_rule() is None:
        # a delta base under a density clock: a pushforward, defined for any
        # positive jump measure; its mass jumps where a cell ends at v s
        return [_delta_pushforward_mass(mu.drift, rho, sets) for sets in cells]
    _validate_mixing_measure(rho)
    return _mix_over_sets(mu, rho, cells, law.interval_mass)


def phi_mix_density_gamma(rate: float, rho: LevyMeasure, x: float) -> float:
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
        return np.exp(s * log_rx - scipy.special.gammaln(s))

    # 1/Gamma(s) ~ s near 0, so |fn| <= 1.2 s for floors below 1e-8.
    return math.exp(-rate * x) / x * integrate_rho(rho, fn, linear_bound=1.2)[0]


@dataclass(frozen=True)
class StableMixEvaluator:
    """Interval masses of the mix with a strictly stable base law.

    Uses the scaling identity: mu^s(A) is mu evaluated on s**(-1/alpha) A, so
    the mix is a multiplicative smearing of the pushforward of rho under
    s -> s**(1/alpha) against one reference CDF; no per-s convolution powers.
    The base, alpha and rho are checked once, at construction.
    """

    mu: LevyTriplet
    alpha: float
    rho: LevyMeasure

    def __post_init__(self):
        mixable_law(self.mu).require_stable(self.alpha)
        _validate_mixing_measure(self.rho)
        if not self.rho.image_in_ml1(self.alpha):
            raise DomainError(
                "the image of rho under s -> s**(1/alpha) must integrate (1 and t)"
            )

    def mass(self, cells) -> list:
        """One MixResult per interval set of cells, integrated as one block."""
        law, inv = self.mu.law, 1.0 / self.alpha

        def interval_mass(s, lo, hi):
            scale = s**-inv
            return np.maximum(law.cdf(1.0, hi * scale) - law.cdf(1.0, lo * scale), 0.0)

        return _mix_over_sets(self.mu, self.rho, tuple(cells), interval_mass)


def phi_mix_stable(mu: LevyTriplet, alpha: float, rho: LevyMeasure) -> StableMixEvaluator:
    """Evaluator for mixing a strictly alpha-stable base law with rho."""
    return StableMixEvaluator(mu, alpha, rho)


def mixing_cf(mu: LevyTriplet, rho: LevyMeasure, theta: float) -> complex:
    """Characteristic transform of the mixed measure for finite rho.

    Equals the integral of exp(s * log_cf_mu(theta)) rho(ds); this identity
    needs rho to have finite total mass.
    """
    _validate_mixing_measure(rho)
    if math.isinf(rho.total_mass()):
        raise DomainError("the transform identity needs a finite mixing measure")
    phi = char_exponent(mu, theta)
    return integrate_rho(rho, lambda s: np.exp(s * phi))[0]


def small_s_ratio(mu: LevyTriplet, s: float) -> float:
    """(1/s) integral (1 and x^2) d mu^s; tends to the lemma constant."""
    if s <= 0:
        raise DomainError("s must be > 0")
    if mu.is_degenerate():
        raise DomainError("the base law must be non-degenerate")
    return mixable_law(mu).small_s_ratio(s)
