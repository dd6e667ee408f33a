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
    LevyMeasure,
    LevyTriplet,
    char_exponent,
)
from .errors import DomainError, QuadratureFailure, UnsupportedFamily


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


def phi_mix_mass(mu: LevyTriplet, rho: LevyMeasure, cells) -> list:
    """Masses of the mixed measure integral mu^s(.) rho(ds) on a sequence of
    half-open intervals (lo, hi], one MixResult per interval, each with its
    own value and error estimate; a union's mass is the sum of its
    intervals' masses.

    A density clock integrates the mu^s masses of all the intervals as one
    (n, k) block of targets on shared panels, except under a delta(v) base,
    whose pushforward is exact: the clock's mass between the times lo/v and
    hi/v; an atom clock sums each column of the law's closed masses on its
    own, at x = v s for a delta(v) base, the same bits as a one-interval
    call.  The interval nearest 0, at distance d, gives the small_s_bound
    that certifies the lower cut for every column.  An interval touching 0
    needs a finite clock, and a zero clock mixes nothing, for any base:
    every interval has mass exactly 0."""
    if not rho.is_positive():
        raise DomainError("the mixing measure must live on (0, inf)")
    cells = [(float(lo), float(hi)) for lo, hi in cells]
    for lo, hi in cells:
        if not hi > lo:
            raise DomainError(f"interval ({lo}, {hi}] is empty")
        if lo < 0.0 <= hi:
            raise DomainError(f"interval ({lo}, {hi}] contains 0")
    if rho.is_zero():
        return [MixResult(0.0, 0.0)] * len(cells)
    law = mixable_law(mu)
    if mu.is_degenerate() and rho.fixed_rule() is None:
        # a delta base under a density clock: a pushforward, defined for any
        # positive jump measure; its mass jumps where a cell ends at v s
        masses = [rho.interval_mass(*sorted((lo / mu.drift, hi / mu.drift))) for lo, hi in cells]
        return [MixResult(m, 1e-15 * m) for m in masses]
    _validate_mixing_measure(rho)
    if not cells:
        return []
    lo, hi = np.array(cells).T
    d = float(np.min(np.where(lo >= 0.0, lo, -hi)))
    if d <= 0.0 and math.isinf(rho.total_mass()):
        raise DomainError("intervals touching 0 need a finite mixing measure")
    bound = small_s_bound(mu, d) if d > 0.0 else None
    value, err, _ = integrate_rho(rho, lambda s: law.interval_mass(s[:, None], lo, hi), linear_bound=bound)
    return [MixResult(max(float(v), 0.0), float(e)) for v, e in zip(value, err)]


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
