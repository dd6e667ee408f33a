"""Triplet and characteristic-exponent maps for subordinated laws.

Two independent evaluation routes are kept deliberately separate: composing
the base log-CF with the time-change Laplace exponent, and assembling the
subordinated triplet and pushing it through its own jump-integral
quadrature.  Tests compare the two; nothing here shares intermediate
results between them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .core import (
    AtomicMeasure,
    LevyTriplet,
    SubordinatorPair,
    TruncationConvention,
    ZERO_MEASURE,
    _MAX_COUNTS,
    char_exponent,
    laplace_exponent,
)
from .errors import DomainError, QuadratureFailure, UnsupportedFamily
from .mixing import (
    MixResult,
    integrate_rho,
    lemma_constant,
    phi_mix_mass,
    rho_quad_nodes,
)

_X_FLOOR = 1e-9
# The tail search refuses a light-tailed law past _X_HI_MAX and stops a
# heavy-tailed one below _X_HI_HEAVY, about 70 panels out.
_X_HI_MAX = 1e6
_X_HI_HEAVY = 1e12
# The two routes' release tolerance, for the bound on a heavy tail.
_RELEASE_TOL = 1e-6
# The atoms route integrates its Poisson counts in blocks of columns.
_COUNT_BLOCK = 64

# On (1, x_hi] the mixed density is carried by Chebyshev panels [1, 1.5,
# 1.5^2, ..., x_hi], each the series through 24 Chebyshev points, checked
# against the kernel at 4 points between them.
_PANEL_RATIO = 1.5
_CHEB = -np.cos(np.pi * np.arange(24) / 23)
# values at _CHEB -> coefficients of the series through them: T_k are
# discretely orthogonal on these points with the end terms halved
_TO_SERIES = np.polynomial.chebyshev.chebvander(_CHEB, 23).T * (2.0 / 23.0)
_TO_SERIES[:, [0, -1]] *= 0.5
_TO_SERIES[[0, -1], :] *= 0.5
_CHECK = -np.cos(np.pi * (np.array([0, 7, 15, 22]) + 0.5) / 23)
_PANEL_POINTS = np.concatenate([_CHEB, _CHECK])
# A panel is accepted when its interpolant misses every check point by at
# most _PANEL_TOL of the panel's max |f|.  A missing panel is bisected if its
# miss is at most _MIN_GAIN of its parent's (a first panel's parent misses by
# 1): a bisection that gains less is not converging, as where the s-rule
# leaves the density wiggly, and the panel falls back to at most _MAX_PIECES
# unchecked pieces of width up to _FALLBACK_WIDTH (_on_checked_panels).
_PANEL_TOL = 1e-14
_MIN_GAIN = 1e-3
_FALLBACK_WIDTH = 0.5
_MAX_PIECES = 100_000
# Each panel's series q is integrated exactly against e^{i theta x}: where
# omega = |theta| * half-width is below _OMEGA_SWITCH by a _GAUSS_POINTS-point
# Gauss-Legendre sum, whose remainder on q(t) e^{i omega t} is below 1e-20 at
# degree 23, and above it by parts (_by_parts), which does not cancel there.
_OMEGA_SWITCH = 24.0
_GAUSS_POINTS = 64
# (box, start) pairs one step of the seed-field disjointness sweep holds.
_SWEEP_BLOCK = 1 << 16


def compose_cf(base: LevyTriplet, pair: SubordinatorPair, theta):
    """Log-CF of the subordinated law: time-change exponent of the base exponent.

    theta may be a scalar or an array, as for char_exponent.
    """
    return laplace_exponent(pair, char_exponent(base, theta))


def _char_weights(theta: float, xs: np.ndarray) -> np.ndarray:
    """exp(i theta x) - 1 - i theta tau(x) with the standard truncation; the
    real part as -2 sin^2(theta x / 2), which does not cancel near x = 0."""
    tx = theta * xs
    half = np.sin(0.5 * tx)
    return -2.0 * half * half + 1j * (np.sin(tx) - np.where(np.abs(xs) <= 1.0, tx, 0.0))


@functools.cache
def _panel_rules():
    """Built on first use: the _GAUSS_POINTS-point Gauss-Legendre rule and
    T_0..T_23 at its nodes; (n, k) matrices of T_k^(n)(1) = prod_{j < n}
    (k^2 - j^2) / (2j + 1) and T_k^(n)(-1) = (-1)^(k + n) T_k^(n)(1); the 16
    Gauss points and the map from values there to the series through them."""
    t, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    k, j = np.arange(24.0), np.arange(23.0)[:, None]
    at_one = np.vstack([np.ones(24), np.cumprod((k * k - j * j) / (2.0 * j + 1.0), axis=0)])
    at_minus_one = at_one * (-1.0) ** (k + np.arange(24.0)[:, None])
    gauss16 = quadrature.panel_nodes(np.array([-1.0, 1.0]))[0]
    to_series16 = np.linalg.inv(np.polynomial.chebyshev.chebvander(gauss16, 15))
    return t, w, np.polynomial.chebyshev.chebvander(t, 23), at_one, at_minus_one, gauss16, to_series16


def _on_checked_panels(f, edges):
    """(lo, hi, series): the panels that carry f on [edges[0], edges[-1]],
    with the 24 Chebyshev coefficients of f on each.

    Each panel between two edges takes the series through f at its 24
    Chebyshev points and is accepted where it meets f at 4 check points.  A
    refused panel is bisected; one that bisection does not mend falls back
    to pieces at most _FALLBACK_WIDTH wide, each with the unchecked degree-15
    series through f at its 16 Gauss points.  f is called once per level of
    bisection and once for all the pieces."""
    lo, hi = edges[:-1], edges[1:]
    parent_miss = np.ones(lo.size)
    kept, refused = [], []
    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = f((mid[:, None] + half[:, None] * _PANEL_POINTS).ravel()).reshape(lo.size, -1)
        coeffs = np.einsum("kj,pj->pk", _TO_SERIES, values[:, :_CHEB.size])
        checked = values[:, _CHEB.size:]
        miss = np.abs(np.polynomial.chebyshev.chebval(_CHECK, coeffs.T) - checked).max(axis=1)
        scale = np.abs(values).max(axis=1)
        miss /= np.where(scale > 0.0, scale, 1.0)
        ok = miss <= _PANEL_TOL
        split = ~ok & (miss <= _MIN_GAIN * parent_miss)
        kept.append((lo[ok], hi[ok], coeffs[ok]))
        refused += zip(lo[~ok & ~split], hi[~ok & ~split])
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        parent_miss = np.tile(miss[split], 2)
    counts = [math.ceil((b - a) / _FALLBACK_WIDTH) for a, b in refused]
    if sum(counts) > _MAX_PIECES:
        raise QuadratureFailure(f"the x-grid's refused panels need {sum(counts)} pieces, over {_MAX_PIECES}")
    if refused:
        cuts = [np.linspace(a, b, n + 1) for (a, b), n in zip(refused, counts)]
        lo, hi = np.concatenate([c[:-1] for c in cuts]), np.concatenate([c[1:] for c in cuts])
        *_, gauss16, to_series16 = _panel_rules()
        values = f((0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * gauss16).ravel())
        coeffs = np.zeros((lo.size, 24))
        coeffs[:, :16] = np.einsum("kj,pj->pk", to_series16, values.reshape(lo.size, 16))
        kept.append((lo, hi, coeffs))
    return tuple(np.concatenate(part) for part in zip(*kept))


def _light_cut(tail_masses, heavy: bool):
    """(x_hi, masses): the first x_hi = 2 * 1.5^k at which every side's
    mixed tail mass, listed by tail_masses(x), is below 1e-14, found before
    any grid exists.  A light tail is refused past 1e6; a heavy one stops at
    the last x_hi below 1e12 and returns the masses left out there."""
    x_hi, cap = 2.0, _X_HI_HEAVY if heavy else _X_HI_MAX
    while max(masses := tail_masses(x_hi)) >= 1e-14 and x_hi * 1.5 <= cap:
        x_hi *= 1.5
    if max(masses) >= 1e-14 and not heavy:
        raise QuadratureFailure(f"mixed density tail still above 1e-14 beyond x = {_X_HI_MAX:g}")
    return x_hi, masses


def _by_parts(phi, lo, hi, d_hi, d_lo):
    """The integral of q e^{i phi x} over each panel [lo, hi] of half-width h,
    q its series with derivatives d_hi and d_lo (n = 0..23) at its ends:
    h sum_n (-1)^n [q^(n) e^{i phi x}]_lo^hi / (i phi h)^(n+1), exact."""
    half = 0.5 * (hi - lo)
    r = 1.0 / (1j * phi * half)
    powers = np.cumprod(np.repeat(-r[:, None], 23, axis=1), axis=1)
    at = lambda d: r * (d[:, 0] + (d[:, 1:] * powers).sum(axis=1))
    return half * (np.exp(1j * phi * hi) * at(d_hi) - np.exp(1j * phi * lo) * at(d_lo))


class JumpMixEvaluator:
    """Jump measure of a subordinated law: beta0 * nu plus the mixed part.

    Interval masses are evaluated on demand; the Levy-Khintchine jump
    integral is evaluated on a cached theta-free grid of the mixed measure
    (the mixed density, or the image of rho under s -> v s for a delta
    base), or by an exact sum where the mix is discrete, entirely
    independent of exponent composition.
    """

    def __init__(self, base: LevyTriplet, pair: SubordinatorPair):
        self.base = base
        self.pair = pair
        self.drift_part = (
            base.jumps.scaled(pair.drift) if pair.drift != 0.0 else ZERO_MEASURE
        )
        self._atoms = None
        self._grid_cache = None
        if pair.jumps.is_zero():
            self._mode = "zero"
        elif base.law is None:
            raise UnsupportedFamily(
                "mixing the jump measure needs a law-tagged base triplet"
            )
        else:
            self._mode = base.law.mix_route

    # -- interval masses ---------------------------------------------------

    def mass(self, cells) -> list:
        """One MixResult per interval set of cells: the mixed part from one
        phi_mix_mass call for all of them, plus the drift part's mass."""
        cells = tuple(cells)
        if self._mode == "zero":
            mixes = [MixResult(0.0, 0.0, 0.0)] * len(cells)
        else:
            mixes = phi_mix_mass(self.base, self.pair.jumps, cells)
        out = []
        for sets, mix in zip(cells, mixes):
            drift = sum(self.drift_part.interval_mass(lo, hi) for lo, hi in sets.intervals)
            out.append(MixResult(drift + mix.value, mix.abs_error_estimate, mix.truncation_point))
        return out

    # -- Levy-Khintchine jump integral -------------------------------------

    def char_integral(self, theta: float) -> complex:
        """The jump integral at theta: the drift part's closed form plus the
        mixed part, summed over its atoms, by a rule clock's own rule, or on
        the grid, whose one build serves every theta.

        On the grid, the nodes of |x| <= 1 and the Gauss points of the panels
        with |theta| * half-width below _OMEGA_SWITCH make one sum, its real
        part -2 sum w sin^2(theta x / 2), which does not cancel near x = 0, in
        numpy's pairwise order, which no BLAS thread count moves.  The other
        panels sum by parts.  A heavy tail's masses past x_hi are subtracted;
        the rest is at most the mass and, for a density decreasing past x_hi,
        2 sqrt 2 f(x_hi) / |theta|, refused above the release tolerance."""
        base_part = 0.0 + 0.0j
        if not self.drift_part.is_zero():
            carrier = LevyTriplet(0.0, 0.0, self.drift_part)
            base_part = char_exponent(carrier, theta)
        if self._mode == "zero" or theta == 0.0:
            return base_part
        if self._mode == "atomic":
            positions, masses = self._poisson_atoms()
            return base_part + complex((masses * _char_weights(theta, positions)).sum())
        if self._mode == "pushforward" and self.pair.jumps.fixed_rule() is not None:
            return base_part + self._pushforward_integral(theta)
        xs, w, n_log, inner_moment, real, (lo, hi, mass, d_hi, d_lo), (x_hi, tail_mass, tail_f) = self._grid()
        n = int(np.searchsorted(0.5 * (hi - lo), _OMEGA_SWITCH / abs(theta)))
        end = n_log + n * _GAUSS_POINTS
        tx = theta * xs[:end]
        half_sin = np.sin(0.5 * tx)
        far = (_by_parts(theta, lo[n:], hi[n:], d_hi[n:], d_lo[n:]) - mass[n:]).sum()
        value = -2.0 * (w[:end] * half_sin * half_sin).sum() + far.real - tail_mass.sum()
        if not real:
            value += 1j * ((w[:end] * np.sin(tx)).sum() - theta * inner_moment + far.imag)
        bound = np.minimum(tail_mass, 2.0 * math.sqrt(2.0) * tail_f / abs(theta)).sum()
        if bound > _RELEASE_TOL * max(1.0, abs(value)):
            raise QuadratureFailure(f"the tail past x = {x_hi:.3g} is bounded only by {bound:.3g} "
                                    f"at theta = {theta:.3g}")
        return base_part + complex(value)

    def _pushforward_integral(self, theta: float) -> complex:
        # A clock with its own rule (atoms, tabulated) sums the image of its
        # nodes under s -> speed * s by that rule, cut where the compensator
        # jumps.
        speed = self.base.law.drift
        fn = lambda s: _char_weights(theta, speed * s)
        return complex(integrate_rho(self.pair.jumps, fn, tol=1e-12, cuts=(_unit_crossing(speed),))[0])

    def _poisson_atoms(self):
        if self._atoms is not None:
            return self._atoms
        law, rho = self.base.law, self.pair.jumps
        mean_cap = law.rate * rho.tail_cutoff(1e-16)
        need = mean_cap + 12.0 * math.sqrt(mean_cap) + 30.0
        if not need <= _MAX_COUNTS:
            raise QuadratureFailure(f"the Poisson mix needs {need:.3g} jump counts, over {_MAX_COUNTS}")
        ks = np.arange(1.0, max(20, math.ceil(need)) + 1.0)
        # each P(K = k), k >= 1, is at most rate s: the small-s bound
        masses = [
            integrate_rho(rho, lambda s: law.pmf(s, block), tol=1e-14, linear_bound=law.rate)[0]
            for block in np.split(ks, np.arange(_COUNT_BLOCK, ks.size, _COUNT_BLOCK))
        ]
        self._atoms = (law.jump_size * ks, np.concatenate(masses))
        return self._atoms

    def _grid(self):
        """(xs, w, n_log, inner_moment, real, panels, tail), built on the first
        call and kept in _grid_cache: one build serves every theta.

        The mixed density (rho(x / |v|) / |v| for a delta(v) base; x > 0 only,
        counted twice, for an even law, which sets real) is evaluated at the
        n_log log-spaced nodes xs of 0 < |x| <= 1, weights w, and carried by
        checked Chebyshev panels on 1 < |x| <= x_hi (_on_checked_panels), so
        that the compensator's jump at |x| = 1 falls on an edge.  x_hi is the
        cut of _light_cut; an atom clock's panels are also cut at each atom's
        mean and mean +- 8 sd of mu^s.  xs and w go on with each panel's Gauss
        points, in order of half-width; panels are (lo, hi, mass, d_hi, d_lo),
        the last two each series' derivatives at its ends; tail is x_hi, the
        heavy tail masses past it and the density there, per side."""
        if self._grid_cache is not None:
            return self._grid_cache
        law, rho = self.base.law, self.pair.jumps
        cuts, weight = np.empty(0), 2.0 if law.even else 1.0
        if self._mode == "pushforward":
            v = law.drift
            kernel = lambda x: rho.density(x / v) / abs(v)
            sides = (math.copysign(1.0, v),)
            tail_mass = lambda side, x: rho.mass_above(x / abs(v))
        else:
            s_nodes, s_weights = rho_quad_nodes(rho)
            kernel = lambda x: law.mixed_density(x, s_nodes, s_weights)
            sides = (1,) if law.even else law.sides
            # for a law on x > 0, cdf(s, -x) is 0
            tail_mass = lambda side, x: (s_weights * (law.sf(s_nodes, x) if side > 0 else law.cdf(s_nodes, -x))).sum()
            spread = law.mean_sd(s_nodes) if isinstance(rho, AtomicMeasure) else None
            if spread is not None:
                cuts = (spread[0] + np.outer([-8.0, 0.0, 8.0], spread[1])).ravel()
        x_hi, masses = _light_cut(lambda x: [tail_mass(side, x) for side in sides], law.heavy_tail)
        edges = [1.0]
        while edges[-1] * _PANEL_RATIO < x_hi:
            edges.append(edges[-1] * _PANEL_RATIO)
        u_nodes, u_w = quadrature.panel_nodes(quadrature.log_panel_edges(_X_FLOOR, 1.0, max_width=0.7))
        f = lambda x: weight * kernel(x)
        nodes, panels = [], []
        for side in sides:
            xs = side * np.exp(u_nodes)
            nodes.append((xs, u_w * np.abs(xs) * f(xs)))
            bounds = np.concatenate([edges, [x_hi], side * cuts])
            bounds = np.sort(side * bounds[(bounds >= 1.0) & (bounds <= x_hi)])
            panels.append(_on_checked_panels(f, bounds[np.diff(bounds, prepend=-np.inf) > 0]))
        xs, w = (np.concatenate(part) for part in zip(*nodes))
        lo, hi, coeffs = (np.concatenate(part) for part in zip(*panels))
        # a panel whose series is 0 adds nothing
        keep = np.flatnonzero(coeffs.any(axis=1))
        keep = keep[np.argsort((hi - lo)[keep], kind="stable")]
        lo, hi, coeffs = lo[keep], hi[keep], coeffs[keep]
        t, w_gauss, cheb_at_gauss, at_one, at_minus_one, *_ = _panel_rules()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        gauss = half[:, None] * w_gauss * np.einsum("pk,gk->pg", coeffs, cheb_at_gauss)
        derivs = (np.einsum("pk,nk->pn", coeffs, at) for at in (at_one, at_minus_one))
        tail_mass = weight * np.array(masses) if law.heavy_tail else np.zeros(len(sides))
        self._grid_cache = (
            np.concatenate([xs, (mid[:, None] + half[:, None] * t).ravel()]), np.concatenate([w, gauss.ravel()]),
            xs.size, (w * xs).sum(), law.even, (lo, hi, gauss.sum(axis=1), *derivs),
            (x_hi, tail_mass, f(x_hi * np.array(sides))),
        )
        return self._grid_cache


@dataclass(frozen=True)
class SubordinatedTriplet:
    """Characteristic triplet of the subordinated law, standard truncation."""

    gamma_bar: float
    b_bar: float
    jumps: JumpMixEvaluator


def _unit_crossing(speed: float) -> float:
    """The largest float s with |speed * s| <= 1 in float arithmetic, about
    1/|speed|: the clock times at which a delta(speed) base stays inside
    |x| <= 1, where its truncated mean and the compensator count x, are
    exactly the s <= it, an atom one ulp past 1/|speed| included."""
    v = abs(speed)
    s = 1.0 / v
    while v * s > 1.0:
        s = math.nextafter(s, 0.0)
    while v * math.nextafter(s, math.inf) <= 1.0:
        s = math.nextafter(s, math.inf)
    return s


def _mixing_drift_term(base: LevyTriplet, pair: SubordinatorPair) -> float:
    """Integral over rho of the truncated mean of mu^s.

    A delta(v) base's truncated mean v s 1{|v s| <= 1} jumps at s = 1/|v|;
    its integral is v times the clock's truncated first moment up to there,
    which every clock family has in closed form.  Other laws' truncated
    means are continuous in s and integrated by integrate_rho."""
    if base.law.mix_route == "pushforward":
        v = base.law.drift
        return v * pair.jumps.truncated_moment(1, _unit_crossing(v))
    fn = base.law.truncated_mean
    bound = 1.0 + 2.0 * (abs(base.drift) + lemma_constant(base))
    value, err, _ = integrate_rho(pair.jumps, fn, tol=1e-12, linear_bound=bound)
    if err > 1e-6 * max(1.0, abs(value)):
        raise QuadratureFailure(f"drift mixing integral error estimate {err:.3e}")
    return value


def subordinate_triplet(base: LevyTriplet, pair: SubordinatorPair) -> SubordinatedTriplet:
    """Characteristic triplet of the base process run on the subordinator clock."""
    if base.convention is not TruncationConvention.STANDARD:
        raise DomainError("the base triplet must use the standard truncation")
    gamma_bar = base.drift * pair.drift
    if not pair.jumps.is_zero():
        if base.law is None:
            raise UnsupportedFamily(
                "subordinating with jumps needs a law-tagged base triplet"
            )
        # the pair's jumps are positive and of finite variation by construction
        if base.is_degenerate() and base.drift == 0.0:
            raise DomainError("a degenerate base at 0 is outside the mixing domain")
        gamma_bar += _mixing_drift_term(base, pair)
    b_bar = base.gaussian_var * pair.drift
    return SubordinatedTriplet(gamma_bar, b_bar, JumpMixEvaluator(base, pair))


def cf_from_triplet(st: SubordinatedTriplet, theta: float) -> complex:
    """Log-CF reassembled from the subordinated triplet's own pieces."""
    value = 1j * theta * st.gamma_bar - 0.5 * st.b_bar * theta * theta
    return value + st.jumps.char_integral(theta)


# ---------------------------------------------------------------------------
# Piecewise-constant seed fields on rectangles.


@dataclass(frozen=True)
class SeedCell:
    """Axis-aligned half-open box with one subordinator seed and a weight."""

    rect: tuple  # ((lo, hi),) in 1-D or ((lo, hi), (lo, hi)) in 2-D
    pair: SubordinatorPair
    weight: float = 1.0

    def __post_init__(self):
        rect = tuple((float(lo), float(hi)) for lo, hi in self.rect)
        if len(rect) not in (1, 2):
            raise DomainError("cells live in dimension 1 or 2")
        for lo, hi in rect:
            if not hi > lo:
                raise DomainError(f"degenerate cell edge ({lo}, {hi})")
        if not self.weight > 0:
            raise DomainError("cell weight must be > 0")
        object.__setattr__(self, "rect", rect)

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in self.rect:
            v *= hi - lo
        return v

    @property
    def control_mass(self) -> float:
        return self.weight * self.volume


@dataclass(frozen=True)
class SeedField:
    cells: tuple

    def __post_init__(self):
        cells = tuple(self.cells)
        if not cells:
            raise DomainError("a seed field needs at least one cell")
        dims = {len(c.rect) for c in cells}
        if len(dims) != 1:
            raise DomainError("all cells must share one dimension")
        rects = np.array([c.rect for c in cells])  # (cell, axis, lo/hi)
        if rects.shape[1] == 1:
            # on a line every cell is alive at the one start of a dummy first axis
            rects = np.concatenate([np.broadcast_to([[0.0, 1.0]], rects.shape), rects], axis=1)
        if not _boxes_disjoint(rects):
            raise DomainError("cell rectangles must be disjoint")
        object.__setattr__(self, "cells", cells)


def _boxes_disjoint(rects: np.ndarray) -> bool:
    """Whether the half-open boxes rects[i] = ((lo, hi), (lo, hi)) are pairwise disjoint.

    Two boxes that meet are both alive (lo <= x < hi on the first axis) at
    the larger of their first-axis starts.  So at each distinct start, the
    alive boxes sorted by second-axis start must each end by the next one's
    start.  The sweep takes the starts in blocks of about _SWEEP_BLOCK
    (box, start) pairs."""
    # the distinct starts; np.unique would import numpy.ma (1.3 MiB) here
    starts = np.sort(rects[:, 0, 0])
    starts = starts[np.concatenate([[True], starts[1:] > starts[:-1]])]
    first = np.searchsorted(starts, rects[:, 0, 0])
    stop = np.searchsorted(starts, rects[:, 0, 1])  # alive at starts[first:stop]
    n = starts.size
    alive = np.cumsum(np.bincount(first, minlength=n) - np.bincount(stop, minlength=n + 1)[:n])
    before = np.concatenate([[0], np.cumsum(alive)])  # pairs at the starts before each
    y_lo, y_hi = rects[:, 1, 0], rects[:, 1, 1]
    g0 = 0
    while g0 < n:
        g1 = max(g0 + 1, int(np.searchsorted(before, before[g0] + _SWEEP_BLOCK, side="right")) - 1)
        box = np.nonzero((first < g1) & (stop > g0))[0]
        lo = np.maximum(first[box], g0)
        count = np.minimum(stop[box], g1) - lo
        box = np.repeat(box, count)
        at = np.arange(box.size) - np.repeat(np.cumsum(count) - count - lo, count)
        order = np.lexsort((y_lo[box], at))
        box, at = box[order], at[order]
        if np.any((at[1:] == at[:-1]) & (y_hi[box[:-1]] > y_lo[box[1:]])):
            return False
        g0 = g1
    return True


def cell_log_cf(base: LevyTriplet, cell: SeedCell, theta: float) -> complex:
    """Log-CF of the basis value on one cell: control mass times the seed exponent."""
    return cell.control_mass * compose_cf(base, cell.pair, theta)
