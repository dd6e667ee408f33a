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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (
    LevyTriplet,
    SubordinatorPair,
    TruncationConvention,
    ZERO_MEASURE,
    char_exponent,
    laplace_exponent,
)
from .errors import DomainError, QuadratureFailure
from .mixing import (
    MixResult,
    integrate_rho,
    lemma_constant,
    mixable_law,
    phi_mix_mass,
    small_s_bound,
)

_X_FLOOR = 1e-9
# The tail search refuses a light-tailed law past _X_HI_MAX (a delta base
# past _X_HI_HEAVY) and stops a heavy-tailed one below _X_HI_HEAVY, about 70
# panels out.
_X_HI_MAX = 1e6
_X_HI_HEAVY = 1e12
# The two routes' release tolerance, for the bound on a heavy tail.
_RELEASE_TOL = 1e-6
# The atoms route integrates at most _MAX_COUNTS Poisson counts, in blocks of columns.
_COUNT_BLOCK = 64
_MAX_COUNTS = 10_000

# Every piece of the x-grid is the series through the mixed density at its
# 24 Chebyshev points: _INNER_PIECES unchecked ones per side on geometric
# edges from _X_FLOOR to 1, and on (1, x_hi] panels [1, 1.5, 1.5^2, ...,
# x_hi], each checked against the kernel at 4 points between them.
_INNER_PIECES = 20
_PANEL_RATIO = 1.5
# Points of [_X_FLOOR, 1] whose mixed tail masses certify the s-rule (_grid).
_MASS_EDGES = 7
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
_FALLBACK_WIDTH = 0.75
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


@functools.cache
def _panel_rules():
    """Built on first use: the _GAUSS_POINTS-point Gauss-Legendre rule and
    T_0..T_23 at its nodes; (n, k) matrices of T_k^(n)(1) = prod_{j < n}
    (k^2 - j^2) / (2j + 1) and T_k^(n)(-1) = (-1)^(k + n) T_k^(n)(1)."""
    t, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    k, j = np.arange(24.0), np.arange(23.0)[:, None]
    at_one = np.vstack([np.ones(24), np.cumprod((k * k - j * j) / (2.0 * j + 1.0), axis=0)])
    at_minus_one = at_one * (-1.0) ** (k + np.arange(24.0)[:, None])
    return t, w, np.polynomial.chebyshev.chebvander(t, 23), at_one, at_minus_one


def _series(f, lo, hi, points=_CHEB):
    """(coeffs, values): f at points mapped onto each piece [lo, hi], and the
    series through the values at the first 24, the Chebyshev points _CHEB."""
    values = f((0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * points).ravel()).reshape(lo.size, -1)
    return np.einsum("kj,pj->pk", _TO_SERIES, values[:, :_CHEB.size]), values


def _on_checked_panels(f, edges):
    """(lo, hi, series): the panels that carry f on [edges[0], edges[-1]],
    with the 24 Chebyshev coefficients of f on each.

    Each panel between two edges takes the series through f at its 24
    Chebyshev points and is accepted where it meets f at 4 check points.  A
    refused panel is bisected; one that bisection does not mend falls back
    to unchecked pieces at most _FALLBACK_WIDTH wide, each the same series
    through f at its own 24 Chebyshev points.  f is called once per level of
    bisection and once for all the pieces."""
    lo, hi = edges[:-1], edges[1:]
    parent_miss = np.ones(lo.size)
    kept, refused = [], []
    while lo.size:
        coeffs, values = _series(f, lo, hi, _PANEL_POINTS)
        mid = 0.5 * (lo + hi)
        miss = np.abs(np.polynomial.chebyshev.chebval(_CHECK, coeffs.T) - values[:, _CHEB.size:]).max(axis=1)
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
        kept.append((lo, hi, _series(f, lo, hi)[0]))
    return tuple(np.concatenate(part) for part in zip(*kept))


def _light_cut(candidates, masses, heavy: bool):
    """(x_hi, masses[k]): the first x_hi = candidates[k] at which every
    side's mixed tail mass, listed in masses[k], is below 1e-14; masses
    may be an iterator, read up to that row.  A light tail is refused past
    the last candidate; a heavy one stops there and returns the masses
    left out past it."""
    for x_hi, row in zip(candidates, masses):
        if max(row) < 1e-14:
            return x_hi, row
    if not heavy:
        raise QuadratureFailure(f"mixed density tail still above 1e-14 beyond x = {x_hi:.3g}")
    return x_hi, row


def _by_parts(phi, lo, hi, d_hi, d_lo):
    """The integral of q e^{i phi x} over each panel [lo, hi] of half-width h,
    q its series with derivatives d_hi and d_lo (n = 0..23) at its ends:
    h sum_n (-1)^n [q^(n) e^{i phi x}]_lo^hi / (i phi h)^(n+1), exact."""
    half = 0.5 * (hi - lo)
    r = 1.0 / (1j * phi * half)
    powers = np.cumprod(np.repeat(-r[:, None], 23, axis=1), axis=1)
    at = lambda d: r * (d[:, 0] + (d[:, 1:] * powers).sum(axis=1))
    return half * (np.exp(1j * phi * hi) * at(d_hi) - np.exp(1j * phi * lo) * at(d_lo))


# The theta-free mixed jump measure of JumpMixEvaluator._grid: its n_atoms
# atoms ahead of its pieces' Gauss points in xs and w, inner_moment = sum w
# x over |x| <= 1, real for an even law; the pieces' lo, hi, half-widths,
# masses and series derivatives at hi and lo; x_hi, a heavy tail's masses
# past it (none for a light tail) and f there.
MixedJumps = namedtuple("MixedJumps", "xs w n_atoms inner_moment real lo hi half mass d_hi d_lo x_hi tail_mass tail_f")


class JumpMixEvaluator:
    """Jump measure of a subordinated law: beta0 * nu plus the mixed part.

    Interval masses are evaluated on demand; the Levy-Khintchine jump
    integral is evaluated on a cached theta-free record of the mixed
    measure, its atoms and the pieces of its density, entirely independent
    of exponent composition.
    """

    def __init__(self, base: LevyTriplet, pair: SubordinatorPair):
        self.base = base
        self.pair = pair
        self.drift_part = base.jumps.scaled(pair.drift) if pair.drift != 0.0 else ZERO_MEASURE
        self._grid_cache = None

    def mass(self, cells) -> list:
        """One MixResult per interval set of cells: the mixed part from one
        phi_mix_mass call for all of them, plus the drift part's mass."""
        cells = tuple(cells)
        mixes = phi_mix_mass(self.base, self.pair.jumps, cells)
        out = []
        for sets, mix in zip(cells, mixes):
            drift = sum(self.drift_part.interval_mass(lo, hi) for lo, hi in sets.intervals)
            out.append(MixResult(drift + mix.value, mix.abs_error_estimate))
        return out

    def char_integral(self, theta: float) -> complex:
        """The jump integral at theta: the drift part's closed form plus the
        mixed part on the record _grid builds once for every theta.

        The atoms and the Gauss points of the pieces with |theta| * half-width
        below _OMEGA_SWITCH make one sum, its real part -2 sum w sin^2(theta x
        / 2), which does not cancel near x = 0, in numpy's pairwise order,
        which no BLAS thread count moves; the other pieces sum by parts, and
        the compensator is -i theta inner_moment.  A heavy tail's masses past
        x_hi are subtracted; the rest is at most the mass and, for a density
        decreasing past x_hi, 2 sqrt 2 f(x_hi) / |theta|, refused above the
        release tolerance: the only refusal that depends on theta."""
        base_part = complex(self.drift_part.char_integral(theta, TruncationConvention.STANDARD))
        if self.pair.jumps.is_zero() or theta == 0.0:
            return base_part
        g = self._grid()
        n = int(np.searchsorted(g.half, _OMEGA_SWITCH / abs(theta)))
        end = g.n_atoms + n * _GAUSS_POINTS
        tx = theta * g.xs[:end]
        half_sin = np.sin(0.5 * tx)
        # on no pieces _by_parts would still cost about 13 us per theta
        far = (_by_parts(theta, g.lo[n:], g.hi[n:], g.d_hi[n:], g.d_lo[n:]) - g.mass[n:]).sum() if n < g.lo.size else 0j
        value = -2.0 * (g.w[:end] * half_sin * half_sin).sum() + far.real
        if not g.real:
            value += 1j * ((g.w[:end] * np.sin(tx)).sum() - theta * g.inner_moment + far.imag)
        if g.tail_mass.size:
            value -= g.tail_mass.sum()
            bound = np.minimum(g.tail_mass, 2.0 * math.sqrt(2.0) * g.tail_f / abs(theta)).sum()
            if bound > _RELEASE_TOL * max(1.0, abs(value)):
                raise QuadratureFailure(f"the tail past x = {g.x_hi:.3g} is bounded only by {bound:.3g} "
                                        f"at theta = {theta:.3g}")
        return base_part + complex(value)

    def _grid(self):
        """The MixedJumps record, built on the first call and kept in
        _grid_cache for every theta: a Poisson base's counts (a base whose
        jumps are atoms), a delta base's image of an atom clock, or else the
        mixed density's pieces."""
        if self._grid_cache is not None:
            return self._grid_cache
        jumps, empty = self.base.jumps, np.empty(0)
        atoms, pieces = (empty, empty), (empty, empty, np.empty((0, _CHEB.size)), math.inf, empty, empty)
        if not jumps.is_zero() and jumps.fixed_rule() is not None:
            atoms = self._poisson_atoms()
        elif self.base.is_degenerate() and (image := self._pushforward_integral()) is not None:
            atoms = image
        else:
            pieces = self._pieces()
        (x_atoms, w_atoms), (lo, hi, coeffs, x_hi, tail_mass, tail_f) = atoms, pieces
        t, w_gauss, cheb_at_gauss, at_one, at_minus_one = _panel_rules()
        half = 0.5 * (hi - lo)
        gauss = half[:, None] * w_gauss * np.einsum("pk,gk->pg", coeffs, cheb_at_gauss)
        xs = np.concatenate([x_atoms, (0.5 * (lo + hi)[:, None] + half[:, None] * t).ravel()])
        w = np.concatenate([w_atoms, gauss.ravel()])
        derivs = (np.einsum("pk,nk->pn", coeffs, at) for at in (at_one, at_minus_one))
        self._grid_cache = MixedJumps(xs, w, x_atoms.size, (w * xs)[np.abs(xs) <= 1.0].sum(), self.base.law.even,
                                      lo, hi, half, gauss.sum(axis=1), *derivs, x_hi, tail_mass, tail_f)
        return self._grid_cache

    def _pushforward_integral(self):
        """(x, w) of an atom clock under a delta(v) base, from the one
        fixed_rule call of a build: its atoms carried to x = v s, exact;
        None for any other clock, whose image is a density that _pieces
        carries.  The name is kept for bench/spans.py, which times the
        pushforward under it."""
        rule = self.pair.jumps.fixed_rule()
        if rule is None:
            return None
        s, w = rule
        return self.base.drift * s, w

    def _poisson_atoms(self):
        """(x, w) of a Poisson base: the positions k h of its counts k >= 1
        and their probabilities integrated against rho; h and the rate are
        the base's one atom."""
        (h,), (rate,) = self.base.jumps.fixed_rule()
        law, rho = self.base.law, self.pair.jumps
        mean_cap = rate * rho.tail_cutoff(1e-16)
        need = mean_cap + 12.0 * math.sqrt(mean_cap) + 30.0
        if not need <= _MAX_COUNTS:
            raise QuadratureFailure(f"the Poisson mix needs {need:.3g} jump counts, over {_MAX_COUNTS}")
        ks = np.arange(1.0, max(20, math.ceil(need)) + 1.0)
        # each P(K = k), k >= 1, is at most rate s: the small-s bound
        masses = [
            integrate_rho(rho, lambda s: law.pmf(s, block), tol=1e-14, linear_bound=rate)[0]
            for block in np.split(ks, np.arange(_COUNT_BLOCK, ks.size, _COUNT_BLOCK))
        ]
        return h * ks, np.concatenate(masses)

    def _pieces(self):
        """(lo, hi, coeffs, x_hi, tail_mass, tail_f): the pieces of the mixed
        density, in order of half-width, with their series, and the tail,
        whose masses are none for a light tail.

        The mixed density (rho(x / v) / |v| for a delta(v) base; x > 0 only,
        counted twice, for an even law) is carried by the unchecked pieces of
        0 < |x| <= 1 and the checked panels of 1 < |x| <= x_hi
        (_on_checked_panels), so that the compensator's jump at |x| = 1 falls
        on an edge.  Other bases sum density(s, x) over the s-rule that one
        integrate_rho call certifies for the mixed tail masses per side at
        _MASS_EDGES points of [_X_FLOOR, 1] and at each candidate x_hi = 2,
        3, 4.5, ... up to 1e6, or 1e12 for a heavy tail; _light_cut reads
        x_hi off those masses (for a delta base, rho.mass_above, up to the
        first below 1e-14, so that its candidates run to 1e12 as well).  The
        pieces are also cut at an atom clock's means and means +- 8 sd of
        mu^s, and at the images v b of the clock's break points b under a
        delta(v) base, keeping only those inside the image support.  Pieces
        whose series is 0 are left out."""
        law, rho = self.base.law, self.pair.jumps
        cuts, support, weight = np.empty(0), (-math.inf, math.inf), 2.0 if law.even else 1.0
        candidates, pushforward = [2.0], self.base.is_degenerate()
        while candidates[-1] * 1.5 <= (_X_HI_HEAVY if law.heavy_tail or pushforward else _X_HI_MAX):
            candidates.append(candidates[-1] * 1.5)
        if pushforward:
            v = self.base.drift
            kernel = lambda x: rho.density(x / v) / abs(v)
            sides = (math.copysign(1.0, v),)
            masses = ([rho.mass_above(x / abs(v))] for x in candidates)
            if rho.breaks:
                grid = np.asarray(rho.breaks)
                cuts = v * grid
                support = (cuts.min(), cuts.max())
                # a piece's end node x may round to an x / v just off the grid
                kernel = lambda x: rho.density(np.clip(x / v, grid[0], grid[-1])) / abs(v)
        else:
            sides = (1,) if law.even else law.sides
            xs = np.concatenate([np.geomspace(_X_FLOOR, 1.0, _MASS_EDGES), candidates])
            tails = lambda s: np.hstack([law.sf(s[:, None], xs) if side > 0 else law.cdf(s[:, None], -xs)
                                         for side in sides])
            value, _, (s_nodes, s_weights) = integrate_rho(rho, tails, tol=1e-14,
                                                           linear_bound=small_s_bound(self.base, _X_FLOOR))
            masses = value.reshape(len(sides), xs.size)[:, _MASS_EDGES:].T.tolist()
            kernel = lambda x: law.mixed_density(x, s_nodes, s_weights)
            spread = law.mean_sd(s_nodes) if rho.fixed_rule() is not None else None
            if spread is not None:
                cuts = (spread[0] + np.outer([-8.0, 0.0, 8.0], spread[1])).ravel()
        x_hi, masses = _light_cut(candidates, masses, law.heavy_tail)
        edges = [1.0]
        while edges[-1] * _PANEL_RATIO < x_hi:
            edges.append(edges[-1] * _PANEL_RATIO)
        inner = np.geomspace(_X_FLOOR, 1.0, _INNER_PIECES + 1)
        f = lambda x: weight * kernel(x)
        pieces = []
        for side in sides:
            at = side * cuts
            near = np.sort(side * np.union1d(inner, at[(at > _X_FLOOR) & (at < 1.0)]))
            pieces.append((near[:-1], near[1:], _series(f, near[:-1], near[1:])[0]))
            bounds = np.concatenate([edges, [x_hi], at])
            bounds = np.sort(side * bounds[(bounds >= 1.0) & (bounds <= x_hi)])
            pieces.append(_on_checked_panels(f, bounds[np.diff(bounds, prepend=-np.inf) > 0]))
        lo, hi, coeffs = (np.concatenate(part) for part in zip(*pieces))
        keep = np.flatnonzero(coeffs.any(axis=1) & (lo >= support[0]) & (hi <= support[1]))
        keep = keep[np.argsort((hi - lo)[keep], kind="stable")]
        tail_mass = weight * np.array(masses) if law.heavy_tail else np.empty(0)
        return lo[keep], hi[keep], coeffs[keep], x_hi, tail_mass, f(x_hi * np.array(sides))


@dataclass(frozen=True)
class SubordinatedTriplet:
    """Characteristic triplet of the subordinated law, standard truncation."""

    gamma_bar: float
    b_bar: float
    jumps: JumpMixEvaluator


def _mixing_drift_term(base: LevyTriplet, pair: SubordinatorPair) -> float:
    """Integral over rho of the truncated mean of mu^s.

    A delta(v) base's truncated mean v s 1{|v s| <= 1} jumps at s = 1/|v|;
    under a density clock its integral is v times the clock's truncated
    first moment up to there, which every density family has in closed
    form.  Other laws' truncated means are continuous in s and integrated
    by integrate_rho, which sums an atom clock exactly: a delta base's
    atoms at their own x = v s, as the compensator counts them."""
    if base.is_degenerate() and pair.jumps.fixed_rule() is None:
        v = base.drift
        return v * pair.jumps.truncated_moment(1, 1.0 / abs(v))
    fn = base.law.truncated_mean
    bound = 1.0 + 2.0 * (abs(base.drift) + lemma_constant(base))
    return integrate_rho(pair.jumps, fn, tol=1e-12, linear_bound=bound)[0]


def subordinate_triplet(base: LevyTriplet, pair: SubordinatorPair) -> SubordinatedTriplet:
    """Characteristic triplet of the base process run on the subordinator clock."""
    if base.convention is not TruncationConvention.STANDARD:
        raise DomainError("the base triplet must use the standard truncation")
    gamma_bar = base.drift * pair.drift
    if not pair.jumps.is_zero():
        # the pair's jumps are positive and of finite variation by construction
        mixable_law(base)
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
