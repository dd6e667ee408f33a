"""Triplet and characteristic-exponent maps for subordinated laws.

Two independent evaluation routes are kept deliberately separate: composing
the base log-CF with the time-change Laplace exponent, and assembling the
subordinated triplet and pushing it through its own jump-integral
quadrature.  Tests compare the two; nothing here shares intermediate
results between them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .core import (
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
_X_HI_MAX = 1e6
# The atoms route integrates its Poisson counts in blocks of columns.
_COUNT_BLOCK = 64
# Entries of one temporary of the x-grid build: 256 KiB of floats.
_BLOCK_ENTRIES = 32000

# On (1, x_hi] the x-nodes are spaced for e^{i theta x}, while the mixed
# density is smooth on the scale of x: it is interpolated there from panels
# [1, 1.5, 1.5^2, ..., x_hi] through 24 Chebyshev points each, and each panel
# is checked against the kernel at 4 points between them.  The interpolant
# is summed as a Chebyshev series by Clenshaw's recurrence, 7x faster on
# numpy vectors than the barycentric form of Berrut & Trefethen (2004).
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
# leaves the density wiggly, and the panel is evaluated at its own nodes.
_PANEL_TOL = 1e-14
_MIN_GAIN = 1e-3
# (box, start) pairs one step of the seed-field disjointness sweep holds.
_SWEEP_BLOCK = 1 << 16


def compose_cf(base: LevyTriplet, pair: SubordinatorPair, theta):
    """Log-CF of the subordinated law: time-change exponent of the base exponent.

    theta may be a scalar or an array, as for char_exponent.
    """
    return laplace_exponent(pair, char_exponent(base, theta))


def _char_weights(theta: float, xs: np.ndarray) -> np.ndarray:
    """exp(i theta x) - 1 - i theta tau(x) with the standard truncation."""
    out = np.exp(1j * theta * xs) - 1.0
    inside = np.abs(xs) <= 1.0
    out[inside] -= 1j * theta * xs[inside]
    return out


def _tail_correction(theta: float, x_hi: float, mass: float, f0: float,
                     f1: float, f2: float) -> complex:
    """Integral of (e^{i theta x} - 1) over (x_hi, inf) by parts, 3 terms."""
    if theta == 0.0:
        return 0.0 + 0.0j
    it = 1j * theta
    osc = cmath.exp(it * x_hi) * (-f0 / it + f1 / it**2 - f2 / it**3)
    return -mass + osc


def _chebyshev_sum(x, lo, hi, coeffs) -> np.ndarray:
    """At each x in [lo, hi], the Chebyshev series coeffs of [lo, hi].  The
    recurrence holds about 6 vectors of its block at once: blocks of 1/8 of
    _BLOCK_ENTRIES keep them within one block of the kernel."""
    out = np.empty(x.size)
    rows = _BLOCK_ENTRIES // 8
    for k in range(0, x.size, rows):
        t = (2.0 * x[k:k + rows] - (lo + hi)) / (hi - lo)
        out[k:k + rows] = np.polynomial.chebyshev.chebval(t, coeffs)
    return out


def _on_checked_panels(f, xs, x_hi) -> np.ndarray:
    """f at the sorted nodes xs in (0, x_hi]: evaluated at each node of (0, 1],
    interpolated from checked Chebyshev panels on (1, x_hi].

    A panel holding no more nodes than its Chebyshev and check points, or
    one that the check refuses and bisection does not mend, takes f at its
    own nodes.  f is called once per level of bisection and once for all the
    nodes it is evaluated at."""
    edges = [1.0]
    while edges[-1] * _PANEL_RATIO < x_hi:
        edges.append(edges[-1] * _PANEL_RATIO)
    lo, hi = np.array(edges), np.array(edges[1:] + [x_hi])
    parent_miss = np.ones(lo.size)
    kept = []  # (lo, hi, Chebyshev coefficients) of the accepted panels
    direct = [(0.0, 1.0)]  # the panels [lo, hi) evaluated at their nodes
    while lo.size:
        small = np.searchsorted(xs, hi) - np.searchsorted(xs, lo) <= _PANEL_POINTS.size
        direct += zip(lo[small], hi[small])
        lo, hi, parent_miss = lo[~small], hi[~small], parent_miss[~small]
        if not lo.size:
            break
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = f((mid[:, None] + half[:, None] * _PANEL_POINTS).ravel()).reshape(lo.size, -1)
        coeffs = np.einsum("kj,pj->pk", _TO_SERIES, values[:, :_CHEB.size])
        checked = values[:, _CHEB.size:]
        miss = np.abs(np.polynomial.chebyshev.chebval(_CHECK, coeffs.T) - checked).max(axis=1)
        scale = np.abs(values).max(axis=1)
        miss /= np.where(scale > 0.0, scale, 1.0)
        ok = miss <= _PANEL_TOL
        split = ~ok & (miss <= _MIN_GAIN * parent_miss)
        kept += zip(lo[ok], hi[ok], coeffs[ok])
        direct += zip(lo[~ok & ~split], hi[~ok & ~split])
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        parent_miss = np.tile(miss[split], 2)
    at_nodes = np.zeros(xs.size, dtype=bool)
    for a, b in direct:
        at_nodes[slice(*np.searchsorted(xs, (a, b)))] = True
    out = np.empty(xs.size)
    out[at_nodes] = f(xs[at_nodes])
    for a, b, coeffs in kept:
        first, end = np.searchsorted(xs, (a, b))
        out[first:end] = _chebyshev_sum(xs[first:end], a, b, coeffs)
    return out


def _light_cut(tail_mass) -> float:
    """First x_hi = 2 * 1.5^k whose tail mass is below 1e-14, checked before
    any grid exists: the panel count grows linearly with x_hi."""
    x_hi = 2.0
    while x_hi <= _X_HI_MAX:
        if tail_mass(x_hi) < 1e-14:
            return x_hi
        x_hi *= 1.5
    raise QuadratureFailure(
        f"mixed density tail still above 1e-14 beyond x = {_X_HI_MAX:g}"
    )


class JumpMixEvaluator:
    """Jump measure of a subordinated law: beta0 * nu plus the mixed part.

    Interval masses are evaluated on demand; the Levy-Khintchine jump
    integral is evaluated on a cached x-grid of the mixed measure (the mixed
    density, or the image of rho under s -> v s for a delta base), or by an
    exact sum where the mix is discrete, entirely independent of exponent
    composition.
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
        base_part = 0.0 + 0.0j
        if not self.drift_part.is_zero():
            carrier = LevyTriplet(0.0, 0.0, self.drift_part)
            base_part = char_exponent(carrier, theta)
        if self._mode == "zero" or theta == 0.0:
            return base_part
        if self._mode == "atomic":
            positions, masses = self._poisson_atoms()
            g = _char_weights(theta, positions)
            return base_part + complex(np.dot(masses, g))
        if self._mode == "pushforward" and self.pair.jumps.fixed_rule() is not None:
            return base_part + self._pushforward_integral(theta)
        # On x > 0 the even weights carry cos(theta x) - 1 and the odd ones
        # sin(theta x) - theta x 1{x <= 1}: the two sides of 0 in one sum.
        # numpy's pairwise sums: a BLAS dot splits a long sum between its
        # threads, and its last bits move with their number
        xs, even, odd, even_sum, inner_odd_moment, tail = self._grid(abs(theta))
        tx = theta * xs
        value = base_part + ((even * np.cos(tx)).sum() - even_sum)
        if odd is not None:
            value += 1j * ((odd * np.sin(tx)).sum() - theta * inner_odd_moment)
        if tail is not None:
            x_hi, mass, f0, f1, f2, sides = tail
            value += _tail_correction(theta, x_hi, mass, f0, f1, f2)
            if sides == 2:
                value += _tail_correction(-theta, x_hi, mass, f0, f1, f2)
        return complex(value)

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

    def _x_panels(self, theta_max: float, x_hi: float):
        # (0, 1]: panels in log x; integrating in u = log x adds a factor x.
        u_nodes, u_w = quadrature.panel_nodes(quadrature.log_panel_edges(_X_FLOOR, 1.0, max_width=0.7))
        xs_log = np.exp(u_nodes)
        w_log = u_w * xs_log
        # (1, x_hi]: linear panels narrow enough for the target oscillation.
        width = min(0.5, 8.0 / max(theta_max, 1e-9))
        n_lin = int(math.ceil((x_hi - 1.0) / width))
        xs_lin, w_lin = quadrature.panel_nodes(np.linspace(1.0, x_hi, n_lin + 1))
        return np.concatenate([xs_log, xs_lin]), np.concatenate([w_log, w_lin])

    def _mixed_density(self, xs: np.ndarray, s_nodes, s_weights) -> np.ndarray:
        """The s-rule sum of mu^s densities at each x: the only place the x-grid
        evaluates the kernel.  Blocks of x rows against every s-node hold
        _BLOCK_ENTRIES entries; 1e5-entry blocks ran 3x slower where the
        allocator handed each one fresh pages."""
        rows = max(1, _BLOCK_ENTRIES // s_nodes.size)
        density = self.base.law.density
        return np.concatenate(
            [density(s_nodes, xs[k:k + rows, None]) @ s_weights for k in range(0, xs.size, rows)]
        )

    def _grid(self, theta_abs: float):
        """(xs, even, odd, sum of even, odd moment on |x| <= 1, tail) for the
        jump integral at |theta| up to theta_abs, cached for later thetas.

        A base with a density has its mixed density evaluated at each node of
        the log region (0, 1] and interpolated from checked Chebyshev panels
        onto the nodes of (1, x_hi], which are spaced for the oscillation at
        theta_max."""
        theta_min = max(theta_abs, 1e-12)
        if self._grid_cache is not None:
            t_max, t_min = self._grid_cache[0], self._grid_cache[1]
            if theta_abs <= t_max and theta_min >= t_min:
                return self._grid_cache[2:]
        theta_max = max(12.0, 2.0 * theta_abs)
        theta_min = min(theta_min, 0.05)
        law, rho = self.base.law, self.pair.jumps
        tail = None
        if self._mode == "pushforward":
            # A delta base at v: the image of rho under s -> v s, which lies
            # on the side of sign v.  |x| = 1 is a panel edge, so the
            # compensator's jump falls between panels.
            speed = abs(law.drift)
            x_hi = _light_cut(lambda x: rho.mass_above(x / speed))
            xs, wx = self._x_panels(theta_max, x_hi)
            plus, minus = wx * rho.density(xs / speed) / speed, 0.0
            if law.drift < 0.0:
                plus, minus = minus, plus
        else:
            s_nodes, s_weights = rho_quad_nodes(rho)
            if law.heavy_tail:
                # resolved out to where a 3-term integration-by-parts
                # expansion of the remaining oscillatory tail is certified
                x_hi = max(1200.0, 40.0 / theta_min)
                if x_hi > _X_HI_MAX:
                    raise QuadratureFailure(f"theta = {theta_min:.3e} too close to 0 for a heavy-tailed base")
                mass = float(np.dot(s_weights, law.sf(s_nodes, x_hi)))
                p, p1, p2 = law.density_derivs(s_nodes, x_hi)
                tail = (
                    x_hi,
                    mass,
                    float(np.dot(s_weights, p)),
                    float(np.dot(s_weights, p1)),
                    float(np.dot(s_weights, p2)),
                    len(law.sides),
                )
            else:
                # the heavier of the two tails; for a law on x > 0, cdf(s, -x) is 0
                x_hi = _light_cut(lambda x: max(np.dot(s_weights, law.sf(s_nodes, x)),
                                                np.dot(s_weights, law.cdf(s_nodes, -x))))
            xs, wx = self._x_panels(theta_max, x_hi)
            weights = lambda sign: wx * _on_checked_panels(
                lambda x: self._mixed_density(sign * x, s_nodes, s_weights), xs, x_hi
            )
            plus = weights(1.0)
            if law.even:
                minus = plus
            elif -1 in law.sides:
                minus = weights(-1.0)
            else:
                minus = 0.0
        even = plus + minus
        odd = None if law.even else plus - minus
        inner = xs <= 1.0
        inner_odd_moment = 0.0 if odd is None else float(np.dot(odd[inner], xs[inner]))
        grid = (xs, even, odd, float(even.sum()), inner_odd_moment, tail)
        self._grid_cache = (theta_max, theta_min if law.heavy_tail else 0.0, *grid)
        return grid


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
