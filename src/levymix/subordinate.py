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
    IntervalSet,
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

    def mass(self, sets: IntervalSet) -> MixResult:
        if self._mode == "zero":
            mix = MixResult(0.0, 0.0, 0.0)
        else:
            mix = phi_mix_mass(self.base, self.pair.jumps, sets)
        drift = sum(self.drift_part.interval_mass(lo, hi) for lo, hi in sets.intervals)
        return MixResult(drift + mix.value, mix.abs_error_estimate, mix.truncation_point)

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
        xs, even, odd, even_sum, inner_odd_moment, tail = self._grid(abs(theta))
        tx = theta * xs
        value = base_part + (np.dot(even, np.cos(tx)) - even_sum)
        if odd is not None:
            value += 1j * (np.dot(odd, np.sin(tx)) - theta * inner_odd_moment)
        if tail is not None:
            x_hi, mass, f0, f1, f2, sides = tail
            value += _tail_correction(theta, x_hi, mass, f0, f1, f2)
            if sides == 2:
                value += _tail_correction(-theta, x_hi, mass, f0, f1, f2)
        return complex(value)

    def _pushforward_integral(self, theta: float) -> complex:
        # A clock with its own rule (atoms, tabulated) sums the image of its
        # nodes under s -> speed * s by that rule, cut where the weights jump.
        speed = self.base.law.drift
        fn = lambda s: _char_weights(theta, speed * s)
        return complex(integrate_rho(self.pair.jumps, fn, tol=1e-12, cuts=_unit_crossing(self.base))[0])

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
        # blocks of x rows against every s-node, about 3.2e4 entries (256 KiB
        # per temporary): 1e5-entry blocks ran 3x slower where the allocator
        # handed each one fresh pages
        rows = max(1, int(3.2e4 // s_nodes.size))
        density = self.base.law.density
        return np.concatenate(
            [density(s_nodes, xs[k:k + rows, None]) @ s_weights for k in range(0, xs.size, rows)]
        )

    def _grid(self, theta_abs: float):
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
            plus = wx * self._mixed_density(xs, s_nodes, s_weights)
            if law.even:
                minus = plus
            elif -1 in law.sides:
                minus = wx * self._mixed_density(-xs, s_nodes, s_weights)
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


def _unit_crossing(base: LevyTriplet) -> tuple:
    """The clock time s = 1/|v| at which a delta(v) base crosses |x| = 1, where
    its truncated mean and the compensator jump; no other law jumps in s."""
    return (1.0 / abs(base.law.drift),) if base.law.mix_route == "pushforward" else ()


def _mixing_drift_term(base: LevyTriplet, pair: SubordinatorPair) -> float:
    """Integral over rho of the truncated mean of mu^s."""
    fn = base.law.truncated_mean
    bound = 1.0 + 2.0 * (abs(base.drift) + lemma_constant(base))
    value, err, _ = integrate_rho(pair.jumps, fn, tol=1e-12, linear_bound=bound, cuts=_unit_crossing(base))
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

    def overlaps(self, other: "SeedCell") -> bool:
        if len(self.rect) != len(other.rect):
            return False
        return all(
            lo1 < hi2 and lo2 < hi1
            for (lo1, hi1), (lo2, hi2) in zip(self.rect, other.rect)
        )


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
        # Sorted by first-axis start, a cell can only overlap the ones that
        # start before its first edge ends.
        by_start = sorted(cells, key=lambda c: c.rect[0][0])
        for i, a in enumerate(by_start):
            for b in by_start[i + 1:]:
                if b.rect[0][0] >= a.rect[0][1]:
                    break
                if a.overlaps(b):
                    raise DomainError("cell rectangles must be disjoint")
        object.__setattr__(self, "cells", cells)


def cell_log_cf(base: LevyTriplet, cell: SeedCell, theta: float) -> complex:
    """Log-CF of the basis value on one cell: control mass times the seed exponent."""
    return cell.control_mass * compose_cf(base, cell.pair, theta)
