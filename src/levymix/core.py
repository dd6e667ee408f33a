"""Jump measures, characteristic triplets, subordinator pairs and tagged laws.

The measure side is a closed tagged union.  Each family implements the small
set of functionals the rest of the library consumes: interval masses,
truncated moments, (1 and |x|**p) integrals with an explicit infinity, its
Laplace and characteristic integrals, an exact sampler of its jump sums over
an array of step lengths, and its atoms or the break points of its density
for integrating against it.  Closed forms are used wherever the family
admits one, cell by cell for tabulated densities.  Each class is its family:
a parametric measure names its ``amplitude`` field, the one it is linear
in, and a triplet built by a law constructor holds in ``LevyTriplet.law``
the ``TaggedLaw`` that owns the closed forms of its convolution powers mu^s.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .errors import (
    DomainError,
    NotFiniteVariation,
    QuadratureFailure,
    UnsupportedFamily,
)

INF = math.inf


def _require(cond, message):
    if not cond:
        raise DomainError(message)


# The smallest stable index at which every closed form and draw stays finite
# and silent for coefficients and steps in [1e-8, 1e8]: below it 1/index, the
# size of Gamma(-index), and the logs a draw divides by the index overflow.
_MIN_STABLE_INDEX = 1e-299


def _require_stable_index(index):
    _require(
        index >= _MIN_STABLE_INDEX,
        f"a stable index of {index:.3g} is below {_MIN_STABLE_INDEX:g}, the smallest with finite closed forms",
    )


def _where_positive(x, f, *params):
    """f(x, *params) where x > 0 and 0 elsewhere, broadcasting x against params."""
    x = np.asarray(x, dtype=float)
    if params:
        x, *params = np.broadcast_arrays(x, *params)
    out = np.zeros(x.shape)
    pos = x > 0
    out[pos] = f(x[pos], *(p[pos] for p in params))
    return out[()]


def _gamma_p(n, t):
    """P(n, t), the regularized lower incomplete gamma function at an integer
    n >= 1, by math alone: 1 - e^{-t} sum_{k < n} t^k / k! from t = 1 on, and
    below, where that cancels, the series e^{-t} sum_{k >= n} t^k / k!."""
    if t >= 1.0:
        return 1.0 - math.exp(-t) * sum(t**k / math.factorial(k) for k in range(n))
    term = total = math.exp(-t) * t**n / math.factorial(n)
    while term > 1e-17 * total:
        n += 1
        term *= t / n
        total += term
    return total


# numpy's Generator.poisson refuses a mean above this (its POISSON_LAM_MAX).
_POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _poisson(rng, mean, *size):
    """rng.poisson(mean, *size), refusing a mean past numpy's limit by name."""
    largest = np.max(mean, initial=0.0)
    if largest > _POISSON_MAX_MEAN:
        raise DomainError(
            f"a Poisson mean of {largest:.3g} is past the sampler's limit of {_POISSON_MAX_MEAN:.3g}"
        )
    return rng.poisson(mean, *size)


# The natural log of the largest float: a draw whose log reaches it overflows.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _one_length(dt):
    """The common length of an array of equal steps, else the array. numpy
    draws the same stream from a scalar parameter with size=dt.shape as from
    the array, without the per-call cost of broadcasting it."""
    dt = np.asarray(dt, dtype=float)
    first = dt.item(0) if dt.size else 0.0
    return first if (dt == first).all() else dt


class LevyMeasure(ABC):
    """Common interface of all jump-measure families."""

    symmetric = False  # symmetric measures have a vanishing compensator integral
    amplitude = None  # name of the field the measure is linear in, if any
    breaks = ()  # increasing points where the density is not smooth; with any, it is 0 outside them

    @abstractmethod
    def total_mass(self) -> float:
        """Total mass, possibly math.inf."""

    def interval_mass(self, lo: float, hi: float) -> float:
        """Mass of the half-open interval (lo, hi].  This default, from the
        closed mass _above(x) of (x, inf), holds for a measure on (0, inf);
        a measure with negative jumps or no such closed form overrides it."""
        lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        return self._above(lo) - self._above(hi)

    @abstractmethod
    def truncated_moment(self, power: int, cutoff: float = 1.0) -> float:
        """Integral of x**power over |x| <= cutoff; NotFiniteVariation if it diverges."""

    def one_wedge(self, power: int) -> float:
        """Integral of min(1, |x|**power); math.inf is an explicit return value.

        This default, the truncated moment plus the mass above 1 (infinite
        where the moment raises NotFiniteVariation), holds for a measure on
        (0, inf); a measure with negative jumps overrides it.
        """
        try:
            return self.truncated_moment(power, 1.0) + self.mass_above(1.0)
        except NotFiniteVariation:
            return INF

    def finite_variation(self) -> bool:
        """Whether the measure integrates (1 and |x|), read from the family's
        parameters: a power law at 0 decides it, and a float overflow in
        one_wedge(1) does not."""
        return True

    @abstractmethod
    def sample_increments(self, dt, rng) -> np.ndarray:
        """Exact draws of the sum of all jumps over steps of the lengths in
        the array dt (dt >= 0), one per entry and of its shape; a step of
        length 0 draws exactly 0."""

    @abstractmethod
    def tail_cutoff(self, tol: float) -> float:
        """A point S with mass_above(S) < tol."""

    def scaled(self, factor: float) -> "LevyMeasure":
        """The measure multiplied by a positive scalar: its amplitude field
        times factor.  A measure that names no amplitude overrides this."""
        return replace(self, **{self.amplitude: getattr(self, self.amplitude) * factor})

    def char_integral(self, theta):
        """Integral of exp(i theta x) - 1 - i theta x 1{|x| <= 1}, elementwise
        over a theta array: the Laplace integral at i theta less the
        compensator."""
        return self.laplace_integral(1j * theta) - 1j * theta * _truncation_shift(self)

    def laplace_integral(self, z):
        """Integral of exp(z x) - 1, elementwise over a z array."""
        raise UnsupportedFamily(f"no laplace exponent for {type(self).__name__}")

    def fixed_rule(self):
        """(positions, masses) of the atoms for quadrature.rule_sum, or None
        for a density integrated adaptively."""
        return None

    def mass_above(self, eps: float) -> float:
        _require(eps > 0, "threshold must be positive")
        return self.interval_mass(eps, INF) + self.interval_mass(-INF, -eps)

    def is_zero(self) -> bool:
        return False

    def is_positive(self) -> bool:
        """True when the support lies in (0, inf)."""
        return False


@dataclass(frozen=True)
class GammaMeasure(LevyMeasure):
    """Density shape * x**-1 * exp(-rate*x) on (0, inf)."""

    shape: float
    rate: float
    amplitude = "shape"

    def __post_init__(self):
        _require(self.shape > 0, "shape must be > 0")
        _require(self.rate > 0, "rate must be > 0")

    def density(self, x):
        return _where_positive(x, lambda x: self.shape / x * np.exp(-self.rate * x))

    def total_mass(self):
        return INF

    def _above(self, x):
        return self.shape * scipy.special.exp1(self.rate * x)

    def truncated_moment(self, power, cutoff=1.0):
        if power in (1, 2):
            return self.shape * _gamma_p(power, self.rate * cutoff) / self.rate**power
        raise DomainError("power must be 1 or 2")

    def tail_cutoff(self, tol):
        s = 1.0 / self.rate
        while self._above(s) >= tol:
            s *= 2.0
        return s

    def laplace_integral(self, z):
        # -shape * log(1 + w) for w = -z / rate, through log1p: at a rate far
        # above |z| the plain log of 1 + w keeps none of the digits in w
        z = np.asarray(z)
        with np.errstate(over="ignore"):
            w = -z / self.rate
            if np.iscomplexobj(w):
                log_mod = 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2)
                # past |w| ~ 1e154 the squares overflow, and |1 + w|, a hypot, does not
                big = ~np.isfinite(log_mod)
                if big.any():
                    log_mod = np.where(big, np.log(np.abs(1.0 + w)), log_mod)
                log_1w = log_mod + 1j * np.arctan2(w.imag, 1.0 + w.real)
            else:
                log_1w = np.log1p(w)
        # past the float range w itself overflows: there 1 + w is w to every
        # digit, with log|w| = log|z| - log rate and the angle of -z
        far = ~np.isfinite(w)
        if far.any():
            with np.errstate(divide="ignore"):
                log_1w = np.where(far, np.log(-z) - math.log(self.rate), log_1w)
        return -self.shape * log_1w

    def sample_increments(self, dt, rng):
        return rng.gamma(self.shape * _one_length(dt), 1.0 / self.rate, np.shape(dt))

    def is_positive(self):
        return True


@dataclass(frozen=True)
class OneSidedStableMeasure(LevyMeasure):
    """Density coeff * x**-(index+1) on (0, inf); index in (0, 2)."""

    index: float
    coeff: float
    amplitude = "coeff"

    def __post_init__(self):
        _require(0 < self.index < 2, "index must lie in (0, 2)")
        _require_stable_index(self.index)
        _require(self.coeff > 0, "coeff must be > 0")

    def density(self, x):
        return _where_positive(x, lambda x: self.coeff * x ** (-self.index - 1.0))

    def total_mass(self):
        return INF

    def _above(self, x):
        return self.coeff * x ** (-self.index) / self.index if x > 0.0 else INF

    def truncated_moment(self, power, cutoff=1.0):
        if power == 1:
            if self.index >= 1:
                raise NotFiniteVariation(
                    f"first moment near zero diverges for index {self.index}"
                )
            return self.coeff * cutoff ** (1.0 - self.index) / (1.0 - self.index)
        if power == 2:
            return self.coeff * cutoff ** (2.0 - self.index) / (2.0 - self.index)
        raise DomainError("power must be 1 or 2")

    def tail_cutoff(self, tol):
        # a quotient past the float range is inf, a power past it raises
        try:
            cut = (self.coeff / (self.index * tol)) ** (1.0 / self.index)
        except OverflowError:
            cut = INF
        if math.isinf(cut):
            raise QuadratureFailure(
                f"the tail cut of a one-sided stable measure of index {self.index} "
                f"at tol {tol} overflows a float"
            )
        return cut

    def char_integral(self, theta):
        a, c = self.index, self.coeff
        if a < 1:
            return super().char_integral(theta)
        if a > 1:
            # Fully compensated closed form, compensation moved to |x| <= 1.
            return c * math.gamma(-a) * (-1j * theta) ** a + 1j * theta * c / (a - 1.0)
        # Index 1 (Sato 1999, Lemma 14.11):
        # c * (-pi |theta| / 2 - i theta log|theta| + i theta (1 - euler_gamma)).
        theta = np.asarray(theta, dtype=float)
        mod = np.abs(theta)
        log_mod = np.log(np.where(mod > 0.0, mod, 1.0))
        return c * (-0.5 * math.pi * mod + 1j * theta * (1.0 - np.euler_gamma - log_mod))

    def laplace_integral(self, z):
        if self.index >= 1:
            raise NotFiniteVariation("laplace exponent needs index < 1")
        # coeff * Gamma(-index) passes the float range at an index near the
        # floor or a coeff near the largest float: refused where z != 0, and
        # at z = 0, where it times 0**index is nan, the exponent is exactly 0
        with np.errstate(over="ignore", invalid="ignore"):
            value = self.coeff * math.gamma(-self.index) * (-z) ** self.index
        zero = np.equal(z, 0)
        if not np.all(np.isfinite(value) | zero):
            raise DomainError(
                f"the Laplace exponent of a one-sided stable measure of index {self.index:.3g} "
                f"and coeff {self.coeff:.3g} is past the float range"
            )
        return np.where(zero, 0.0, value)[()]

    def sample_increments(self, dt, rng):
        a, dt = self.index, np.asarray(dt, dtype=float)
        if a >= 1:
            raise UnsupportedFamily(f"no increment sampler for a one-sided stable measure of index {a} >= 1")
        if a == 0.5:
            return _levy_positive(rng, levy_dist_scale(self.coeff * dt), dt.shape)
        # Kanter (1975): over a step r the sum has Laplace transform
        # exp(-r k u**a), k = coeff Gamma(1 - a) / a; its angle terms are
        # sin V, sin(aV) and sin((1-a)V) for V uniform on (0, pi).  V is at
        # most math.pi, which lies below pi, so each sine is positive.
        v = rng.random(dt.shape)
        np.subtract(1.0, v, out=v)
        v *= math.pi
        log_k = math.log(self.coeff) + math.lgamma(1.0 - a) - math.log(a)

        def angles():
            yield np.sin(v)
            inner = a * v
            yield np.sin(inner, out=inner)
            yield np.sin(np.multiply(v, 1.0 - a, out=v), out=v)

        return _stable_draw(rng, dt, a, log_k, dt > 0, angles(), "one-sided")

    def finite_variation(self):
        return self.index < 1

    def is_positive(self):
        return True


@dataclass(frozen=True)
class SymmetricStableMeasure(LevyMeasure):
    """Density coeff * |x|**-(index+1) on both half-lines; index in (0, 2)."""

    index: float
    coeff: float
    amplitude = "coeff"
    symmetric = True

    def __post_init__(self):
        _require(0 < self.index < 2, "index must lie in (0, 2)")
        _require_stable_index(self.index)
        _require(self.coeff > 0, "coeff must be > 0")

    def _half(self):
        return OneSidedStableMeasure(self.index, self.coeff)

    def density(self, x):
        return self._half().density(np.abs(x))

    def total_mass(self):
        return INF

    def interval_mass(self, lo, hi):
        if hi <= lo:
            return 0.0
        pos = self._half().interval_mass(max(lo, 0.0), hi) if hi > 0 else 0.0
        neg = self._half().interval_mass(max(-hi, 0.0), -lo) if lo < 0 else 0.0
        return pos + neg

    def truncated_moment(self, power, cutoff=1.0):
        if power == 1:
            if self.index >= 1:
                raise NotFiniteVariation(
                    f"absolute first moment near zero diverges for index {self.index}"
                )
            return 0.0  # odd integrand, symmetric measure
        return 2.0 * self._half().truncated_moment(power, cutoff)

    def one_wedge(self, power):
        return 2.0 * self._half().one_wedge(power)

    def finite_variation(self):
        return self.index < 1

    def tail_cutoff(self, tol):
        return self._half().tail_cutoff(tol / 2.0)

    def char_integral(self, theta):
        # The compensator integral vanishes by symmetry.
        return np.asarray(
            -2.0 * self.coeff * stable_cos_integral(self.index) * np.abs(theta) ** self.index,
            dtype=complex,
        )

    def sample_increments(self, dt, rng):
        # Symmetric jumps compensate to zero shift regardless of index. Over a
        # step r the sum has log-CF -r k |theta|**a, k = 2 coeff
        # stable_cos_integral(a): the Chambers-Mallows-Stuck (1976) draw, at
        # index 1 (r k) tan(V) for V uniform on (-pi/2, pi/2), else with the
        # angle terms cos V, sin(aV) and cos((1-a)V), the sign that of sin(aV).
        # V lies above -pi/2 and below pi/2, so both cosines are positive.
        a, dt = self.index, np.asarray(dt, dtype=float)
        k = 2.0 * self.coeff * stable_cos_integral(a)
        v = rng.random(dt.shape)
        v -= 0.5
        v *= math.pi
        if a == 1.0:
            out = k * dt
            out *= np.tan(v, out=v)
            return out
        s = a * v
        np.sin(s, out=s)
        s[~(dt > 0)] = 0.0
        live, negative = s != 0.0, s < 0.0

        def angles():
            yield np.cos(v)
            yield np.abs(s, out=s)
            yield np.cos(np.multiply(v, 1.0 - a, out=v), out=v)

        out = _stable_draw(rng, dt, a, math.log(k), live, angles(), "symmetric")
        return np.negative(out, out=out, where=negative)  # sign(sin(aV)) times the modulus


@dataclass(frozen=True)
class AtomicMeasure(LevyMeasure):
    """Finitely many atoms (position, mass); positions nonzero, masses
    positive.  With no atoms it is the zero measure, ``ZERO_MEASURE``."""

    atoms: tuple

    def __post_init__(self):
        merged = {}
        for pos, mass in self.atoms:
            pos, mass = float(pos), float(mass)
            _require(pos != 0.0, "atom positions must be nonzero")
            _require(mass > 0.0, "atom masses must be positive")
            merged[pos] = merged.get(pos, 0.0) + mass
        object.__setattr__(
            self, "atoms", tuple(sorted(merged.items()))
        )

    def total_mass(self):
        return float(sum(m for _, m in self.atoms))

    def interval_mass(self, lo, hi):
        return float(sum(m for p, m in self.atoms if lo < p <= hi))

    def truncated_moment(self, power, cutoff=1.0):
        return float(
            sum(m * p**power for p, m in self.atoms if abs(p) <= cutoff)
        )

    def one_wedge(self, power):
        return float(sum(m * min(1.0, abs(p) ** power) for p, m in self.atoms))

    def tail_cutoff(self, tol):
        return max(abs(p) for p, _ in self.atoms) * (1.0 + 1e-12) if self.atoms else 1.0

    def scaled(self, factor):
        return AtomicMeasure(tuple((p, m * factor) for p, m in self.atoms))

    def laplace_integral(self, z):
        total = 0.0
        # z * pos may overflow to -inf, where exp gives the right term, 0
        with np.errstate(over="ignore"):
            for pos, mass in self.atoms:
                total = total + mass * (np.exp(z * pos) - 1.0)
        return total

    def sample_increments(self, dt, rng):
        length, total = _one_length(dt), np.zeros(np.shape(dt))
        for pos, mass in self.atoms:
            total = total + pos * _poisson(rng, mass * length, total.shape)
        return total

    def fixed_rule(self):
        return np.array([p for p, _ in self.atoms]), np.array([m for _, m in self.atoms])

    def is_zero(self):
        return not self.atoms

    def is_positive(self):
        return all(p > 0 for p, _ in self.atoms)


@dataclass(frozen=True)
class CompoundExponentialMeasure(LevyMeasure):
    """Finite parametric family: total mass ``rate`` with exponential jump law.

    Density rate * jump_rate * exp(-jump_rate * x) on (0, inf).
    """

    rate: float
    jump_rate: float
    amplitude = "rate"

    def __post_init__(self):
        _require(self.rate > 0, "rate must be > 0")
        _require(self.jump_rate > 0, "jump_rate must be > 0")

    def density(self, x):
        return _where_positive(x, lambda x: self.rate * self.jump_rate * np.exp(-self.jump_rate * x))

    def total_mass(self):
        return self.rate

    def _above(self, x):
        return self.rate * math.exp(-self.jump_rate * x)

    def truncated_moment(self, power, cutoff=1.0):
        if power in (1, 2):
            # rate power! P(power + 1, t) / jump_rate^power at t = jump_rate cutoff
            t = self.jump_rate * cutoff
            return self.rate * math.factorial(power) * _gamma_p(power + 1, t) / self.jump_rate**power
        raise DomainError("power must be 1 or 2")

    def tail_cutoff(self, tol):
        return max(1.0, math.log(max(self.rate / tol, 2.0)) / self.jump_rate)

    def laplace_integral(self, z):
        with np.errstate(over="ignore", invalid="ignore"):
            value = self.rate * z / (self.jump_rate - z)
        # rate z overflows past the float range over rate, where the value
        # tends to -rate; -rate / (1 - jump_rate / z) cannot overflow there
        far = ~np.isfinite(value)
        if np.any(far):
            with np.errstate(divide="ignore", invalid="ignore"):
                value = np.where(far, -self.rate / (1.0 - self.jump_rate / z), value)
        return value

    def sample_increments(self, dt, rng):
        # the counts as floats, the gamma shapes, each busy one then replaced by its draw
        out = _poisson(rng, self.rate * _one_length(dt), np.shape(dt)).astype(float)
        busy = out > 0
        if busy.any():
            out[busy] = rng.gamma(out[busy], 1.0 / self.jump_rate)
        return out

    def is_positive(self):
        return True


# 1 / (n + 3)! for n = 19 down to 0: the series of phi_3 in Horner order.
_PHI3_SERIES = [1.0 / math.factorial(n + 3) for n in range(19, -1, -1)]


def _phi(w):
    """phi_k(w) = sum_n w**n / (n + k)! for k = 1, 2, 3, stacked, entry by
    entry: from the series of phi_3 where |w| < 1, else from expm1 down by
    phi_{k+1} = (phi_k - 1 / k!) / w, which does not cancel there."""
    out = np.empty((3, *w.shape), w.dtype)
    small = np.abs(w) < 1.0
    v = w[small]
    p3 = np.zeros_like(v)
    for c in _PHI3_SERIES:
        p3 = p3 * v + c
    p2 = 0.5 + v * p3
    out[:, small] = (1.0 + v * p2, p2, p3)
    v = w[~small]
    p1 = np.expm1(v) / v
    p2 = (p1 - 1.0) / v
    out[:, ~small] = (p1, p2, (p2 - 0.5) / v)
    return out


@dataclass(frozen=True)
class TabulatedMeasure(LevyMeasure):
    """Piecewise-linear density on a strictly increasing grid; zero off-grid.

    The grid must sit entirely on one side of zero, and its points are the
    density's break points.  Masses, moments of power <= 2 and the Laplace
    integral are exact sums over its cells.
    """

    xs: tuple
    dens: tuple

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        dens = tuple(float(v) for v in self.dens)
        _require(len(xs) == len(dens), "grid and density lengths differ")
        _require(len(xs) >= 2, "need at least two grid points")
        _require(all(b > a for a, b in zip(xs, xs[1:])), "grid must be strictly increasing")
        _require(all(v >= 0 for v in dens), "density values must be nonnegative")
        _require(xs[0] > 0 or xs[-1] < 0, "grid must not straddle or touch zero")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "dens", dens)

    def _grid(self):
        return np.asarray(self.xs), np.asarray(self.dens)

    def density(self, x):
        xs, dens = self._grid()
        return np.interp(np.asarray(x, dtype=float), xs, dens, left=0.0, right=0.0)

    breaks = property(lambda self: self.xs)

    def _moment(self, power, lo=-INF, hi=INF):
        """Integral of x**power over [lo, hi]: two Gauss-Legendre points on
        each cell of the grid cut there, exact on cubics, so for power <= 2."""
        xs, _ = self._grid()
        lo, hi = max(lo, xs[0]), min(hi, xs[-1])
        edges = np.concatenate(([lo], xs[(xs > lo) & (xs < hi)], [hi])) if hi > lo else xs[:1]
        half = 0.5 * np.diff(edges)[:, None]
        x = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * np.array([-1.0, 1.0]) / math.sqrt(3.0)
        return float((half * self.density(x) * x**power).sum())

    def total_mass(self):
        return self._moment(0)

    def interval_mass(self, lo, hi):
        return self._moment(0, lo, hi)

    def truncated_moment(self, power, cutoff=1.0):
        return self._moment(power, -cutoff, cutoff)

    def one_wedge(self, power):
        # the grid is one-sided: |x|**power integrates to the moment's modulus
        return abs(self.truncated_moment(power, 1.0)) + self.mass_above(1.0)

    def sample_increments(self, dt, rng):
        # Compound Poisson: per step a Poisson count at the total mass times
        # dt, then each jump's cell by its closed-form mass and its place in
        # the cell from the linear density d0 (1 - t) + d1 t on t in [0, 1],
        # the mixture of the triangles 2 (1 - t) and 2 t weighted d0 and d1.
        xs, dens = self._grid()
        cells = 0.5 * (dens[:-1] + dens[1:]) * np.diff(xs)
        counts = _poisson(rng, cells.sum() * _one_length(dt), np.shape(dt))
        n = int(counts.sum())
        if n == 0:
            return np.zeros(counts.shape)
        idx = rng.choice(cells.size, size=n, p=cells / cells.sum())
        d0, d1 = dens[idx], dens[idx + 1]
        pick, u = rng.random((2, n))
        t = np.sqrt(u)
        t = np.where(pick * (d0 + d1) < d1, t, 1.0 - t)
        jumps = xs[idx] + t * (xs[idx + 1] - xs[idx])
        step = np.repeat(np.arange(counts.size), counts.ravel())
        return np.bincount(step, weights=jumps, minlength=counts.size).reshape(counts.shape)

    def tail_cutoff(self, tol):
        return abs(self.xs[-1]) * (1.0 + 1e-12) if self.xs[0] > 0 else abs(self.xs[0])

    def scaled(self, factor):
        return TabulatedMeasure(self.xs, tuple(v * factor for v in self.dens))

    def laplace_integral(self, z):
        # on a cell [a, a + h], x = a + h t: e^{zx} - 1 = m e^{wt} + e^{wt} - 1
        # for w = z h and m = expm1(z a), and the integrals of e^{wt} (1 - t)
        # and e^{wt} t over [0, 1] are phi_2(w) and phi_1(w) - phi_2(w)
        xs, dens = self._grid()
        a, h, z = xs[:-1, None], np.diff(xs)[:, None], np.asarray(z)
        w, m = z.ravel() * h, np.expm1(z.ravel() * a)
        p1, p2, p3 = _phi(w)
        cells = h * (dens[:-1, None] * (m * p2 + w * p3) + dens[1:, None] * (m * (p1 - p2) + w * (p2 - p3)))
        # row by row, so that each z's value is the same bits in any array
        return np.add.accumulate(cells)[-1].reshape(z.shape)

    def is_positive(self):
        return self.xs[0] > 0


ZERO_MEASURE = AtomicMeasure(())


def stable_cos_integral(alpha: float) -> float:
    """The constant integral of (1 - cos u) * u**-(1+alpha) over (0, inf)."""
    if not 0 < alpha < 2:
        raise DomainError("alpha must lie in (0, 2)")
    _require_stable_index(alpha)
    if alpha == 1.0:
        return math.pi / 2.0
    return -math.gamma(-alpha) * math.cos(math.pi * alpha / 2.0)


def _stable_draw(rng, dt, a, log_k, live, angles, side) -> np.ndarray:
    """The modulus of Kanter's and Chambers-Mallows-Stuck's stable draws
    over steps dt, of index a and scale k: (dt k)**(1/a) inner outer**(-1/a)
    (rest / W)**((1-a)/a) for W ~ Exp(1), from the angle terms outer, inner
    and rest that the caller's iterator angles yields, each built when the
    draw takes it and overwritten by it. Taken in logs, so that no power
    under- or overflows: a W drawn as 0 is read as the smallest normal
    float, an entry not live draws exactly 0, and a draw past the float
    range is refused. The log terms are summed in place, in the order of
    (log dt + log k - log outer) / a + log inner + (1-a)/a (log rest - log W)."""
    # each log is taken in its term's own buffer, and a term is dropped once
    # it is added, so that one is held at a time
    dead = ~live
    log_x = np.where(live, dt, 1.0)
    np.log(log_x, out=log_x)
    log_x += log_k
    term = next(angles)  # outer
    log_x -= np.log(term, out=term)
    log_x /= a
    term = next(angles)  # inner
    term[dead] = 1.0
    log_x += np.log(term, out=term)
    term = next(angles)  # rest, in V's buffer
    np.log(term, out=term)
    # W is the stream's next draw after the caller's V: no draw comes between
    w = rng.standard_exponential(dt.shape)
    np.maximum(w, np.finfo(float).tiny, out=w)
    term -= np.log(w, out=w)
    term *= (1.0 - a) / a
    log_x += term
    log_x[dead] = -INF
    if (log_x >= _LOG_FLOAT_MAX).any():
        raise DomainError(
            f"a {side} stable increment of index {a} is past the float range (e**{np.max(log_x):.4g})"
        )
    return np.exp(log_x, out=log_x)


def _levy_positive(rng, c, size) -> np.ndarray:
    # One-sided 1/2-stable with density sqrt(c/2 pi) x^-3/2 e^{-c/2x}: c / Z^2.
    z = rng.standard_normal(size)
    while True:
        bad = z == 0.0
        if not bad.any():
            break
        z[bad] = rng.standard_normal(int(bad.sum()))
    z *= z
    return np.divide(c, z, out=z)


@dataclass(frozen=True)
class LevyTriplet:
    """Characteristic triplet (drift, gaussian_var, jumps), truncated at |x| <= 1.

    law holds the ``TaggedLaw`` of a triplet built by a law constructor, so
    the convolution powers of the time-one law stay available in closed
    form; it is None for a triplet built from its parts.
    """

    drift: float
    gaussian_var: float
    jumps: LevyMeasure
    law: "TaggedLaw | None" = None

    def __post_init__(self):
        _require(self.gaussian_var >= 0, "gaussian_var must be >= 0")

    def is_degenerate(self) -> bool:
        """True for a point mass (pure drift, possibly zero)."""
        return self.gaussian_var == 0.0 and self.jumps.is_zero()


@dataclass(frozen=True)
class SubordinatorPair:
    """Drift >= 0 plus a jump measure on (0, inf) with finite variation."""

    drift: float
    jumps: LevyMeasure

    def __post_init__(self):
        _require(self.drift >= 0, "subordinator drift must be >= 0")
        if not self.jumps.is_positive():
            raise DomainError("subordinator jumps must live on (0, inf)")
        if not self.jumps.finite_variation():
            raise NotFiniteVariation("subordinator jumps must integrate (1 and x)")


# ---------------------------------------------------------------------------
# Law constructors.


def gaussian_law(mean: float = 0.0, variance: float = 1.0) -> LevyTriplet:
    _require(variance > 0, "variance must be > 0 (use delta_law for a point mass)")
    return LevyTriplet(mean, variance, ZERO_MEASURE, law=GaussianLaw(mean, variance))


def gamma_law(shape: float, rate: float) -> LevyTriplet:
    nu = GammaMeasure(shape, rate)
    return LevyTriplet(nu.truncated_moment(1, 1.0), 0.0, nu, law=GammaLaw(shape, rate))


def poisson_law(rate: float, jump_size: float = 1.0) -> LevyTriplet:
    _require(rate > 0, "rate must be > 0")
    _require(jump_size != 0, "jump_size must be nonzero")
    nu = AtomicMeasure(((jump_size, rate),))
    drift = rate * jump_size if abs(jump_size) <= 1.0 else 0.0
    return LevyTriplet(drift, 0.0, nu, law=PoissonLaw(rate, jump_size))


def delta_law(drift: float) -> LevyTriplet:
    return LevyTriplet(drift, 0.0, ZERO_MEASURE, law=DeltaLaw(drift))


def symmetric_stable_law(alpha: float, scale: float) -> LevyTriplet:
    """Strictly alpha-stable symmetric law with log-CF -(scale*|theta|)**alpha."""
    _require(0 < alpha < 2, "alpha must lie in (0, 2); use gaussian_law for alpha=2")
    _require(scale > 0, "scale must be > 0")
    coeff = scale**alpha / (2.0 * stable_cos_integral(alpha))
    nu = SymmetricStableMeasure(alpha, coeff)
    return LevyTriplet(0.0, 0.0, nu, law=SymmetricStableLaw(alpha, scale))


def cauchy_law(scale: float) -> LevyTriplet:
    return symmetric_stable_law(1.0, scale)


def one_sided_stable_law(alpha: float, coeff: float) -> LevyTriplet:
    """Strictly alpha-stable subordinator law, jump density coeff * x**-(1+alpha)."""
    _require(0 < alpha < 1, "alpha must lie in (0, 1) for a one-sided stable law")
    nu = OneSidedStableMeasure(alpha, coeff)
    return LevyTriplet(nu.truncated_moment(1, 1.0), 0.0, nu, law=OneSidedStableLaw(alpha, coeff))


def levy_dist_scale(coeff: float) -> float:
    """Scale of the one-sided 1/2-stable law with jump density coeff*x**-3/2.

    The law has density sqrt(c/(2 pi)) x**-3/2 exp(-c/(2x)) with c returned
    here, matching Laplace transform exp(-2 coeff sqrt(pi u)).
    """
    return 2.0 * math.pi * coeff * coeff


# ---------------------------------------------------------------------------
# Tagged laws: closed forms of the convolution powers mu^s.


def _poisson_count_cdf(n, mean):
    """P(K <= n) for K Poisson(mean), broadcast over arrays of counts n (any
    floats, floored) and means: 0 where n < 0 and 1 where n = inf."""
    n = np.asarray(n, dtype=float)
    counted = (n >= 0.0) & (n < INF)
    cdf = scipy.special.gammaincc(np.floor(np.where(counted, n, 0.0)) + 1.0, mean)
    return np.where(counted, cdf, 1.0 * (n > 0.0))


def _npdf(t):
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


# Entries of one temporary of the x-grid build: 256 KiB of floats.
_BLOCK_ENTRIES = 32000


def _row_blocks(xs, width, rows_fn):
    """rows_fn on blocks of xs as columns against width s-nodes, joined; each
    block holds _BLOCK_ENTRIES entries: 1e5-entry blocks ran 3x slower where
    the allocator handed each one fresh pages."""
    rows = max(1, _BLOCK_ENTRIES // width)
    return np.concatenate([rows_fn(xs[k:k + rows, None]) for k in range(0, xs.size, rows)])


class TaggedLaw:
    """Closed forms of the convolution powers mu^s of one tagged law family.

    Broadcasting over s (and x): ``cdf(s, x)``, ``interval_mass(s, lo, hi)``
    and ``truncated_mean(s)`` (the integral of x over |x| <= 1), on arrays
    entry for entry the values of scalar calls;
    ``density(s, x)`` and its s-rule sum ``mixed_density``, the upper tail
    ``sf(s, x)`` for x > 0 and, where mu^s has finite moments, its
    ``mean_sd(s)``.  Scalar: ``small_s_ratio(s)``.
    Draws from mu^r need no closed form here: ``simulate.conv_power_sample``
    takes them from the triplet, for a tagged law or any other.
    """

    sides = (-1, 1)  # sides of 0 on which mu^s has a density
    even = False  # mu^s is symmetric about 0: the x-grid evaluates one side
    heavy_tail = False  # power-law tails: the x-grid's cut search runs to 1e12

    def interval_mass(self, s, lo, hi):
        return np.maximum(self.cdf(s, hi) - self.cdf(s, lo), 0.0)

    def density(self, s, x):
        raise UnsupportedFamily(f"no closed density for {type(self).__name__}")

    def mean_sd(self, s):
        """(mean, sd) of mu^s; None for a law without finite moments."""
        return None

    def mixed_density(self, xs, s_nodes, s_weights):
        """The s-rule sum of mu^s densities at each x, density(s, x) @ w: the
        only place the x-grid evaluates the law's kernel."""
        return _row_blocks(xs, s_nodes.size, lambda x: self.density(s_nodes, x) @ s_weights)


@dataclass(frozen=True)
class GaussianLaw(TaggedLaw):
    mean: float
    var: float

    @property
    def even(self):
        return self.mean == 0.0

    def cdf(self, s, x):
        return scipy.special.ndtr((x - self.mean * s) / np.sqrt(self.var * s))

    def sf(self, s, x):
        return scipy.special.ndtr((self.mean * s - x) / np.sqrt(self.var * s))

    def density(self, s, x):
        sd = np.sqrt(self.var * s)
        z = (x - self.mean * s) / sd
        return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    def mean_sd(self, s):
        return self.mean * s, np.sqrt(self.var * s)

    def mixed_density(self, xs, s_nodes, s_weights):
        """exp(k_s (x - m s)^2) @ (w_s / sqrt(2 pi var s)), k_s = -1 / (2 var s),
        in one temporary per block: the normalisation folds into the s-weights."""
        k, ms = -0.5 / (self.var * s_nodes), self.mean * s_nodes
        w = s_weights / np.sqrt(2.0 * math.pi * self.var * s_nodes)

        def rows(x):
            d = x - ms
            return np.exp(np.multiply(np.square(d, out=d), k, out=d), out=d) @ w

        return _row_blocks(xs, s_nodes.size, rows)

    def _unit_interval(self, s):
        """Mean and sd of mu^s, and -1 and 1 in its standard units."""
        m, sd = self.mean * s, np.sqrt(self.var * s)
        return m, sd, (-1.0 - m) / sd, (1.0 - m) / sd

    def truncated_mean(self, s):
        if self.mean == 0.0:
            return 0.0 * np.asarray(s)  # symmetric law: exact cancellation
        m, sd, alpha, beta = self._unit_interval(np.asarray(s, dtype=float))
        return m * (scipy.special.ndtr(beta) - scipy.special.ndtr(alpha)) - sd * (_npdf(beta) - _npdf(alpha))

    def small_s_ratio(self, s):
        m, sd, alpha, beta = self._unit_interval(s)
        gap = float(scipy.special.ndtr(beta) - scipy.special.ndtr(alpha))
        inside_sq = (
            (m * m + sd * sd) * gap
            + 2.0 * m * sd * (_npdf(alpha) - _npdf(beta))
            + sd * sd * (alpha * _npdf(alpha) - beta * _npdf(beta))
        )
        tails = 1.0 - gap
        return float((inside_sq + tails) / s)


@dataclass(frozen=True)
class GammaLaw(TaggedLaw):
    shape: float
    rate: float
    sides = (1,)

    def cdf(self, s, x):
        return scipy.special.gammainc(self.shape * np.asarray(s), self.rate * np.maximum(x, 0.0))

    def sf(self, s, x):
        return scipy.special.gammaincc(self.shape * s, self.rate * x)

    def density(self, s, x):
        rate = self.rate
        return _where_positive(
            x,
            lambda x, a: np.exp(a * math.log(rate) + (a - 1.0) * np.log(x) - rate * x - scipy.special.gammaln(a)),
            self.shape * s,
        )

    def mean_sd(self, s):
        return self.shape * s / self.rate, np.sqrt(self.shape * s) / self.rate

    def truncated_mean(self, s):
        a = self.shape * np.asarray(s, dtype=float)
        return a / self.rate * scipy.special.gammainc(a + 1.0, self.rate)

    def small_s_ratio(self, s):
        a = self.shape * s
        inside = a * (a + 1.0) / self.rate**2 * float(scipy.special.gammainc(a + 2.0, self.rate))
        tail = 1.0 - float(scipy.special.gammainc(a, self.rate))
        return (inside + tail) / s


@dataclass(frozen=True)
class PoissonLaw(TaggedLaw):
    rate: float
    jump_size: float

    def cdf(self, s, x):
        return self.interval_mass(s, -INF, x)

    def interval_mass(self, s, lo, hi):
        # Count lattice points directly so half-open boundaries land on atoms exactly.
        h, mean = self.jump_size, self.rate * np.asarray(s, dtype=float)
        if h > 0:
            return _poisson_count_cdf(np.floor(hi / h), mean) - _poisson_count_cdf(np.floor(lo / h), mean)
        return _poisson_count_cdf(np.ceil(lo / h) - 1.0, mean) - _poisson_count_cdf(np.ceil(hi / h) - 1.0, mean)

    def pmf(self, s, ks):
        """P(K = k) for K Poisson(rate s) and k in the array ks, one row per
        entry of s."""
        mean = self.rate * np.asarray(s, dtype=float)[..., None]
        return np.exp(ks * np.log(mean) - mean - scipy.special.gammaln(ks + 1.0))

    # The counts K of mu^s in |x| <= 1 are those up to m = floor(1 / |h|), and
    # P(K >= n) is the regularized lower incomplete gamma P(n, rate s).
    def truncated_mean(self, s):
        # sum_{k <= m} h k P(K = k) = h mean P(K <= m - 1); with m = 0, h 0.0
        h, m, mean = self.jump_size, np.floor(1.0 / abs(self.jump_size)), self.rate * np.asarray(s, dtype=float)
        if m == 0:
            return h * 0.0 * mean
        return h * mean * (1.0 - scipy.special.gammainc(m, mean))

    def small_s_ratio(self, s):
        # sum_{k <= m} (h k)^2 P(K = k) = h^2 (mean P(K <= m - 1) + mean^2
        # P(K <= m - 2)), plus the tail P(K >= m + 1) in its survival form
        h, m, mean = self.jump_size, np.floor(1.0 / abs(self.jump_size)), self.rate * s
        inside = 0.0
        if m >= 1:
            inside = mean * (1.0 - float(scipy.special.gammainc(m, mean)))
        if m >= 2:
            inside += mean * mean * (1.0 - float(scipy.special.gammainc(m - 1, mean)))
        return (h * h * inside + float(scipy.special.gammainc(m + 1, mean))) / s


@dataclass(frozen=True)
class DeltaLaw(TaggedLaw):
    drift: float

    def cdf(self, s, x):
        return 1.0 * (self.drift * np.asarray(s) <= x)

    def truncated_mean(self, s):
        x = self.drift * np.asarray(s, dtype=float)
        return np.where(np.abs(x) <= 1.0, x, 0.0)[()]


class _StableLaw(TaggedLaw):
    """Strictly stable families, whose closed forms exist at one index only."""

    heavy_tail = True
    closed_index: float

    def _closed(self):
        if self.alpha != self.closed_index:
            raise UnsupportedFamily(
                f"{type(self).__name__} convolution powers implemented for index "
                f"{self.closed_index} only"
            )


@dataclass(frozen=True)
class SymmetricStableLaw(_StableLaw):
    alpha: float
    scale: float
    closed_index = 1.0
    even = True

    def _c(self, s):
        self._closed()
        return self.scale * s

    def cdf(self, s, x):
        return 0.5 + np.arctan(x / self._c(np.asarray(s))) / math.pi

    def sf(self, s, x):
        # arctan(c / x) / pi, not 1/2 - arctan(x / c) / pi, which cancels far out
        return np.arctan(self._c(s) / x) / math.pi

    def density(self, s, x):
        c = self._c(np.asarray(s))
        # the plain form unless x**2 + c**2 could leave the normal floats,
        # decided for the whole call from the extremes of c and |x|: this
        # runs once per block of the x-grid's mixed density
        if c.min() >= 1e-150 and max(c.max(), np.abs(x).max()) <= 1e150:
            return c / math.pi / (x * x + c * c)
        # x and c divided through by m = max(|x|, c): no square leaves the float range
        m = np.maximum(np.abs(x), c)
        u, v = x / m, c / m
        return v / (math.pi * (u * u + v * v)) / m

    def truncated_mean(self, s):
        return 0.0 * np.asarray(s)

    def small_s_ratio(self, s):
        c = self._c(s)
        inside = (c / math.pi) * (1.0 - c * math.atan(1.0 / c))
        tail = 0.5 - math.atan(1.0 / c) / math.pi
        return 2.0 * (inside + tail) / s


@dataclass(frozen=True)
class OneSidedStableLaw(_StableLaw):
    alpha: float
    coeff: float
    closed_index = 0.5
    sides = (1,)

    def _c(self, s):
        self._closed()
        return levy_dist_scale(self.coeff) * s * s

    def cdf(self, s, x):
        return _where_positive(x, lambda x, c: scipy.special.erfc(np.sqrt(0.5 * c / x)), self._c(np.asarray(s)))

    def sf(self, s, x):
        return scipy.special.erf(np.sqrt(0.5 * self._c(s) / x))

    def density(self, s, x):
        return _where_positive(
            x, lambda x, c: np.sqrt(c / (2.0 * math.pi)) * x**-1.5 * np.exp(-0.5 * c / x), self._c(s)
        )

    def truncated_mean(self, s):
        # int_0^1 x p_c(x) dx = sqrt(2c/pi) e^{-c/2} - c erfc(sqrt(c/2))
        c = self._c(np.asarray(s, dtype=float))
        return np.sqrt(2.0 * c / math.pi) * np.exp(-0.5 * c) - c * scipy.special.erfc(np.sqrt(0.5 * c))

    def small_s_ratio(self, s):
        # int_0^1 x^2 p_c(x) dx = sqrt(c/2pi) y^{3/2} Gamma(-3/2, y) with y = c/2,
        # and Gamma(-3/2, y) follows from Gamma(1/2, y) = sqrt(pi) erfc(sqrt y)
        # by the recurrence Gamma(a, y) = (Gamma(a+1, y) - y^a e^{-y}) / a.
        c = self._c(s)
        y = 0.5 * c
        inside = math.sqrt(c / (2.0 * math.pi)) * (
            (2.0 / 3.0 - 4.0 / 3.0 * y) * math.exp(-y)
            + 4.0 / 3.0 * math.sqrt(math.pi) * y**1.5 * float(scipy.special.erfc(math.sqrt(y)))
        )
        tail = float(scipy.special.erf(math.sqrt(y)))
        return (inside + tail) / s


# ---------------------------------------------------------------------------
# Exponents.


def _truncation_shift(measure: LevyMeasure) -> float:
    """Drift the compensator removes: the integral of x over |x| <= 1, which
    vanishes for a symmetric measure."""
    return 0.0 if measure.symmetric else measure.truncated_moment(1, 1.0)


def finite_theta(theta) -> np.ndarray:
    """theta as a float array of at least one dimension, every entry finite."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.isfinite(th).all():
        raise DomainError(f"theta must be finite, got {th[~np.isfinite(th)][0]}")
    return th


def char_exponent(triplet: LevyTriplet, theta):
    """Log characteristic function of the time-one law at theta.

    theta may be a scalar (the result is a complex) or an array (the result
    is a complex array of its shape); theta = 0 gives exactly 0.  A theta
    that is not finite, or whose exponent is not, is refused.
    """
    th = finite_theta(theta)
    # an overflow, or inf - inf between the terms, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        value = (
            1j * th * triplet.drift
            - 0.5 * triplet.gaussian_var * th * th
            + triplet.jumps.char_integral(th)
        )
    bad = ~np.isfinite(value)
    if bad.any():
        raise DomainError(f"the exponent at theta = {th[bad][0]:g} is past the float range")
    value = np.where(th == 0.0, 0.0 + 0.0j, value)
    return complex(value[0]) if np.ndim(theta) == 0 else value


def laplace_exponent(pair: SubordinatorPair, z):
    """Laplace exponent of the subordinator at z with Re z <= 0.

    z may be a scalar (the result is a complex) or an array, checked entry
    by entry; z = 0 gives exactly 0.  Tiny positive real parts (roundoff
    from composed exponents) are clamped.
    """
    zz = np.array(np.atleast_1d(z), dtype=complex)
    bad = zz.real > 1e-12 * np.maximum(1.0, np.abs(zz))
    if bad.any():
        raise DomainError(f"laplace exponent needs Re z <= 0, got {zz[bad][0]}")
    zz.real = np.where(zz.real > 0.0, 0.0, zz.real)
    value = pair.drift * zz + pair.jumps.laplace_integral(zz)
    value = np.where(zz == 0.0, 0.0 + 0.0j, value)
    return complex(value[0]) if np.ndim(z) == 0 else value
