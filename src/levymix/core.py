"""Jump measures, characteristic triplets, subordinator pairs and tagged laws.

The measure side is a closed tagged union.  Each family implements the small
set of functionals the rest of the library consumes: interval masses,
truncated moments, (1 and |x|**p) integrals with an explicit infinity, a
tail sampler for jumps above a threshold, its Laplace and characteristic
integrals, and an exact increment sampler where one exists.  Closed forms
are used wherever the family admits one; quadrature only for tabulated
densities and the index-1 one-sided case.  ``LevyTriplet.law`` turns the
tag of a constructed law into a ``TaggedLaw`` that owns the closed forms of
its convolution powers mu^s.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
from scipy import special

from . import quadrature
from .errors import (
    DomainError,
    NotFiniteVariation,
    QuadratureFailure,
    UnsupportedFamily,
)

INF = math.inf


class TruncationConvention(Enum):
    """Compensator choice in the exponent: x on |x| <= 1, or none at all."""

    STANDARD = "standard"
    ZERO = "zero"


class MeasureFamily(Enum):
    ZERO = "zero"
    GAMMA = "gamma"
    ONE_SIDED_STABLE = "one_sided_stable"
    SYMMETRIC_STABLE = "symmetric_stable"
    FINITE_ATOMIC = "finite_atomic"
    FINITE_PARAMETRIC = "finite_parametric"
    TABULATED = "tabulated"


class MeasureClass(Enum):
    """Nested integrability classes; classification picks the smallest."""

    FINITE = "finite"
    FINITE_VARIATION = "finite_variation"
    LEVY = "levy"
    NOT_LEVY = "not_levy"


class LawFamily(Enum):
    """Marginal families whose convolution powers have closed forms."""

    GAUSSIAN = "gaussian"
    GAMMA = "gamma"
    POISSON = "poisson"
    SYMMETRIC_STABLE = "symmetric_stable"
    ONE_SIDED_STABLE = "one_sided_stable"
    DELTA = "delta"


def _require(cond, message):
    if not cond:
        raise DomainError(message)


def _where_positive(x, f, *params):
    """f(x, *params) where x > 0 and 0 elsewhere, broadcasting x against params."""
    x = np.asarray(x, dtype=float)
    if params:
        x, *params = np.broadcast_arrays(x, *params)
    out = np.zeros(x.shape)
    pos = x > 0
    out[pos] = f(x[pos], *(p[pos] for p in params))
    return out


class LevyMeasure(ABC):
    """Common interface of all jump-measure families."""

    family: MeasureFamily
    symmetric = False  # symmetric measures have a vanishing compensator integral

    @abstractmethod
    def total_mass(self) -> float:
        """Total mass, possibly math.inf."""

    @abstractmethod
    def interval_mass(self, lo: float, hi: float) -> float:
        """Mass of the half-open interval (lo, hi]."""

    @abstractmethod
    def truncated_moment(self, power: int, cutoff: float = 1.0) -> float:
        """Integral of x**power over |x| <= cutoff; NotFiniteVariation if it diverges."""

    @abstractmethod
    def one_wedge(self, power: int) -> float:
        """Integral of min(1, |x|**power); math.inf is an explicit return value."""

    @abstractmethod
    def sample_tail(self, rng, eps: float, size: int) -> np.ndarray:
        """Draw jumps from the measure conditioned on |x| > eps."""

    @abstractmethod
    def tail_cutoff(self, tol: float) -> float:
        """A point S with mass_above(S) < tol."""

    @abstractmethod
    def scaled(self, factor: float) -> "LevyMeasure":
        """The measure multiplied by a positive scalar."""

    def char_integral(self, theta, convention: "TruncationConvention"):
        """Integral of exp(i theta x) - 1 - i theta tau(x), elementwise over a
        theta array: the Laplace integral at i theta less the compensator."""
        return self.laplace_integral(1j * theta) - 1j * theta * _truncation_shift(self, convention)

    def laplace_integral(self, z):
        """Integral of exp(z x) - 1, elementwise over a z array."""
        raise UnsupportedFamily(f"no laplace exponent for family {self.family}")

    def sample_increments(self, dt: float, n: int, rng):
        """Per-step sum of all jumps over n steps of length dt, or None when
        the family has no exact sampler (callers then truncate small jumps)."""
        return None

    def image_in_ml1(self, alpha: float) -> bool:
        """Whether the image under s -> s**(1/alpha) integrates (1 and t), given
        that the measure integrates (1 and s): only a power law at 0 breaks it."""
        return True

    def mass_above(self, eps: float) -> float:
        _require(eps > 0, "threshold must be positive")
        return self.interval_mass(eps, INF) + self.interval_mass(-INF, -eps)

    def is_zero(self) -> bool:
        return False

    def is_positive(self) -> bool:
        """True when the support lies in (0, inf)."""
        return False

    def classify(self) -> MeasureClass:
        if self.total_mass() < INF:
            return MeasureClass.FINITE
        if self.one_wedge(1) < INF:
            return MeasureClass.FINITE_VARIATION
        if self.one_wedge(2) < INF:
            return MeasureClass.LEVY
        return MeasureClass.NOT_LEVY


@dataclass(frozen=True)
class ZeroMeasure(LevyMeasure):
    family = MeasureFamily.ZERO

    def total_mass(self):
        return 0.0

    def interval_mass(self, lo, hi):
        return 0.0

    def truncated_moment(self, power, cutoff=1.0):
        return 0.0

    def one_wedge(self, power):
        return 0.0

    def sample_tail(self, rng, eps, size):
        raise DomainError("the zero measure has no jumps to sample")

    def tail_cutoff(self, tol):
        return 1.0

    def scaled(self, factor):
        return self

    def laplace_integral(self, z):
        return np.zeros(np.shape(z), dtype=complex)

    def sample_increments(self, dt, n, rng):
        return np.zeros(n)

    def is_zero(self):
        return True

    def is_positive(self):
        return True


@dataclass(frozen=True)
class GammaMeasure(LevyMeasure):
    """Density shape * x**-1 * exp(-rate*x) on (0, inf)."""

    shape: float
    rate: float
    family = MeasureFamily.GAMMA

    def __post_init__(self):
        _require(self.shape > 0, "shape must be > 0")
        _require(self.rate > 0, "rate must be > 0")

    def density(self, x):
        return _where_positive(x, lambda x: self.shape / x * np.exp(-self.rate * x))

    def total_mass(self):
        return INF

    def interval_mass(self, lo, hi):
        lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        if lo == 0.0:
            return INF
        upper = 0.0 if math.isinf(hi) else special.exp1(self.rate * hi)
        return self.shape * (special.exp1(self.rate * lo) - upper)

    def truncated_moment(self, power, cutoff=1.0):
        t = self.rate * cutoff
        if power == 1:
            return self.shape * (1.0 - math.exp(-t)) / self.rate
        if power == 2:
            return self.shape * (1.0 - math.exp(-t) * (1.0 + t)) / self.rate**2
        raise DomainError("power must be 1 or 2")

    def one_wedge(self, power):
        return self.truncated_moment(power, 1.0) + self.shape * special.exp1(self.rate)

    def sample_tail(self, rng, eps, size):
        # Proposal eps + Exp(rate); accept with probability eps / x.
        out = np.empty(size)
        filled = 0
        while filled < size:
            n = max(size - filled, 16)
            x = eps + rng.exponential(1.0 / self.rate, n)
            keep = x[rng.random(n) * x < eps]
            take = min(keep.size, size - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out

    def tail_cutoff(self, tol):
        s = 1.0 / self.rate
        while self.shape * special.exp1(self.rate * s) >= tol:
            s *= 2.0
        return s

    def scaled(self, factor):
        return GammaMeasure(self.shape * factor, self.rate)

    def laplace_integral(self, z):
        return -self.shape * np.log(1.0 - z / self.rate)

    def sample_increments(self, dt, n, rng):
        return rng.gamma(self.shape * dt, 1.0 / self.rate, n)

    def is_positive(self):
        return True


@dataclass(frozen=True)
class OneSidedStableMeasure(LevyMeasure):
    """Density coeff * x**-(index+1) on (0, inf); index in (0, 2)."""

    index: float
    coeff: float
    family = MeasureFamily.ONE_SIDED_STABLE

    def __post_init__(self):
        _require(0 < self.index < 2, "index must lie in (0, 2)")
        _require(self.coeff > 0, "coeff must be > 0")

    def density(self, x):
        return _where_positive(x, lambda x: self.coeff * x ** (-self.index - 1.0))

    def total_mass(self):
        return INF

    def interval_mass(self, lo, hi):
        lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        if lo == 0.0:
            return INF
        upper = 0.0 if math.isinf(hi) else hi ** (-self.index)
        return self.coeff * (lo ** (-self.index) - upper) / self.index

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

    def one_wedge(self, power):
        tail = self.coeff / self.index
        if power == 1:
            if self.index >= 1:
                return INF
            return self.coeff / (1.0 - self.index) + tail
        if power == 2:
            return self.coeff / (2.0 - self.index) + tail
        raise DomainError("power must be 1 or 2")

    def sample_tail(self, rng, eps, size):
        # Pareto tail: P(X > x | X > eps) = (x/eps)**-index.
        return eps * rng.random(size) ** (-1.0 / self.index)

    def tail_cutoff(self, tol):
        return (self.coeff / (self.index * tol)) ** (1.0 / self.index)

    def scaled(self, factor):
        return OneSidedStableMeasure(self.index, self.coeff * factor)

    def char_integral(self, theta, convention):
        a, c = self.index, self.coeff
        if a < 1:
            return super().char_integral(theta, convention)
        if convention is TruncationConvention.ZERO:
            raise NotFiniteVariation("zero truncation needs index < 1")
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
        return self.coeff * math.gamma(-self.index) * (-z) ** self.index

    def sample_increments(self, dt, n, rng):
        if self.index != 0.5:
            return None
        return _levy_positive(rng, levy_dist_scale(self.coeff * dt), n)

    def image_in_ml1(self, alpha):
        return self.index < 1.0 / alpha

    def is_positive(self):
        return True


@dataclass(frozen=True)
class SymmetricStableMeasure(LevyMeasure):
    """Density coeff * |x|**-(index+1) on both half-lines; index in (0, 2)."""

    index: float
    coeff: float
    family = MeasureFamily.SYMMETRIC_STABLE
    symmetric = True

    def __post_init__(self):
        _require(0 < self.index < 2, "index must lie in (0, 2)")
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
        half = self._half().one_wedge(power)
        return INF if math.isinf(half) else 2.0 * half

    def sample_tail(self, rng, eps, size):
        signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        return signs * self._half().sample_tail(rng, eps, size)

    def tail_cutoff(self, tol):
        return self._half().tail_cutoff(tol / 2.0)

    def scaled(self, factor):
        return SymmetricStableMeasure(self.index, self.coeff * factor)

    def char_integral(self, theta, convention):
        # The compensator integral vanishes by symmetry under both conventions.
        if convention is TruncationConvention.ZERO and self.index >= 1:
            raise NotFiniteVariation("zero truncation needs index < 1")
        return np.asarray(
            -2.0 * self.coeff * stable_cos_integral(self.index) * np.abs(theta) ** self.index,
            dtype=complex,
        )

    def sample_increments(self, dt, n, rng):
        # Symmetric jumps compensate to zero shift regardless of index.
        alpha = self.index
        scale = (2.0 * self.coeff * stable_cos_integral(alpha)) ** (1.0 / alpha)
        return scale * dt ** (1.0 / alpha) * _standard_symmetric_stable(rng, alpha, n)


@dataclass(frozen=True)
class AtomicMeasure(LevyMeasure):
    """Finitely many atoms (position, mass); positions nonzero, masses positive."""

    atoms: tuple
    family = MeasureFamily.FINITE_ATOMIC

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

    def positions(self):
        return np.array([p for p, _ in self.atoms])

    def masses(self):
        return np.array([m for _, m in self.atoms])

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

    def sample_tail(self, rng, eps, size):
        pairs = [(p, m) for p, m in self.atoms if abs(p) > eps]
        if not pairs:
            raise DomainError(f"no atoms above threshold {eps}")
        pos = np.array([p for p, _ in pairs])
        w = np.array([m for _, m in pairs])
        return rng.choice(pos, size=size, p=w / w.sum())

    def tail_cutoff(self, tol):
        return max(abs(p) for p, _ in self.atoms) * (1.0 + 1e-12)

    def scaled(self, factor):
        return AtomicMeasure(tuple((p, m * factor) for p, m in self.atoms))

    def laplace_integral(self, z):
        total = 0.0
        for pos, mass in self.atoms:
            total = total + mass * (np.exp(z * pos) - 1.0)
        return total

    def sample_increments(self, dt, n, rng):
        total = 0.0
        for pos, mass in self.atoms:
            total = total + pos * rng.poisson(mass * dt, n)
        return total

    def is_positive(self):
        return all(p > 0 for p, _ in self.atoms)


@dataclass(frozen=True)
class CompoundExponentialMeasure(LevyMeasure):
    """Finite parametric family: total mass ``rate`` with exponential jump law.

    Density rate * jump_rate * exp(-jump_rate * x) on (0, inf).
    """

    rate: float
    jump_rate: float
    family = MeasureFamily.FINITE_PARAMETRIC

    def __post_init__(self):
        _require(self.rate > 0, "rate must be > 0")
        _require(self.jump_rate > 0, "jump_rate must be > 0")

    def density(self, x):
        return _where_positive(x, lambda x: self.rate * self.jump_rate * np.exp(-self.jump_rate * x))

    def total_mass(self):
        return self.rate

    def interval_mass(self, lo, hi):
        lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        upper = 0.0 if math.isinf(hi) else math.exp(-self.jump_rate * hi)
        return self.rate * (math.exp(-self.jump_rate * lo) - upper)

    def truncated_moment(self, power, cutoff=1.0):
        t = self.jump_rate * cutoff
        if power == 1:
            return self.rate * (1.0 - math.exp(-t) * (1.0 + t)) / self.jump_rate
        if power == 2:
            return (
                self.rate
                * (2.0 - math.exp(-t) * (t * t + 2.0 * t + 2.0))
                / self.jump_rate**2
            )
        raise DomainError("power must be 1 or 2")

    def one_wedge(self, power):
        return self.truncated_moment(power, 1.0) + self.interval_mass(1.0, INF)

    def sample_tail(self, rng, eps, size):
        # Memorylessness: the law above eps is eps + Exp(jump_rate).
        return eps + rng.exponential(1.0 / self.jump_rate, size)

    def tail_cutoff(self, tol):
        return max(1.0, math.log(max(self.rate / tol, 2.0)) / self.jump_rate)

    def scaled(self, factor):
        return CompoundExponentialMeasure(self.rate * factor, self.jump_rate)

    def laplace_integral(self, z):
        return self.rate * z / (self.jump_rate - z)

    def sample_increments(self, dt, n, rng):
        counts = rng.poisson(self.rate * dt, n)
        out = np.zeros(n)
        busy = counts > 0
        if busy.any():
            out[busy] = rng.gamma(counts[busy].astype(float), 1.0 / self.jump_rate)
        return out

    def is_positive(self):
        return True


@dataclass(frozen=True)
class TabulatedMeasure(LevyMeasure):
    """Piecewise-linear density on a strictly increasing grid; zero off-grid.

    The grid must sit entirely on one side of zero.
    """

    xs: tuple
    dens: tuple
    family = MeasureFamily.TABULATED

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

    def integrate(self, f):
        """(value, error) of f integrated against the measure; error checked."""
        return quadrature.integrate_tabulated(f, self.xs, self.dens)

    def _integral(self, f, tol=1e-6):
        value, err = self.integrate(f)
        if err > max(tol, 1e-6 * abs(value)):
            raise QuadratureFailure(
                f"tabulated grid too coarse: error estimate {err:.3e}"
            )
        return value

    def total_mass(self):
        xs, dens = self._grid()
        return float(np.trapezoid(dens, xs))

    def _trapezoid(self, lo, hi, power=0):
        """Trapezoid integral of x**power times the density over [lo, hi] cut to the grid."""
        xs, _ = self._grid()
        lo, hi = max(lo, xs[0]), min(hi, xs[-1])
        if hi <= lo:
            return 0.0
        grid = np.concatenate(([lo], xs[(xs > lo) & (xs < hi)], [hi]))
        return float(np.trapezoid(grid**power * self.density(grid), grid))

    def interval_mass(self, lo, hi):
        return self._trapezoid(lo, hi)

    def truncated_moment(self, power, cutoff=1.0):
        return self._trapezoid(-cutoff, cutoff, power)

    def one_wedge(self, power):
        return float(self._integral(lambda x: np.minimum(1.0, np.abs(x) ** power)))

    def sample_tail(self, rng, eps, size):
        xs, dens = self._grid()
        if xs[0] > 0:
            grid = np.clip(xs, eps, None)
        else:
            grid = np.clip(xs, None, -eps)
        # Cell masses by trapezoid, then uniform placement inside each cell.
        cells = 0.5 * (dens[:-1] + dens[1:]) * np.maximum(grid[1:] - grid[:-1], 0.0)
        total = cells.sum()
        if total <= 0:
            raise DomainError(f"no tabulated mass above threshold {eps}")
        idx = rng.choice(cells.size, size=size, p=cells / total)
        u = rng.random(size)
        return grid[idx] + u * (grid[idx + 1] - grid[idx])

    def tail_cutoff(self, tol):
        return abs(self.xs[-1]) * (1.0 + 1e-12) if self.xs[0] > 0 else abs(self.xs[0])

    def scaled(self, factor):
        return TabulatedMeasure(self.xs, tuple(v * factor for v in self.dens))

    def laplace_integral(self, z):
        return _elementwise(lambda w: self._integral(lambda s: np.exp(w * s) - 1.0), z)

    def is_positive(self):
        return self.xs[0] > 0


ZERO_MEASURE = ZeroMeasure()


def stable_cos_integral(alpha: float) -> float:
    """The constant integral of (1 - cos u) * u**-(1+alpha) over (0, inf)."""
    if not 0 < alpha < 2:
        raise DomainError("alpha must lie in (0, 2)")
    if alpha == 1.0:
        return math.pi / 2.0
    return -math.gamma(-alpha) * math.cos(math.pi * alpha / 2.0)


def _standard_symmetric_stable(rng, alpha: float, size) -> np.ndarray:
    # Chambers-Mallows-Stuck; log-CF -|theta|**alpha.
    v = math.pi * (rng.random(size) - 0.5)
    if alpha == 1.0:
        return np.tan(v)
    w = rng.exponential(1.0, size)
    return (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
    )


def _levy_positive(rng, c, size) -> np.ndarray:
    # One-sided 1/2-stable with density sqrt(c/2 pi) x^-3/2 e^{-c/2x}: c / Z^2.
    z = rng.standard_normal(size)
    while True:
        bad = z == 0.0
        if not bad.any():
            break
        z[bad] = rng.standard_normal(int(bad.sum()))
    return np.asarray(c) / (z * z)


@dataclass(frozen=True)
class LevyTriplet:
    """Characteristic triplet (drift, gaussian_var, jumps) under a convention.

    law_family / law_params tag triplets built by the law constructors so the
    convolution powers of the time-one law stay available in closed form.
    """

    drift: float
    gaussian_var: float
    jumps: LevyMeasure
    convention: TruncationConvention = TruncationConvention.STANDARD
    law_family: LawFamily | None = None
    law_params: tuple = ()

    def __post_init__(self):
        _require(self.gaussian_var >= 0, "gaussian_var must be >= 0")
        if self.convention is TruncationConvention.ZERO:
            if self.jumps.one_wedge(1) == INF:
                raise NotFiniteVariation(
                    "the zero-truncation convention needs finite variation jumps"
                )

    def is_degenerate(self) -> bool:
        """True for a point mass (pure drift, possibly zero)."""
        return self.gaussian_var == 0.0 and self.jumps.is_zero()

    @cached_property
    def law(self) -> "TaggedLaw | None":
        """Closed forms of the tagged family's convolution powers; None when untagged."""
        if self.law_family is None:
            return None
        return _LAW_CLASSES[self.law_family](*self.law_params)


@dataclass(frozen=True)
class SubordinatorPair:
    """Drift >= 0 plus a jump measure on (0, inf) with finite variation."""

    drift: float
    jumps: LevyMeasure

    def __post_init__(self):
        _require(self.drift >= 0, "subordinator drift must be >= 0")
        if not self.jumps.is_positive():
            raise DomainError("subordinator jumps must live on (0, inf)")
        if self.jumps.one_wedge(1) == INF:
            raise NotFiniteVariation("subordinator jumps must integrate (1 and x)")

    def is_zero(self) -> bool:
        return self.drift == 0.0 and self.jumps.is_zero()


# ---------------------------------------------------------------------------
# Law constructors.


def gaussian_law(mean: float = 0.0, variance: float = 1.0) -> LevyTriplet:
    _require(variance > 0, "variance must be > 0 (use delta_law for a point mass)")
    return LevyTriplet(
        mean, variance, ZERO_MEASURE, TruncationConvention.STANDARD,
        LawFamily.GAUSSIAN, (mean, variance),
    )


def gamma_law(shape: float, rate: float) -> LevyTriplet:
    nu = GammaMeasure(shape, rate)
    return LevyTriplet(
        nu.truncated_moment(1, 1.0), 0.0, nu, TruncationConvention.STANDARD,
        LawFamily.GAMMA, (shape, rate),
    )


def poisson_law(rate: float, jump_size: float = 1.0) -> LevyTriplet:
    _require(rate > 0, "rate must be > 0")
    _require(jump_size != 0, "jump_size must be nonzero")
    nu = AtomicMeasure(((jump_size, rate),))
    drift = rate * jump_size if abs(jump_size) <= 1.0 else 0.0
    return LevyTriplet(
        drift, 0.0, nu, TruncationConvention.STANDARD,
        LawFamily.POISSON, (rate, jump_size),
    )


def delta_law(drift: float) -> LevyTriplet:
    return LevyTriplet(
        drift, 0.0, ZERO_MEASURE, TruncationConvention.STANDARD,
        LawFamily.DELTA, (drift,),
    )


def symmetric_stable_law(alpha: float, scale: float) -> LevyTriplet:
    """Strictly alpha-stable symmetric law with log-CF -(scale*|theta|)**alpha."""
    _require(0 < alpha < 2, "alpha must lie in (0, 2); use gaussian_law for alpha=2")
    _require(scale > 0, "scale must be > 0")
    coeff = scale**alpha / (2.0 * stable_cos_integral(alpha))
    nu = SymmetricStableMeasure(alpha, coeff)
    return LevyTriplet(
        0.0, 0.0, nu, TruncationConvention.STANDARD,
        LawFamily.SYMMETRIC_STABLE, (alpha, scale),
    )


def cauchy_law(scale: float) -> LevyTriplet:
    return symmetric_stable_law(1.0, scale)


def one_sided_stable_law(alpha: float, coeff: float) -> LevyTriplet:
    """Strictly alpha-stable subordinator law, jump density coeff * x**-(1+alpha)."""
    _require(0 < alpha < 1, "alpha must lie in (0, 1) for a one-sided stable law")
    nu = OneSidedStableMeasure(alpha, coeff)
    return LevyTriplet(
        nu.truncated_moment(1, 1.0), 0.0, nu, TruncationConvention.STANDARD,
        LawFamily.ONE_SIDED_STABLE, (alpha, coeff),
    )


def levy_dist_scale(coeff: float) -> float:
    """Scale of the one-sided 1/2-stable law with jump density coeff*x**-3/2.

    The law has density sqrt(c/(2 pi)) x**-3/2 exp(-c/(2x)) with c returned
    here, matching Laplace transform exp(-2 coeff sqrt(pi u)).
    """
    return 2.0 * math.pi * coeff * coeff


# ---------------------------------------------------------------------------
# Tagged laws: closed forms of the convolution powers mu^s.


def _poisson_count_cdf(n, mean):
    """P(K <= n) for K Poisson(mean); n may be any float (floored)."""
    if n < 0:
        return 0.0
    if math.isinf(n):
        return 1.0
    if mean == 0.0:
        return 1.0
    return float(special.gammaincc(math.floor(n) + 1.0, mean))


def _npdf(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


class TaggedLaw:
    """Closed forms of the convolution powers mu^s of one tagged law family.

    Scalar: ``cdf(s, x)``, ``interval_mass(s, lo, hi)``, ``truncated_mean(s)``
    (the integral of x over |x| <= 1) and ``small_s_ratio(s)``.  Broadcasting
    over s: ``density(s, x)``, the upper tail ``sf(s, x)`` for x > 0 and, for
    heavy tails, ``density_derivs`` (p, p', p'').  ``sample(r, rng)`` draws
    one value from mu^r per entry of r.
    """

    family: LawFamily
    sides = (-1, 1)  # sides of 0 on which mu^s has a density
    heavy_tail = False  # power-law tails: the x-grid gets a tail expansion
    mix_route = "grid"  # mixed jump measure: "grid", "atomic" or "pushforward"
    power_samplable = True

    def interval_mass(self, s, lo, hi):
        return max(self.cdf(s, hi) - self.cdf(s, lo), 0.0)

    def density(self, s, x):
        raise UnsupportedFamily(f"no closed density for {self.family}")

    def require_stable(self, alpha: float) -> None:
        """Raise unless the law is strictly alpha-stable with a closed cdf."""
        raise UnsupportedFamily(f"{self.family} is not a supported strictly stable base")


@dataclass(frozen=True)
class GaussianLaw(TaggedLaw):
    mean: float
    var: float
    family = LawFamily.GAUSSIAN

    def cdf(self, s, x):
        return float(special.ndtr((x - self.mean * s) / math.sqrt(self.var * s)))

    def sf(self, s, x):
        return special.ndtr((self.mean * s - x) / np.sqrt(self.var * s))

    def density(self, s, x):
        sd = np.sqrt(self.var * s)
        z = (x - self.mean * s) / sd
        return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    def _unit_interval(self, s):
        """Mean and sd of mu^s, and -1 and 1 in its standard units."""
        m, sd = self.mean * s, math.sqrt(self.var * s)
        return m, sd, (-1.0 - m) / sd, (1.0 - m) / sd

    def truncated_mean(self, s):
        if self.mean == 0.0:
            return 0.0  # symmetric law: exact cancellation
        m, sd, alpha, beta = self._unit_interval(s)
        return m * (special.ndtr(beta) - special.ndtr(alpha)) - sd * (_npdf(beta) - _npdf(alpha))

    def small_s_ratio(self, s):
        m, sd, alpha, beta = self._unit_interval(s)
        gap = float(special.ndtr(beta) - special.ndtr(alpha))
        inside_sq = (
            (m * m + sd * sd) * gap
            + 2.0 * m * sd * (_npdf(alpha) - _npdf(beta))
            + sd * sd * (alpha * _npdf(alpha) - beta * _npdf(beta))
        )
        tails = 1.0 - gap
        return (inside_sq + tails) / s

    def sample(self, r, rng):
        return self.mean * r + np.sqrt(self.var * r) * rng.standard_normal(r.shape)

    def require_stable(self, alpha):
        if alpha != 2.0:
            raise DomainError("a gaussian base is 2-stable")
        if self.mean != 0.0:
            raise DomainError("strict 2-stability needs mean 0")


@dataclass(frozen=True)
class GammaLaw(TaggedLaw):
    shape: float
    rate: float
    family = LawFamily.GAMMA
    sides = (1,)

    def cdf(self, s, x):
        if x <= 0:
            return 0.0
        return float(special.gammainc(self.shape * s, self.rate * x))

    def sf(self, s, x):
        return special.gammaincc(self.shape * s, self.rate * x)

    def density(self, s, x):
        rate = self.rate
        return _where_positive(
            x,
            lambda x, a: np.exp(a * math.log(rate) + (a - 1.0) * np.log(x) - rate * x - special.gammaln(a)),
            self.shape * s,
        )

    def truncated_mean(self, s):
        a = self.shape * s
        return a / self.rate * float(special.gammainc(a + 1.0, self.rate))

    def small_s_ratio(self, s):
        a = self.shape * s
        inside = a * (a + 1.0) / self.rate**2 * float(special.gammainc(a + 2.0, self.rate))
        tail = 1.0 - float(special.gammainc(a, self.rate))
        return (inside + tail) / s

    def sample(self, r, rng):
        return rng.gamma(self.shape * r, 1.0 / self.rate)


@dataclass(frozen=True)
class PoissonLaw(TaggedLaw):
    rate: float
    jump_size: float
    family = LawFamily.POISSON
    mix_route = "atomic"

    def cdf(self, s, x):
        return self.interval_mass(s, -INF, x)

    def interval_mass(self, s, lo, hi):
        # Sum atom masses directly so half-open boundaries land on atoms exactly.
        h = self.jump_size
        mean = self.rate * s
        if h > 0:
            k_lo = math.floor(lo / h) if not math.isinf(lo) else (-INF if lo < 0 else INF)
            k_hi = math.floor(hi / h) if not math.isinf(hi) else (-INF if hi < 0 else INF)
            return _poisson_count_cdf(k_hi, mean) - _poisson_count_cdf(k_lo, mean)
        k_top = math.ceil(lo / h) - 1 if not math.isinf(lo) else (INF if lo < 0 else -INF)
        k_bot = math.ceil(hi / h) if not math.isinf(hi) else (-INF if hi > 0 else INF)
        return _poisson_count_cdf(k_top, mean) - _poisson_count_cdf(k_bot - 1, mean)

    def _inner_counts(self, s):
        """Counts k >= 1 with |h k| <= 1 and their probabilities under mu^s."""
        mean = self.rate * s
        ks = np.arange(1, math.floor(1.0 / abs(self.jump_size)) + 1, dtype=float)
        return ks, np.exp(ks * math.log(mean) - mean - special.gammaln(ks + 1.0))

    def truncated_mean(self, s):
        ks, pmf = self._inner_counts(s)
        if ks.size == 0:
            return 0.0
        return float(self.jump_size * np.sum(ks * pmf))

    def small_s_ratio(self, s):
        ks, pmf = self._inner_counts(s)
        inside = float(np.sum((self.jump_size * ks) ** 2 * pmf))
        tail = 1.0 - _poisson_count_cdf(ks.size, self.rate * s)
        return (inside + tail) / s

    def sample(self, r, rng):
        return self.jump_size * rng.poisson(self.rate * r)


@dataclass(frozen=True)
class DeltaLaw(TaggedLaw):
    drift: float
    family = LawFamily.DELTA
    mix_route = "pushforward"

    def cdf(self, s, x):
        return 1.0 if self.drift * s <= x else 0.0

    def truncated_mean(self, s):
        x = self.drift * s
        return x if abs(x) <= 1.0 else 0.0

    def sample(self, r, rng):
        return self.drift * r


class _StableLaw(TaggedLaw):
    """Strictly stable families, whose closed forms exist at one index only."""

    heavy_tail = True
    closed_index: float

    def _closed(self):
        if self.alpha != self.closed_index:
            raise UnsupportedFamily(
                f"{self.family.value} convolution powers implemented for index "
                f"{self.closed_index} only"
            )

    def require_stable(self, alpha):
        if alpha != self.alpha:
            raise DomainError(f"base law has stability index {self.alpha}, not {alpha}")
        self._closed()


@dataclass(frozen=True)
class SymmetricStableLaw(_StableLaw):
    alpha: float
    scale: float
    family = LawFamily.SYMMETRIC_STABLE
    closed_index = 1.0

    def _c(self, s):
        self._closed()
        return self.scale * s

    def cdf(self, s, x):
        return 0.5 + math.atan(x / self._c(s)) / math.pi

    def sf(self, s, x):
        return 0.5 - np.arctan(x / self._c(s)) / math.pi

    def density(self, s, x):
        c = self._c(s)
        return c / (math.pi * (x * x + c * c))

    def density_derivs(self, s, x):
        c = self._c(s)
        denom = x * x + c * c
        p = c / (math.pi * denom)
        p1 = -2.0 * x * c / (math.pi * denom**2)
        p2 = c * (6.0 * x * x - 2.0 * c * c) / (math.pi * denom**3)
        return p, p1, p2

    def truncated_mean(self, s):
        return 0.0

    def small_s_ratio(self, s):
        c = self._c(s)
        inside = (c / math.pi) * (1.0 - c * math.atan(1.0 / c))
        tail = 0.5 - math.atan(1.0 / c) / math.pi
        return 2.0 * (inside + tail) / s

    def sample(self, r, rng):
        return self.scale * r ** (1.0 / self.alpha) * _standard_symmetric_stable(rng, self.alpha, r.shape)


@dataclass(frozen=True)
class OneSidedStableLaw(_StableLaw):
    alpha: float
    coeff: float
    family = LawFamily.ONE_SIDED_STABLE
    closed_index = 0.5
    sides = (1,)

    @property
    def power_samplable(self):
        return self.alpha == self.closed_index

    def _c(self, s):
        self._closed()
        return levy_dist_scale(self.coeff) * s * s

    def cdf(self, s, x):
        if x <= 0:
            return 0.0
        return float(special.erfc(math.sqrt(0.5 * self._c(s) / x)))

    def sf(self, s, x):
        return special.erf(np.sqrt(0.5 * self._c(s) / x))

    def density(self, s, x):
        return _where_positive(
            x, lambda x, c: np.sqrt(c / (2.0 * math.pi)) * x**-1.5 * np.exp(-0.5 * c / x), self._c(s)
        )

    def density_derivs(self, s, x):
        c = self._c(s)
        p = np.sqrt(c / (2.0 * math.pi)) * x**-1.5 * np.exp(-0.5 * c / x)
        g = -1.5 / x + 0.5 * c / (x * x)
        p1 = p * g
        p2 = p * (g * g + 1.5 / (x * x) - c / x**3)
        return p, p1, p2

    def truncated_mean(self, s):
        # int_0^1 x p_c(x) dx = sqrt(2c/pi) e^{-c/2} - c erfc(sqrt(c/2))
        c = self._c(s)
        return math.sqrt(2.0 * c / math.pi) * math.exp(-0.5 * c) - c * float(
            special.erfc(math.sqrt(0.5 * c))
        )

    def small_s_ratio(self, s):
        c = self._c(s)
        inside, _ = quadrature.integrate_interval(
            lambda x: x * x * math.sqrt(c / (2 * math.pi)) * x**-1.5
            * math.exp(-0.5 * c / x),
            0.0, 1.0, tol=1e-14,
        )
        tail = float(special.erf(math.sqrt(0.5 * c)))
        return (inside + tail) / s

    def sample(self, r, rng):
        return _levy_positive(rng, self._c(r), r.shape)


_LAW_CLASSES = {
    cls.family: cls
    for cls in (GaussianLaw, GammaLaw, PoissonLaw, DeltaLaw, SymmetricStableLaw, OneSidedStableLaw)
}


# ---------------------------------------------------------------------------
# Exponents.


def _truncation_shift(measure: LevyMeasure, convention: TruncationConvention) -> float:
    """Drift the compensator removes: the integral of x over |x| <= 1 under
    the standard convention, which vanishes for a symmetric measure."""
    if convention is TruncationConvention.STANDARD and not measure.symmetric:
        return measure.truncated_moment(1, 1.0)
    return 0.0


def _elementwise(fn, values) -> np.ndarray:
    """fn applied to every entry of a scalar or array, as a complex array of its shape."""
    arr = np.asarray(values)
    return np.array([fn(v) for v in arr.ravel().tolist()], dtype=complex).reshape(arr.shape)


def char_exponent(triplet: LevyTriplet, theta):
    """Log characteristic function of the time-one law at theta.

    theta may be a scalar (the result is a complex) or an array (the result
    is a complex array of its shape); theta = 0 gives exactly 0.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    value = (
        1j * th * triplet.drift
        - 0.5 * triplet.gaussian_var * th * th
        + triplet.jumps.char_integral(th, triplet.convention)
    )
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


def truncated_mean(measure: LevyMeasure) -> float:
    """Integral of x over |x| <= 1 against the measure."""
    return measure.truncated_moment(1, 1.0)


def convert_convention(
    triplet: LevyTriplet, target: TruncationConvention
) -> LevyTriplet:
    """Re-express the triplet under the other truncation convention."""
    if triplet.convention is target:
        return triplet
    shift = truncated_mean(triplet.jumps)
    if target is TruncationConvention.ZERO:
        return replace(triplet, drift=triplet.drift - shift, convention=target)
    return replace(triplet, drift=triplet.drift + shift, convention=target)


def classify_measure(measure: LevyMeasure) -> MeasureClass:
    """Smallest of FINITE, FINITE_VARIATION, LEVY that applies, else NOT_LEVY."""
    return measure.classify()


def integral_one_wedge(measure: LevyMeasure, power: int) -> float:
    """Integral of min(1, |x|**power) with infinity as an explicit value."""
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    return measure.one_wedge(power)


# ---------------------------------------------------------------------------
# Composition helpers shared by tests and the convolution invariants.


def merge_measures(m1: LevyMeasure, m2: LevyMeasure) -> LevyMeasure:
    """Sum of two jump measures for the closed same-family combinations."""
    if m1.is_zero():
        return m2
    if m2.is_zero():
        return m1
    if isinstance(m1, AtomicMeasure) and isinstance(m2, AtomicMeasure):
        return AtomicMeasure(m1.atoms + m2.atoms)
    if isinstance(m1, GammaMeasure) and isinstance(m2, GammaMeasure) and m1.rate == m2.rate:
        return GammaMeasure(m1.shape + m2.shape, m1.rate)
    if (
        isinstance(m1, OneSidedStableMeasure)
        and isinstance(m2, OneSidedStableMeasure)
        and m1.index == m2.index
    ):
        return OneSidedStableMeasure(m1.index, m1.coeff + m2.coeff)
    if (
        isinstance(m1, CompoundExponentialMeasure)
        and isinstance(m2, CompoundExponentialMeasure)
        and m1.jump_rate == m2.jump_rate
    ):
        return CompoundExponentialMeasure(m1.rate + m2.rate, m1.jump_rate)
    raise UnsupportedFamily(
        f"cannot merge {m1.family.value} with {m2.family.value}"
    )


def merge_pairs(p1: SubordinatorPair, p2: SubordinatorPair) -> SubordinatorPair:
    """Convolution of two subordinator laws: drifts and jump measures add."""
    return SubordinatorPair(p1.drift + p2.drift, merge_measures(p1.jumps, p2.jumps))
