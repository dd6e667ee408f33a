"""Measure functionals, law constructors, and exponent evaluation.

Numeric targets were frozen from independent scipy/mpmath computations on
the defining integrals (see the top-of-file constants); closed identities
are asserted at machine precision.
"""
import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levymix as lm
from levymix.core import (
    AtomicMeasure,
    CompoundExponentialMeasure,
    DeltaLaw,
    GammaLaw,
    GammaMeasure,
    GaussianLaw,
    LevyTriplet,
    OneSidedStableLaw,
    OneSidedStableMeasure,
    PoissonLaw,
    SubordinatorPair,
    SymmetricStableLaw,
    SymmetricStableMeasure,
    TabulatedMeasure,
    TruncationConvention,
    ZERO_MEASURE,
)
from levymix.errors import DomainError, NotFiniteVariation, QuadratureFailure

INF = float("inf")

# mp.quad of shape*exp(-rate*x)/x and its moment integrands, shape=2 rate=3
GAMMA_MEASURE_MASS_05_2 = 0.19931899990894
GAMMA_MEASURE_TM1 = 0.63347528775475737
GAMMA_MEASURE_TM2 = 0.1779670503396765
GAMMA_MEASURE_ONE_WEDGE1 = 0.65957204994315144
GAMMA_MEASURE_MASS_ABOVE1 = 0.026096762188394074
# mp.quad of 0.7*x**-1.5 integrands
OSS_MASS_1_4 = 0.69999999999999996
OSS_TM1 = 1.3999999999999999
OSS_ONE_WEDGE2 = 1.8666666666666665
# mp.quad of 1.2*2.5*exp(-2.5x) integrands
CEXP_MASS_03_11 = 0.49012642984116861
CEXP_TM1 = 0.34209720231185003
# cmath evaluations of the closed log-CF forms
CHAR_GAMMA23_17 = complex(-0.27847313336647106, 1.0310980149179581)
CHAR_POISSON_09 = complex(-0.487878652553416, 0.73660047818890861)
CHAR_SSTABLE_2 = -2.414953415699773
# 0.4*(-1.1) + mp.quad of (exp(-1.1 s) - 1) * 2 exp(-3 s)/s
LAPLACE_GAMMA_PAIR_M11 = -1.0647493700843049


def test_gamma_measure_functionals():
    g = GammaMeasure(2.0, 3.0)
    assert g.total_mass() == INF
    assert g.interval_mass(0.5, 2.0) == pytest.approx(GAMMA_MEASURE_MASS_05_2, abs=1e-14)
    assert g.truncated_moment(1, 1.0) == pytest.approx(GAMMA_MEASURE_TM1, rel=1e-14, abs=0.0)
    assert g.truncated_moment(2, 1.0) == pytest.approx(GAMMA_MEASURE_TM2, rel=1e-14, abs=0.0)
    assert g.one_wedge(1) == pytest.approx(GAMMA_MEASURE_ONE_WEDGE1, rel=1e-14, abs=0.0)
    assert g.mass_above(1.0) == pytest.approx(GAMMA_MEASURE_MASS_ABOVE1, rel=1e-13, abs=0.0)


def test_one_sided_stable_functionals():
    s = OneSidedStableMeasure(0.5, 0.7)
    assert s.interval_mass(1.0, 4.0) == pytest.approx(OSS_MASS_1_4, rel=1e-15, abs=0.0)
    assert s.truncated_moment(1, 1.0) == pytest.approx(OSS_TM1, rel=1e-15, abs=0.0)
    assert s.one_wedge(2) == pytest.approx(OSS_ONE_WEDGE2, rel=1e-15, abs=0.0)
    assert s.one_wedge(1) < INF
    heavy = OneSidedStableMeasure(1.5, 0.7)
    assert heavy.one_wedge(1) == INF
    with pytest.raises(NotFiniteVariation):
        heavy.truncated_moment(1, 1.0)


def test_symmetric_stable_functionals():
    s = SymmetricStableMeasure(1.5, 0.4)
    assert s.one_wedge(1) == INF
    assert s.one_wedge(2) < INF
    # the absolute first moment near 0 diverges for index >= 1
    with pytest.raises(NotFiniteVariation):
        s.truncated_moment(1, 1.0)
    light = SymmetricStableMeasure(0.5, 0.4)
    assert light.one_wedge(1) < INF
    # symmetry: the truncated first moment vanishes identically
    assert light.truncated_moment(1, 1.0) == 0.0


def test_symmetric_stable_measure_mirrors_the_one_sided_density():
    # coeff |x|^-(index+1) on both half-lines: the one-sided measure at |x|
    s, half = SymmetricStableMeasure(0.7, 0.4), OneSidedStableMeasure(0.7, 0.4)
    x = np.array([-3.0, -0.25, 0.25, 3.0])
    assert np.array_equal(s.density(x), half.density(np.abs(x)))
    assert s.density(-2.0) == pytest.approx(0.4 * 2.0**-1.7, rel=1e-15, abs=0.0)
    assert s.total_mass() == INF
    assert s.interval_mass(1.0, 1.0) == 0.0
    assert s.interval_mass(2.0, -2.0) == 0.0
    # each half-line holds coeff/index (a^-index - b^-index) on [a, b]
    assert s.interval_mass(-3.0, -1.0) == half.interval_mass(1.0, 3.0)
    assert s.interval_mass(1.0, 3.0) == pytest.approx(0.4 / 0.7 * (1.0 - 3.0**-0.7), rel=1e-14, abs=0.0)
    # an interval straddling 0 is the sum of its halves, infinite at 0
    assert s.interval_mass(-2.0, 3.0) == s.interval_mass(-2.0, 0.0) + s.interval_mass(0.0, 3.0) == INF


def test_compound_exponential_functionals():
    c = CompoundExponentialMeasure(1.2, 2.5)
    assert c.total_mass() == pytest.approx(1.2, rel=1e-15, abs=0.0)
    assert c.interval_mass(0.3, 1.1) == pytest.approx(CEXP_MASS_03_11, rel=1e-14, abs=0.0)
    assert c.truncated_moment(1, 1.0) == pytest.approx(CEXP_TM1, rel=1e-14, abs=0.0)


def test_atomic_measure_exact():
    a = AtomicMeasure(((0.5, 0.3), (2.0, 1.1)))
    assert a.total_mass() == 0.3 + 1.1
    # half-open (lo, hi]: the atom at 0.5 is excluded from (0.5, 2.0]
    assert a.interval_mass(0.5, 2.0) == 1.1
    assert a.interval_mass(0.4, 0.5) == 0.3
    assert a.truncated_moment(1, 1.0) == 0.5 * 0.3
    assert a.one_wedge(2) == 0.5**2 * 0.3 + 1.1


def test_tabulated_measure_matches_gamma():
    g = GammaMeasure(2.0, 3.0)
    xs = np.geomspace(1e-6, 40.0, 4000)
    t = TabulatedMeasure(tuple(xs), tuple(g.density(xs)))
    # the interpolant of the gamma density on the grid, integrated exactly
    # by the measure's cell rule: interpolation error ~ 2e-5 relative
    assert t.interval_mass(0.5, 2.0) == pytest.approx(GAMMA_MEASURE_MASS_05_2, rel=1e-4, abs=0.0)
    assert t.truncated_moment(1, 1.0) == pytest.approx(GAMMA_MEASURE_TM1, rel=1e-4, abs=0.0)


# e^{-x} at 61 points on [0.5, 2], and its mirror image on [-2, -0.5]
_TAB_XS = np.linspace(0.5, 2.0, 61)
TABULATED_EXP = {
    "positive": TabulatedMeasure(tuple(_TAB_XS), tuple(np.exp(-_TAB_XS))),
    "negative": TabulatedMeasure(tuple(-_TAB_XS[::-1]), tuple(np.exp(-_TAB_XS[::-1]))),
}


def _interpolant_integral(measure, power, lo, hi):
    """Integral of x**power times the measure's piecewise-linear density over
    [lo, hi], in exact arithmetic."""
    from fractions import Fraction

    xs, ds = [list(map(Fraction, v)) for v in (measure.xs, measure.dens)]
    lo, hi, total = Fraction(lo), Fraction(hi), Fraction(0)
    for a, b, da, db in zip(xs, xs[1:], ds, ds[1:]):
        left, right = max(a, lo), min(b, hi)
        if left < right:
            slope = (db - da) / (b - a)
            for coeff, k in ((da - slope * a, power + 1), (slope, power + 2)):
                total += coeff * (right**k - left**k) / k
    return float(total)


@pytest.mark.parametrize("side", TABULATED_EXP)
def test_tabulated_integrals_are_the_interpolants(side):
    # x**power times a linear density is a cubic at most on each cell, which
    # the cell rule and its check integrate exactly: no "grid too coarse"
    m, sign = TABULATED_EXP[side], (1.0 if side == "positive" else -1.0)
    lo, hi = sorted((sign * 0.71, sign * 1.337))
    cases = [
        (m.total_mass(), _interpolant_integral(m, 0, -2.0, 2.0)),
        (m.interval_mass(lo, hi), _interpolant_integral(m, 0, lo, hi)),
        (m.mass_above(1.0), _interpolant_integral(m, 0, -2.0, -1.0) + _interpolant_integral(m, 0, 1.0, 2.0)),
    ]
    for power in (1, 2):
        moment = _interpolant_integral(m, power, -1.0, 1.0)
        cases.append((m.truncated_moment(power, 1.0), moment))
        cases.append((m.one_wedge(power), abs(moment) + cases[2][1]))
    for got, want in cases:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("side", TABULATED_EXP)
def test_tabulated_laplace_integral_matches_the_cell_closed_form(side):
    # on a cell [a, b] with density d0 + k (x - a): the integral of
    # e^{zx} (d0 - k a + k x) is (d0 - k a) E / z + k [e^{zx} (x / z - 1 / z**2)]
    # for E = e^{zb} - e^{za}, less the cell's mass
    m = TABULATED_EXP[side]
    xs, ds = np.array(m.xs), np.array(m.dens)
    a, b, da, db = xs[:-1], xs[1:], ds[:-1], ds[1:]
    slope = (db - da) / (b - a)
    for z in (-1.0, 3j, 30j):
        ea, eb = np.exp(z * a), np.exp(z * b)
        cell = (da - slope * a) * (eb - ea) / z + slope * (eb * (b / z - 1 / z**2) - ea * (a / z - 1 / z**2))
        want = np.sum(cell - 0.5 * (da + db) * (b - a))
        assert abs(m.laplace_integral(np.array([z]))[0] - want) <= 1e-12


@pytest.mark.parametrize("side", TABULATED_EXP)
def test_tabulated_tail_cutoff_bounds_the_grid(side):
    # a point S with mass_above(S) < tol: the grid's far end, |x| = 2, on
    # either side of 0, and no mass is left past it at any tol
    m = TABULATED_EXP[side]
    cut = m.tail_cutoff(1e-12)
    assert cut == (2.0 if side == "negative" else 2.0 * (1.0 + 1e-12))
    assert m.mass_above(cut) == 0.0
    inner = 0.99 * cut
    want = _interpolant_integral(m, 0, -2.0, -inner) + _interpolant_integral(m, 0, inner, 2.0)
    assert m.mass_above(inner) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("side", TABULATED_EXP)
def test_tabulated_scaled_multiplies_density_and_masses(side):
    m = TABULATED_EXP[side]
    big = m.scaled(2.5)
    assert big.xs == m.xs
    assert big.dens == tuple(2.5 * d for d in m.dens)
    lo, hi = sorted((np.sign(m.xs[0]) * 0.71, np.sign(m.xs[0]) * 1.337))
    for got, want in ((big.total_mass(), m.total_mass()), (big.interval_mass(lo, hi), m.interval_mass(lo, hi)),
                      (big.truncated_moment(2, 1.0), m.truncated_moment(2, 1.0))):
        assert got == pytest.approx(2.5 * want, rel=1e-14, abs=0.0)


def test_measure_classification_nesting():
    finite = AtomicMeasure(((1.0, 0.5),))
    fv = GammaMeasure(2.0, 3.0)
    levy_only = SymmetricStableMeasure(1.5, 0.4)
    # each is in the smallest class of finite mass, finite variation, Levy
    assert finite.total_mass() < INF
    assert fv.total_mass() == INF and fv.one_wedge(1) < INF
    assert levy_only.one_wedge(1) == INF
    # nesting: the smaller class always has the larger classes' integrals finite
    for m in (finite, fv):
        assert m.one_wedge(1) < INF
        assert m.one_wedge(2) < INF
    assert levy_only.one_wedge(2) < INF


def test_char_exponent_frozen_values():
    assert lm.char_exponent(lm.gamma_law(2.0, 3.0), 1.7) == pytest.approx(
        CHAR_GAMMA23_17, abs=1e-14
    )
    assert lm.char_exponent(lm.poisson_law(0.8, 1.3), 0.9) == pytest.approx(
        CHAR_POISSON_09, abs=1e-14
    )
    assert lm.char_exponent(lm.symmetric_stable_law(1.5, 0.9), 2.0) == pytest.approx(
        CHAR_SSTABLE_2, abs=1e-14
    )


def test_char_exponent_gaussian_and_delta():
    t = lm.gaussian_law(0.4, 1.5)
    th = 2.3
    assert lm.char_exponent(t, th) == pytest.approx(
        1j * th * 0.4 - 0.5 * 1.5 * th * th, abs=1e-15
    )
    assert lm.char_exponent(lm.delta_law(-0.7), th) == pytest.approx(
        1j * th * -0.7, abs=1e-15
    )


FIXTURE_LAWS = [
    lm.gaussian_law(0.3, 1.2),
    lm.gamma_law(2.0, 3.0),
    lm.poisson_law(0.8, 1.3),
    lm.poisson_law(2.0, -0.4),
    lm.delta_law(1.1),
    lm.symmetric_stable_law(0.7, 0.9),
    lm.cauchy_law(0.5),
    lm.symmetric_stable_law(1.6, 1.1),
    lm.one_sided_stable_law(0.5, 0.6),
]


@pytest.mark.parametrize("law", FIXTURE_LAWS, ids=lambda t: "LawFamily." + "".join(
    "_" * c.isupper() + c.upper() for c in type(t.law).__name__[:-3])[1:])
def test_char_exponent_is_a_valid_log_cf(law):
    assert lm.char_exponent(law, 0.0) == 0
    for th in np.linspace(-9.0, 9.0, 25):
        v = lm.char_exponent(law, th)
        assert abs(cmath.exp(v)) <= 1.0 + 1e-12
        # conjugate symmetry of the law's CF
        w = lm.char_exponent(law, -th)
        assert w == pytest.approx(v.conjugate(), abs=1e-12)


def test_exponents_take_arrays_entry_for_entry():
    # one call on a grid equals the scalar calls bit for bit, 0 maps to 0
    grid = np.linspace(-9.0, 9.0, 37)
    for law in FIXTURE_LAWS:
        values = lm.char_exponent(law, grid)
        assert values.shape == grid.shape
        for k, th in enumerate(grid):
            scalar = lm.char_exponent(law, th)
            assert isinstance(scalar, complex)
            assert values[k] == scalar
        assert lm.char_exponent(law, np.zeros(3)).tolist() == [0j, 0j, 0j]
    xs = np.linspace(0.1, 0.9, 400)
    zs = -np.abs(grid) + 1j * grid
    for jumps in (GammaMeasure(2.0, 3.0), OneSidedStableMeasure(0.5, 0.6),
                  CompoundExponentialMeasure(1.2, 2.5), AtomicMeasure(((0.5, 1.0), (2.0, 0.3))),
                  TabulatedMeasure(tuple(xs), tuple(np.exp(-xs))), ZERO_MEASURE):
        pair = SubordinatorPair(0.4, jumps)
        values = lm.laplace_exponent(pair, zs)
        for k, z in enumerate(zs):
            assert values[k] == lm.laplace_exponent(pair, z)
        assert lm.laplace_exponent(pair, np.zeros(2)).tolist() == [0j, 0j]
    # the sign check runs entry by entry
    with pytest.raises(DomainError):
        lm.laplace_exponent(SubordinatorPair(0.4, GammaMeasure(2.0, 3.0)), np.array([-1.0, 0.5]))


def test_laplace_exponent_frozen_value():
    pair = SubordinatorPair(0.4, GammaMeasure(2.0, 3.0))
    assert lm.laplace_exponent(pair, -1.1) == pytest.approx(
        LAPLACE_GAMMA_PAIR_M11, rel=1e-10
    )
    # at z = 0 the exponent vanishes
    assert lm.laplace_exponent(pair, 0.0) == 0


def test_gamma_laplace_integral_keeps_its_digits_at_large_rates():
    # at rate 1e12 the plain log of 1 - z/rate is off by 10% here; the
    # series -shape (w - w^2/2 + w^3/3) in w = -z/rate is exact to double.
    # A real z gives a real value.
    for z in (np.array([-0.5 + 0.3j, -30.0 + 2.0j, -1e-3 + 1e-4j]), np.array([-3.0, -1e-3])):
        for rate in (1e8, 1e12):
            w = -z / rate
            series = -2.0 * (w - w**2 / 2.0 + w**3 / 3.0)
            got = GammaMeasure(2.0, rate).laplace_integral(z)
            assert got.dtype == z.dtype
            assert np.max(np.abs(got - series) / np.abs(series)) < 1e-14


def test_gamma_laplace_integral_stays_finite_past_the_square_range():
    # the squares in log|1 + w| overflow past |w| ~ 1.3e154, where the
    # modulus is taken as a hypot instead; there the plain log is exact
    z = np.array([-5e153 + 0j, -1e200 + 1e200j, 3e300j])
    got = GammaMeasure(2.0, 1.0).laplace_integral(z)
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - (-2.0 * np.log(1.0 - z))) / np.abs(got)) < 1e-15


def test_laplace_exponent_additive_under_pair_convolution():
    rng = np.random.default_rng(7)
    p1 = SubordinatorPair(0.2, GammaMeasure(1.0, 2.0))
    p2 = SubordinatorPair(0.5, GammaMeasure(0.7, 2.0))
    merged = SubordinatorPair(0.7, GammaMeasure(1.7, 2.0))
    for _ in range(20):
        z = complex(-rng.uniform(0.0, 4.0), rng.uniform(-3.0, 3.0))
        lhs = lm.laplace_exponent(merged, z)
        rhs = lm.laplace_exponent(p1, z) + lm.laplace_exponent(p2, z)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_each_class_is_its_own_family_record():
    # a law constructor's triplet holds the tagged law of its arguments
    assert lm.gaussian_law(0.3, 1.2).law == GaussianLaw(0.3, 1.2)
    assert lm.gamma_law(2, 3).law == GammaLaw(2, 3)
    assert lm.poisson_law(0.8, -0.4).law == PoissonLaw(0.8, -0.4)
    assert lm.delta_law(1.1).law == DeltaLaw(1.1)
    assert lm.symmetric_stable_law(0.7, 0.9).law == SymmetricStableLaw(0.7, 0.9)
    assert lm.cauchy_law(0.5).law == SymmetricStableLaw(1.0, 0.5)
    assert lm.one_sided_stable_law(0.5, 0.6).law == OneSidedStableLaw(0.5, 0.6)
    assert LevyTriplet(0.0, 1.0, ZERO_MEASURE).law is None
    # every measure class names a field as its amplitude or scales itself
    for cls in lm.LevyMeasure.__subclasses__():
        names = {f.name for f in dataclasses.fields(cls)}
        assert cls.amplitude in names or cls.scaled is not lm.LevyMeasure.scaled, cls.__name__


def test_zero_convention_expresses_the_same_law():
    for law in (lm.gamma_law(2.0, 3.0), lm.poisson_law(0.8, 1.3), lm.one_sided_stable_law(0.5, 0.6)):
        # the zero convention's drift is the standard one less the compensator
        moved = dataclasses.replace(
            law, drift=law.drift - law.jumps.truncated_moment(1, 1.0), convention=TruncationConvention.ZERO
        )
        for th in (0.5, 2.0, -3.5):
            assert lm.char_exponent(moved, th) == pytest.approx(
                lm.char_exponent(law, th), abs=1e-12
            )


def test_zero_convention_rejects_infinite_variation():
    with pytest.raises(NotFiniteVariation):
        LevyTriplet(0.0, 0.0, SymmetricStableMeasure(1.5, 0.4), TruncationConvention.ZERO)


def test_subordinator_pair_validation():
    with pytest.raises(DomainError):
        SubordinatorPair(-0.1, ZERO_MEASURE)
    with pytest.raises(DomainError):
        SubordinatorPair(0.0, SymmetricStableMeasure(0.5, 0.4))
    with pytest.raises(NotFiniteVariation):
        SubordinatorPair(0.0, OneSidedStableMeasure(1.2, 0.4))


FINITE_VARIATION_CASES = {
    "gamma": GammaMeasure(2.0, 3.0),
    "compound-exponential": CompoundExponentialMeasure(1.5, 2.0),
    "atomic-empty": ZERO_MEASURE,
    "atomic": AtomicMeasure(((0.5, 1.0), (3.0, 0.2))),
    "tabulated-positive": TabulatedMeasure((0.5, 1.0, 2.0), (1.0, 1.0, 1.0)),
    "tabulated-negative": TabulatedMeasure((-2.0, -1.0, -0.5), (1.0, 1.0, 1.0)),
    **{f"{side}-stable-{index}": make(index, 0.4)
       for side, make in (("one-sided", OneSidedStableMeasure), ("symmetric", SymmetricStableMeasure))
       for index in (0.3, 0.999, 1.0, 1.5)},
}


@pytest.mark.parametrize("measure", FINITE_VARIATION_CASES.values(), ids=list(FINITE_VARIATION_CASES))
def test_finite_variation_agrees_with_the_one_wedge(measure):
    # the predicate reads the parameters; the closed forms integrate
    assert measure.finite_variation() == (measure.one_wedge(1) < INF)


@pytest.mark.parametrize("index, coeff", [(1e-299, 1e10), (0.1, 1e308)])
def test_stable_clock_whose_one_wedge_overflows_has_finite_variation(index, coeff):
    # coeff / (1 - index) + coeff / index passes the float range: that is
    # not a divergence, so the clock and its zero-convention triplet stand
    nu = OneSidedStableMeasure(index, coeff)
    assert nu.one_wedge(1) == INF
    SubordinatorPair(0.0, nu)
    LevyTriplet(0.0, 0.0, nu, TruncationConvention.ZERO)
    with pytest.raises(DomainError, match="Laplace exponent .* past the float range"):
        lm.laplace_exponent(SubordinatorPair(0.0, nu), np.array([0.0, -1.0]))


def test_cauchy_density_stays_finite_past_the_square_range():
    # x^2 + c^2 overflows past 1e154, or underflows below 1e-154; the suite
    # turns the warning into an error.  References: c / (x^2 + c^2) in exact
    # arithmetic, then divided by pi.
    from fractions import Fraction

    law = SymmetricStableLaw(1.0, 1.0)
    for s, xs in ((1e60, [1e6, 1e59, 1e61]), (1.0, [0.5, 3.0, 1e40, 1e120]), (1e120, [1e100, 1e130]),
                  (1e160, [1e3, 1e159, 1e161]), (1e-170, [1e-170])):
        xs = np.array(xs)
        c = Fraction(s)
        for x, density in zip(map(Fraction, xs), law.density(s, xs)):
            want = c / (x * x + c * c)
            assert density == pytest.approx(float(want) / math.pi, rel=1e-14, abs=0.0)


def test_levy_dist_scale():
    assert lm.levy_dist_scale(0.5) == 2.0 * math.pi * 0.25


def test_stable_cos_integral_matches_quadrature():
    from scipy import integrate

    for alpha in (0.5, 1.0, 1.7):
        head, _ = integrate.quad(
            lambda u: (1.0 - math.cos(u)) * u ** (-1.0 - alpha), 0.0, 30.0, limit=400
        )
        # tail: split off the oscillatory part, handled by the cosine-weight rule
        tail_one = 30.0**-alpha / alpha
        tail_cos, _ = integrate.quad(
            lambda u: u ** (-1.0 - alpha), 30.0, np.inf, weight="cos", wvar=1.0
        )
        assert lm.stable_cos_integral(alpha) == pytest.approx(
            head + tail_one - tail_cos, rel=1e-9
        )


@pytest.mark.parametrize("index", [5e-324, 1e-307])
def test_stable_index_below_the_floor_is_refused(index):
    # at 5e-324 Gamma(-index) overflowed in a bare OverflowError and at
    # 1e-307 a one-sided draw warned; each constructor names the floor
    for make in (lambda: OneSidedStableMeasure(index, 1.0), lambda: SymmetricStableMeasure(index, 1.0),
                 lambda: lm.stable_cos_integral(index), lambda: lm.symmetric_stable_law(index, 1.0),
                 lambda: lm.one_sided_stable_law(index, 1.0)):
        with pytest.raises(DomainError, match="below 1e-299"):
            make()


@pytest.mark.parametrize("coeff", [1e-8, 1.0, 1e8])
def test_stable_closed_forms_and_draws_are_finite_at_the_index_floor(coeff):
    # every closed form is finite, the tail cut and each draw are finite or
    # refused by name, and the suite turns any RuntimeWarning into an error
    index, theta, dt = 1e-299, np.geomspace(1e-8, 1e8, 9), np.geomspace(1e-8, 1e8, 9)
    for m in (OneSidedStableMeasure(index, coeff), SymmetricStableMeasure(index, coeff)):
        for value in (m.one_wedge(1), m.one_wedge(2), m.char_integral(theta, TruncationConvention.STANDARD),
                      m.char_integral(-theta, TruncationConvention.ZERO)):
            assert np.isfinite(value).all()
        with pytest.raises(QuadratureFailure, match="overflows a float"):
            m.tail_cutoff(1e-12)
        for seed in range(5):
            try:
                assert np.isfinite(m.sample_increments(dt, np.random.default_rng(seed))).all()
            except DomainError as exc:
                assert "past the float range" in str(exc)
    pair = SubordinatorPair(0.0, OneSidedStableMeasure(index, coeff))
    assert np.isfinite(lm.laplace_exponent(pair, -theta + 1j * theta)).all()
    for law in (lm.symmetric_stable_law(index, coeff), lm.one_sided_stable_law(index, coeff)):
        assert np.isfinite(lm.char_exponent(law, theta)).all()


@pytest.mark.parametrize("theta", [0.5, 2.0, 9.0, -3.0])
def test_index_one_stable_char_integral_matches_fourier_quadrature(theta):
    from scipy import integrate

    # Integral of exp(i theta x) - 1 - i theta x 1{x <= 1} against c x**-2 on
    # (0, inf): stable integrands on (0, 1], cosine/sine-weight rules beyond.
    c, w = 0.3, abs(theta)
    re_head, _ = integrate.quad(lambda x: -2.0 * math.sin(0.5 * w * x) ** 2 / x**2, 0.0, 1.0,
                                epsabs=1e-13, epsrel=1e-13)
    im_head, _ = integrate.quad(lambda x: (math.sin(w * x) - w * x) / x**2, 0.0, 1.0,
                                epsabs=1e-13, epsrel=1e-13)
    re_tail, _ = integrate.quad(lambda x: x**-2.0, 1.0, np.inf, weight="cos", wvar=w)
    im_tail, _ = integrate.quad(lambda x: x**-2.0, 1.0, np.inf, weight="sin", wvar=w)
    expected = c * complex(re_head + re_tail - 1.0, math.copysign(1.0, theta) * (im_head + im_tail))
    got = OneSidedStableMeasure(1.0, c).char_integral(np.array([theta]), TruncationConvention.STANDARD)
    assert abs(got[0] - expected) < 1e-9
    value = lm.char_exponent(LevyTriplet(0.1, 0.0, OneSidedStableMeasure(1.0, c)), theta)
    assert abs(value - (0.1j * theta + expected)) < 1e-9


@pytest.mark.parametrize("theta", [0.5, 2.0, 9.0, -3.0])
def test_index_above_one_stable_char_integral_matches_fourier_quadrature(theta):
    from scipy import integrate

    # as at index 1, against c x**-(a + 1): the closed form compensates on x <= 1
    a, c, w = 1.5, 0.3, abs(theta)
    re_head, _ = integrate.quad(lambda x: -2.0 * math.sin(0.5 * w * x) ** 2 * x ** (-a - 1.0), 0.0, 1.0,
                                epsabs=1e-13, epsrel=1e-13)
    im_head, _ = integrate.quad(lambda x: (math.sin(w * x) - w * x) * x ** (-a - 1.0), 0.0, 1.0,
                                epsabs=1e-13, epsrel=1e-13)
    re_tail, _ = integrate.quad(lambda x: x ** (-a - 1.0), 1.0, np.inf, weight="cos", wvar=w)
    im_tail, _ = integrate.quad(lambda x: x ** (-a - 1.0), 1.0, np.inf, weight="sin", wvar=w)
    expected = c * complex(re_head + re_tail - 1.0 / a, math.copysign(1.0, theta) * (im_head + im_tail))
    got = OneSidedStableMeasure(a, c).char_integral(theta, TruncationConvention.STANDARD)
    assert abs(got - expected) < 1e-9


@pytest.mark.parametrize("measure, power, n, scale", [
    (GammaMeasure(2.0, 3.0), 1, 1, 2.0 / 3.0),
    (GammaMeasure(2.0, 3.0), 2, 2, 2.0 / 9.0),
    (CompoundExponentialMeasure(1.2, 2.5), 1, 2, 1.2 / 2.5),
    (CompoundExponentialMeasure(1.2, 2.5), 2, 3, 2.4 / 6.25),
], ids=["gamma-1", "gamma-2", "cexp-1", "cexp-2"])
def test_truncated_moments_do_not_cancel_near_zero(measure, power, n, scale):
    # scale * P(n, rate * cutoff), P the regularized lower incomplete gamma;
    # the plain closed forms were 0.0 at cutoff 1e-17 (gamma-1), 1e-9
    # (gamma-2, cexp-1) and off by up to 1e15 relative below those
    from scipy import special

    rate = measure.rate if isinstance(measure, GammaMeasure) else measure.jump_rate
    # scipy's gammainc(n, t) at n = 2 and 3 is itself off by up to 1.2e-14
    # and 2.2e-14 relative near t = 1e-14 (against 40-digit mpmath, where
    # these closed forms are within 1e-16)
    rel = 1e-14 if n == 1 else 3e-14
    for cutoff in np.geomspace(1e-18, 1e2, 81):
        want = scale * special.gammainc(n, rate * cutoff)
        assert measure.truncated_moment(power, cutoff) == pytest.approx(want, rel=rel, abs=0.0)


@given(
    lo=st.floats(0.01, 5.0),
    width=st.floats(0.01, 5.0),
    split=st.floats(0.1, 0.9),
)
@settings(max_examples=60, deadline=None)
def test_interval_mass_additive_over_split(lo, width, split):
    g = GammaMeasure(1.3, 2.1)
    hi = lo + width
    mid = lo + split * width
    whole = g.interval_mass(lo, hi)
    parts = g.interval_mass(lo, mid) + g.interval_mass(mid, hi)
    assert parts == pytest.approx(whole, rel=1e-12, abs=1e-15)


@given(factor=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_scaled_measure_scales_functionals(factor):
    for g in (GammaMeasure(1.3, 2.1), OneSidedStableMeasure(0.6, 0.8),
              SymmetricStableMeasure(1.4, 0.5), CompoundExponentialMeasure(1.2, 2.5)):
        sc = g.scaled(factor)
        assert type(sc) is type(g)
        assert sc.interval_mass(0.5, 2.0) == pytest.approx(
            factor * g.interval_mass(0.5, 2.0), rel=1e-12
        )
        assert sc.truncated_moment(2, 1.0) == pytest.approx(
            factor * g.truncated_moment(2, 1.0), rel=1e-12
        )


def test_tail_cutoff_bounds_remaining_mass():
    for m in (GammaMeasure(2.0, 3.0), OneSidedStableMeasure(0.5, 0.7)):
        cut = m.tail_cutoff(1e-9)
        # the stable cutoff solves its bound with equality
        assert m.mass_above(cut) <= 1e-9 * (1.0 + 1e-12)
