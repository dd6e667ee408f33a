"""Convolution powers and the measure-mixing map.

Frozen targets come from independent scipy.stats / mpmath evaluations of
the defining formulas; two-route checks compare the generic quadrature
path against closed forms computed in the test itself.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import levymix as lm
from levymix import mixing, quadrature
from levymix.cli import main
from levymix.core import (
    AtomicMeasure,
    CompoundExponentialMeasure,
    GammaMeasure,
    OneSidedStableMeasure,
    SymmetricStableMeasure,
    TabulatedMeasure,
    ZERO_MEASURE,
    _poisson_count_cdf,
)
from levymix.errors import DomainError, QuadratureFailure, UnsupportedFamily
from levymix.mixing import (
    integrate_rho,
    lemma_constant,
    mixing_cf,
    phi_mix_density_gamma,
    phi_mix_mass,
    small_s_ratio,
)

# scipy.stats.gamma.cdf(1.3, a=1.4, scale=1/3)
CONVP_GAMMA23_CDF = 0.95710544843191803
# normal cdf difference, loc 0.65, scale sqrt(2.6), on (-0.4, 1.1]
CONVP_GAUSS_MASS = 0.35244318648965967
# scipy.stats.poisson.pmf(2, 2.0)
CONVP_POISSON_HALFOPEN = 0.2706705664732254
# mp.quad of x * normal(0.32, 0.96) density over [-1, 1]
CONVP_TMEAN_GAUSS = 0.064018293028967013
# mp.quad of x * levy(c) density over [0, 1], c = 2 pi (0.27)^2
CONVP_TMEAN_LEVY = 0.20111481329600875
# E1(sqrt 2) - E1(2 sqrt 2): the standard-normal/gamma(1,1) mix on (1, 2]
VG_MIX_MASS_1_2 = 0.097496276251848396
# two-atom mix against the gamma(2,3) law on (0.2, 0.9]
ATOM_MIX_MASS = 0.53042837481755589
# exp(-1.7) * (0.7 + 0.3 * 1.7)
GAMMA_KERNEL_ATOM_DENSITY = 0.22104706410380892
# mp.quad of e^-0.8 0.8^{s-1}/Gamma(s) * 1.5 e^{-2s}/s
GAMMA_KERNEL_GAMMA_DENSITY = 0.39769664075180089
# 3/(2.5 - phi) for the gaussian(0.3, 1) exponent
MIXING_CF_GAUSS_THETA1 = complex(0.9900990099009902, 0.099009900990099015)
MIXING_CF_GAUSS_THETA3 = complex(0.42160208793414977, 0.05420598273439068)
MIXING_CF_CAUCHY_THETA2 = 0.66666666666666663
# integral of (1 and x^2) against 2 exp(-3x)/x
LEMMA_GAMMA23 = 0.20406381252807057
# cauchy-scaling mix with atoms 0.9 delta_0.5 + 0.3 delta_2 on (0.3, 1.4]
STABLE_MIX_CAUCHY_ATOMS = 0.24101418803038341


# --- convolution powers ------------------------------------------------------


def test_gamma_law_cdf_frozen():
    law = lm.gamma_law(2.0, 3.0).law
    assert law.cdf(0.7, 1.3) == pytest.approx(CONVP_GAMMA23_CDF, rel=1e-14, abs=0.0)
    assert law.cdf(0.7, 0.0) == 0.0
    assert law.cdf(0.7, np.inf) == 1.0


def test_gaussian_law_interval_mass_frozen():
    law = lm.gaussian_law(0.5, 2.0).law
    assert law.interval_mass(1.3, -0.4, 1.1) == pytest.approx(
        CONVP_GAUSS_MASS, rel=1e-14
    )


def test_conv_power_poisson_half_open_boundaries():
    # atoms at 0.5 k; (0.5, 1.0] holds exactly the k=2 atom
    law = lm.poisson_law(2.0, 0.5).law
    assert law.interval_mass(1.0, 0.5, 1.0) == pytest.approx(
        CONVP_POISSON_HALFOPEN, rel=1e-13
    )
    # (0.4, 0.5] holds the k=1 atom
    assert law.interval_mass(1.0, 0.4, 0.5) == pytest.approx(
        float(stats.poisson.pmf(1, 2.0)), rel=1e-13
    )
    # negative jumps mirror: atoms at -0.5 k; (-1.0, -0.4] excludes the
    # left endpoint, so only the k=1 atom at -0.5 is inside
    neg = lm.poisson_law(2.0, -0.5).law
    assert neg.interval_mass(1.0, -1.0, -0.4) == pytest.approx(
        float(stats.poisson.pmf(1, 2.0)), rel=1e-13
    )
    assert neg.interval_mass(1.0, -1.01, -0.4) == pytest.approx(
        float(stats.poisson.pmf(1, 2.0) + stats.poisson.pmf(2, 2.0)), rel=1e-13
    )


@pytest.mark.parametrize("jump_size", [1.0, -0.5])
def test_poisson_interval_mass_broadcasts_over_s_and_cells(jump_size):
    # cells whose ends sit on lattice points k * jump_size and between them,
    # and cells reaching -inf and inf: each entry of the (s, cell) block is
    # its scalar call, bit for bit
    law = lm.poisson_law(2.0, jump_size).law
    h = jump_size
    lo = np.array([-np.inf, h, 2.0 * h, -3.0, 0.4 * h, 0.0, -np.inf, 3.0 * h])
    hi = np.array([-0.5, 3.0 * h, 2.5 * h, 3.0, h, 5.0, np.inf, np.inf])
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    s = np.array([1e-6, 0.3, 1.0, 4.5])
    block = law.interval_mass(s[:, None], lo, hi)
    assert block.shape == (s.size, lo.size)
    for i, si in enumerate(s):
        for j in range(lo.size):
            assert block[i, j] == law.interval_mass(si, lo[j], hi[j])
    # counts below 0 have probability 0, an infinite count probability 1
    counts = np.array([-np.inf, -1.0, -0.5, 0.0, 2.7, np.inf])
    cdf = _poisson_count_cdf(counts[:, None], np.array([0.5, 3.0]))
    assert cdf.shape == (6, 2)
    assert (cdf[:3] == 0.0).all() and (cdf[-1] == 1.0).all()
    assert cdf[4, 1] == pytest.approx(float(stats.poisson.cdf(2, 3.0)), rel=1e-14, abs=0.0)


def test_conv_power_delta_indicator():
    law = lm.delta_law(0.8).law
    assert law.cdf(2.0, 1.6) == 1.0
    assert law.cdf(2.0, 1.5999) == 0.0


def test_tagged_law_density_integrates_to_mass():
    for mu, s, lo, hi in (
        (lm.gamma_law(2.0, 3.0), 0.7, 0.2, 1.5),
        (lm.gaussian_law(0.5, 2.0), 1.3, -0.4, 1.1),
        (lm.cauchy_law(0.8), 0.6, -2.0, 1.0),
        (lm.one_sided_stable_law(0.5, 0.4), 1.1, 0.3, 4.0),
    ):
        law = mu.law
        val, err = integrate.quad(
            lambda x: float(law.density(s, x)), lo, hi, limit=200
        )
        assert val == pytest.approx(
            law.interval_mass(s, lo, hi), abs=max(1e-12, 10 * err)
        )


def test_tagged_law_truncated_mean_frozen():
    assert lm.gaussian_law(0.4, 1.2).law.truncated_mean(0.8) == pytest.approx(
        CONVP_TMEAN_GAUSS, abs=1e-14
    )
    assert lm.one_sided_stable_law(0.5, 0.3).law.truncated_mean(0.9) == pytest.approx(
        CONVP_TMEAN_LEVY, abs=1e-14
    )
    # symmetric laws: identically zero
    assert lm.gaussian_law(0.0, 1.2).law.truncated_mean(0.8) == 0.0
    assert lm.cauchy_law(1.0).law.truncated_mean(0.5) == 0.0


def test_gamma_law_truncated_mean_vs_quadrature():
    law = lm.gamma_law(2.0, 3.0).law
    for s in (0.3, 1.0, 2.7):
        val, err = integrate.quad(
            lambda x: x * float(law.density(s, x)), 0.0, 1.0
        )
        assert law.truncated_mean(s) == pytest.approx(
            val, abs=max(1e-13, 10 * err)
        )


def test_conv_power_unsupported_stable_indices():
    with pytest.raises(UnsupportedFamily):
        lm.symmetric_stable_law(1.5, 1.0).law.cdf(1.0, 0.5)
    with pytest.raises(UnsupportedFamily):
        lm.one_sided_stable_law(0.7, 1.0).law.cdf(1.0, 0.5)


@given(
    s=st.floats(0.05, 8.0),
    lo=st.floats(-4.0, 3.9),
    width=st.floats(0.01, 4.0),
    split=st.floats(0.1, 0.9),
)
@settings(max_examples=60, deadline=None)
def test_conv_power_mass_additive(s, lo, width, split):
    law = lm.gaussian_law(0.3, 1.1).law
    hi = lo + width
    mid = lo + split * width
    whole = law.interval_mass(s, lo, hi)
    parts = law.interval_mass(s, lo, mid) + law.interval_mass(s, mid, hi)
    assert parts == pytest.approx(whole, abs=1e-13)


@pytest.mark.parametrize("mu", [
    lm.gaussian_law(0.3, 1.1), lm.gaussian_law(0.0, 2.0), lm.gamma_law(2.0, 3.0),
    lm.poisson_law(2.0, 0.7), lm.poisson_law(1.5, -0.4), lm.delta_law(-1.3),
    lm.cauchy_law(0.8), lm.one_sided_stable_law(0.5, 0.3),
], ids=lambda mu: "".join("_" * c.isupper() + c.lower() for c in type(mu.law).__name__[:-3])[1:])
def test_tagged_law_closed_forms_take_arrays_in_s(mu):
    # the vectorized closed forms give every entry exactly its scalar value
    law = mu.law
    s = np.array([1e-6, 0.03, 0.4, 1.0, 2.7, 9.0])
    for x in (-1.3, -0.2, 0.0, 0.35, 1.0, 2.2):
        values = law.cdf(s, x)
        assert [values[i] for i in range(s.size)] == [law.cdf(v, x) for v in s]
    for lo, hi in ((-2.0, -0.5), (-0.3, 0.7), (0.0, 1.0), (1.0, np.inf), (-np.inf, 0.4)):
        values = law.interval_mass(s, lo, hi)
        assert [values[i] for i in range(s.size)] == [law.interval_mass(v, lo, hi) for v in s]
    values = law.truncated_mean(s)
    assert [values[i] for i in range(s.size)] == [law.truncated_mean(v) for v in s]


@pytest.mark.parametrize("mu, alpha", [
    (lm.cauchy_law(0.7), 1.0), (lm.gaussian_law(0.0, 2.0), 2.0), (lm.one_sided_stable_law(0.5, 0.6), 0.5),
], ids=["cauchy", "gaussian", "half_stable"])
def test_stable_law_powers_are_its_scalings(mu, alpha):
    # a strictly alpha-stable law has mu^s(-inf, x] = mu(-inf, x s**(-1/alpha)]
    s = np.geomspace(1e-6, 1e6, 25)[:, None]
    x = np.geomspace(1e-3, 1e3, 13)
    x = np.concatenate([-x[::-1], x])[None, :]
    gap = np.abs(mu.law.cdf(s, x) - mu.law.cdf(1.0, x * s ** (-1.0 / alpha)))
    assert gap.max() <= 2.3e-16


def test_one_sided_stable_small_s_ratio_closed_form():
    # mpmath quadrature of (1/s) int (1 and x^2) against the levy law mu^s
    assert small_s_ratio(lm.one_sided_stable_law(0.5, 0.5), 1e-3) == pytest.approx(
        1.3333322869580024, rel=1e-14
    )


def test_cauchy_small_s_ratio_closed_form():
    # scipy quadrature of (1/s) int (1 and x^2) against the Cauchy(0.7 s) law
    s, c = 0.1, 0.07
    density = lambda x: c / (math.pi * (x * x + c * c))
    inside, _ = integrate.quad(lambda x: x * x * density(x), 0.0, 1.0, epsabs=1e-15, epsrel=1e-14)
    tail, _ = integrate.quad(density, 1.0, np.inf, epsabs=1e-15, epsrel=1e-14)
    assert small_s_ratio(lm.cauchy_law(0.7), s) == pytest.approx(2.0 * (inside + tail) / s, rel=1e-12, abs=0.0)


def test_lemma_constant_frozen():
    assert lemma_constant(lm.gamma_law(2.0, 3.0)) == pytest.approx(
        LEMMA_GAMMA23, rel=1e-13
    )
    assert lemma_constant(lm.gaussian_law(0.0, 1.0)) == 1.0


def test_small_s_ratio_approaches_lemma_constant():
    # the ratio sits within 10% of its limit at s = 1e-3 and converges
    for law in (lm.gaussian_law(0.0, 1.0), lm.poisson_law(2.0, 0.7),
                lm.gamma_law(2.0, 3.0)):
        limit = lemma_constant(law)
        r3 = small_s_ratio(law, 1e-3)
        r4 = small_s_ratio(law, 1e-4)
        assert abs(r3 - limit) <= 0.1 * limit
        assert abs(r4 - limit) <= abs(r3 - limit) + 1e-12


# --- integrate_rho -----------------------------------------------------------


def test_integrate_rho_closed_forms():
    # against a gamma jump measure a e^{-l s}/s: integral of s is a/l,
    # of s^2 is a/l^2
    # infinite-mass rho needs the caller's bound |fn(s)| <= bound * s near 0
    rho = GammaMeasure(2.0, 3.0)
    v1, e1, _ = integrate_rho(rho, lambda s: s, linear_bound=1.0)
    assert v1 == pytest.approx(2.0 / 3.0, rel=1e-10, abs=0.0)
    v2, e2, _ = integrate_rho(rho, lambda s: s * s, linear_bound=1.0)
    assert v2 == pytest.approx(2.0 / 9.0, rel=1e-8, abs=0.0)
    assert e1 >= 0 and e2 >= 0
    with pytest.raises(DomainError):
        integrate_rho(rho, lambda s: s)


def test_integrate_rho_atoms_exact():
    rho = AtomicMeasure(((0.5, 0.7), (1.5, 0.4)))
    v, err, _ = integrate_rho(rho, lambda s: s * s)
    assert v == 0.7 * 0.25 + 0.4 * 2.25
    assert err <= 1e-12


def test_integrate_rho_refuses_an_atom_sum_below_its_roundoff():
    # cos(pi s) is -1 and 1 at the atoms: the sum is 0 with roundoff
    # estimate 2e-15, past max(100 tol, 1e-6 |value|) = 1e-16 at tol 1e-18
    rho = AtomicMeasure(((1.0, 1.0), (2.0, 1.0)))
    assert integrate_rho(rho, lambda s: np.cos(np.pi * s), tol=1e-16)[:2] == (0.0, 2e-15)
    with pytest.raises(QuadratureFailure, match="mixing grid too coarse"):
        integrate_rho(rho, lambda s: np.cos(np.pi * s), tol=1e-18)


def test_integrate_rho_complex_valued():
    rho = CompoundExponentialMeasure(1.2, 2.5)
    v, _, _ = integrate_rho(rho, lambda s: np.exp(1j * s))
    # integral of e^{is} 1.2 * 2.5 e^{-2.5 s} ds = 3/(2.5 - i)
    assert v == pytest.approx(3.0 / (2.5 - 1j), abs=1e-9)


def test_adaptive_quadrature_sees_a_jump_next_to_a_panel_edge():
    # integral of e^u 1{e^u < 0.667} over [-5, 3]: one bisection level leaves
    # the jump 9e-12 inside a panel edge, outside every Kronrod node there
    def step(u):
        s = np.exp(u)
        return np.where(s < 0.667, s, 0.0)

    value, err, _ = quadrature.integrate_adaptive(step, -5.0, 3.0, tol=1e-12)
    assert abs(value - (0.667 - math.exp(-5.0))) <= 1e-14
    assert err <= 1e-12


def test_adaptive_quadrature_refuses_a_non_finite_integrand():
    # nan, not inf: an inf integrand makes the rule warn before the check
    with pytest.raises(QuadratureFailure, match="non-finite integrand"):
        quadrature.integrate_adaptive(lambda u: np.full(u.shape, np.nan), 0.0, 1.0, tol=1e-10)


def _square_wave(step):
    """1 and 2 in turn between jumps at step, 2 step, ... below 100, and
    its exact integral over [0, 100]."""
    jumps = step * np.arange(1, int(100 / step) + 1)
    ends = np.concatenate([[0.0], jumps, [100.0]])
    exact = math.fsum(np.diff(ends) * (1 + np.arange(jumps.size + 1) % 2))
    return (lambda x: 1.0 + np.searchsorted(jumps, x) % 2), exact


def test_adaptive_quadrature_at_its_panel_cap_returns_within_the_slack():
    # 84 jumps off every bisection point: each takes about 50 bisections to
    # meet its share of tol, more than the panel cap holds, so the loop
    # stops at the cap with the error above the normal exit's
    # max(tol, 1e-9 |value|) and within the cap's max(100 tol, 1e-6 |value|)
    f, exact = _square_wave(math.sqrt(2) / 1.2)
    value, err, edges = quadrature.integrate_adaptive(f, 0.0, 100.0, tol=1e-12)
    assert max(1e-12, 1e-9 * abs(value)) < err <= max(100 * 1e-12, 1e-6 * abs(value))
    assert abs(value - exact) <= err
    assert edges.size - 1 <= quadrature._MAX_PANELS


def test_adaptive_quadrature_past_its_panel_cap_slack_raises():
    # 141 jumps: at the cap the error is past max(100 tol, 1e-6 |value|)
    f, _ = _square_wave(math.sqrt(2) / 2)
    with pytest.raises(QuadratureFailure, match=r"reached error .* at \d+ panels$"):
        quadrature.integrate_adaptive(f, 0.0, 100.0, tol=1e-12)


def test_within_accepts_up_to_max_of_100_tol_and_1e_6_of_the_value():
    assert quadrature.within(1.0, 1e-6, 1e-12) and not quadrature.within(1.0, 1.01e-6, 1e-12)
    assert quadrature.within(0.0, 1e-10, 1e-12) and not quadrature.within(0.0, 1.01e-10, 1e-12)
    # every entry of a block, complex values by modulus; a NaN estimate is not within
    assert quadrature.within(np.array([3j, 0.0]), np.array([3e-6, 1e-10]), 1e-12)
    assert not quadrature.within(np.array([3j, 0.0]), np.array([3e-6, 2e-10]), 1e-12)
    assert not quadrature.within(1.0, math.nan, 1e-12)


@pytest.mark.parametrize("step, raises", [(math.sqrt(2) / 2, True), (math.sqrt(2) / 1.2, False)],
                         ids=["past-the-slack", "within-the-slack"])
def test_integrate_rho_at_the_panel_cap(step, raises):
    # the square wave as a function of s under a finite clock: its jumps lie
    # inside the density's range, so the adaptive rule stops at the panel
    # cap, with an error above the normal exit's max(tol, 1e-9 |value|)
    f, _ = _square_wave(step)
    rho = CompoundExponentialMeasure(1.0, 0.05)
    if raises:
        with pytest.raises(QuadratureFailure, match=r"reached error .* at \d+ panels$"):
            integrate_rho(rho, f, tol=1e-12)
        return
    value, err, _ = integrate_rho(rho, f, tol=1e-12)
    assert max(1e-12, 1e-9 * value) < err and quadrature.within(value, err, 1e-12)
    assert value == pytest.approx(1.47976, rel=1e-5, abs=0.0)


def _rows_in_order(fx, weights):
    """sum weights * fx in node order, one row at a time from zero."""
    total = np.zeros(fx.shape[1:], dtype=(fx.T * weights).dtype)
    for row in (fx.T * weights).T:
        total = total + row
    return total


@pytest.mark.parametrize("shape, dtype", [((915,), float), ((915, 8), float), ((1500, 3), float),
                                          ((15000, 2), float), ((915, 4), complex), ((0,), float),
                                          ((0, 3), complex)],
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v.__name__)
def test_rule_sum_adds_rows_in_node_order(shape, dtype):
    rng = np.random.default_rng(7)
    fx = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    if dtype is complex:
        fx = fx + 1j * rng.standard_normal(shape)
    weights = rng.random(shape[0])
    value, err = quadrature.rule_sum(lambda _: fx, np.arange(shape[0]), weights)
    want = _rows_in_order(fx, weights)
    want_err = 1e-15 * _rows_in_order(np.abs((fx.T * weights).T), np.ones(shape[0]))
    assert value.shape == err.shape == shape[1:]
    assert value.dtype == want.dtype and err.dtype == np.float64
    assert value.tobytes() == np.asarray(want).tobytes() and err.tobytes() == np.asarray(want_err).tobytes()


@pytest.mark.parametrize("rho", [GammaMeasure(2.0, 3.0), CompoundExponentialMeasure(1.2, 2.5),
                                 AtomicMeasure(((0.5, 0.7), (1.5, 0.4)))], ids=["gamma", "finite_parametric", "finite_atomic"])
def test_integrate_rho_block_equals_separate_calls(rho):
    # k targets on shared panels against k one-target integrals: the panels
    # differ, the values agree within the quadrature's tolerance
    rates = np.array([0.5, 1.0, 4.0])
    block, err, _ = integrate_rho(rho, lambda s: 1.0 - np.exp(-np.outer(s, rates)), linear_bound=4.0)
    assert block.shape == err.shape == (3,)
    for k, r in enumerate(rates):
        one, _, _ = integrate_rho(rho, lambda s: 1.0 - np.exp(-r * s), linear_bound=4.0)
        assert block[k] == pytest.approx(one, rel=1e-12, abs=1e-12)


# --- the mixing map ----------------------------------------------------------


def test_phi_mix_mass_standard_normal_gamma_rho():
    # mixing the standard normal with gamma(1,1) gives jump density
    # exp(-sqrt(2)|x|)/|x|; masses via exponential integrals
    mu = lm.gaussian_law()
    rho = GammaMeasure(1.0, 1.0)
    r = phi_mix_mass(mu, rho, [(1.0, 2.0)])[0]
    assert r.value == pytest.approx(VG_MIX_MASS_1_2, abs=1e-10)
    assert r.value == pytest.approx(VG_MIX_MASS_1_2, abs=10 * r.abs_error_estimate + 1e-14)
    neg = phi_mix_mass(mu, rho, [(-2.0, -1.0)])[0]
    assert neg.value == pytest.approx(VG_MIX_MASS_1_2, abs=1e-10)


def test_phi_mix_mass_atomic_rho_frozen():
    rho = AtomicMeasure(((0.5, 0.7), (1.5, 0.4)))
    r = phi_mix_mass(lm.gamma_law(2.0, 3.0), rho, [(0.2, 0.9)])[0]
    assert r.value == pytest.approx(ATOM_MIX_MASS, rel=1e-13, abs=0.0)


def test_phi_mix_mass_delta_base_pushforward():
    # degenerate base with drift d: the mix is rho(x/d), exactly
    rho = AtomicMeasure(((0.5, 0.7), (1.5, 0.4)))
    r = phi_mix_mass(lm.delta_law(2.0), rho, [(0.9, 1.1)])[0]
    assert r.value == 0.7
    rneg = phi_mix_mass(lm.delta_law(-2.0), rho, [(-1.1, -0.9)])[0]
    assert rneg.value == 0.7
    with pytest.raises(DomainError):
        phi_mix_mass(lm.delta_law(0.0), rho, [(0.9, 1.1)])


def test_phi_mix_mass_preserves_total_mass_of_finite_rho():
    # exhausting R minus 0 recovers rho's total mass; the residual inside
    # |x| < 1e-6 scales like 1e-6 * E[s^{-1/2}] under the gaussian kernel,
    # so the fixture keeps its mass away from s = 0
    mu = lm.gaussian_law()
    rho = AtomicMeasure(((1.0, 0.7), (2.0, 0.5)))
    total = sum(r.value for r in phi_mix_mass(mu, rho, [(-1e6, -1e-6), (1e-6, 1e6)]))
    assert total == pytest.approx(rho.total_mass(), abs=1e-6)
    # widening the exhaustion only closes the gap
    wider = sum(r.value for r in phi_mix_mass(mu, rho, [(-1e6, -1e-8), (1e-8, 1e6)]))
    assert abs(wider - rho.total_mass()) <= abs(total - rho.total_mass())


def test_phi_mix_mass_domain_errors():
    mu = lm.gaussian_law()
    with pytest.raises(DomainError):
        phi_mix_mass(mu, SymmetricStableMeasure(0.5, 1.0), [(1.0, 2.0)])
    # intervals touching 0 need a finite mixing measure
    with pytest.raises(DomainError):
        phi_mix_mass(mu, GammaMeasure(1.0, 1.0), [(0.0, 1.0)])
    # finite rho is fine there
    r = phi_mix_mass(mu, CompoundExponentialMeasure(1.2, 2.5), [(0.0, 1.0)])[0]
    assert 0.0 < r.value < 1.2


def test_mixing_domain_is_refused_where_it_is_used():
    # in the domain: a positive clock of finite variation, or a degenerate
    # base at a nonzero point, whose mix is a pushforward
    cell = (1.0, 2.0)
    assert phi_mix_mass(lm.gaussian_law(), GammaMeasure(1.0, 1.0), [cell])[0].value > 0.0
    assert phi_mix_mass(lm.delta_law(1.0), GammaMeasure(1.0, 1.0), [cell])[0].value > 0.0
    for mu, rho in ((lm.gaussian_law(), SymmetricStableMeasure(0.5, 1.0)),
                    (lm.gaussian_law(), OneSidedStableMeasure(1.5, 1.0)),
                    (lm.delta_law(0.0), GammaMeasure(1.0, 1.0))):
        with pytest.raises(DomainError):
            phi_mix_mass(mu, rho, [cell])


# Refusals no other test reaches, each through its public entry point.
MIXING_REFUSALS = {
    "gamma-kernel-rate": (lambda: phi_mix_density_gamma(0.0, GammaMeasure(1.0, 1.0), 1.0),
                          DomainError, "rate must be > 0"),
    "gamma-kernel-negative-x": (lambda: phi_mix_density_gamma(1.0, GammaMeasure(1.0, 1.0), -1.0),
                                DomainError, "lives on \\[0, inf\\)"),
    "transform-clock-off-half-line": (lambda: mixing_cf(lm.gaussian_law(), SymmetricStableMeasure(0.5, 1.0), 1.0),
                                      DomainError, "must live on \\(0, inf\\)"),
    "transform-clock-of-infinite-mass": (lambda: mixing_cf(lm.gaussian_law(), OneSidedStableMeasure(0.5, 1.0), 1.0),
                                         DomainError, "needs a finite mixing measure"),
    "small-s-ratio-at-0": (lambda: small_s_ratio(lm.gaussian_law(), 0.0), DomainError, "s must be > 0"),
    "small-s-ratio-degenerate-base": (lambda: small_s_ratio(lm.delta_law(1.0), 0.5), DomainError, "non-degenerate"),
    "empty-interval": (lambda: phi_mix_mass(lm.gaussian_law(), GammaMeasure(1.0, 1.0), [(1.0, 1.0)]),
                       DomainError, "interval \\(1.0, 1.0\\] is empty"),
    "interval-containing-0": (lambda: phi_mix_mass(lm.gaussian_law(), GammaMeasure(1.0, 1.0), [(-1.0, 1.0)]),
                              DomainError, "interval \\(-1.0, 1.0\\] contains 0"),
    # the intervals are checked before a zero clock returns its zeros
    "interval-containing-0-under-a-zero-clock": (lambda: phi_mix_mass(lm.gaussian_law(), ZERO_MEASURE, [(-1.0, 1.0)]),
                                                 DomainError, "contains 0"),
}


@pytest.mark.parametrize("case", MIXING_REFUSALS)
def test_mixing_refusals_fire(case):
    call, error, message = MIXING_REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def test_phi_mix_mass_refuses_an_untagged_base():
    # the base's tag is asked for once, before any quadrature
    plain = lm.LevyTriplet(0.0, 1.0, ZERO_MEASURE)
    for rho in (GammaMeasure(1.0, 1.0), AtomicMeasure(((1.0, 0.5),))):
        with pytest.raises(UnsupportedFamily, match="law-tagged"):
            phi_mix_mass(plain, rho, [(1.0, 2.0)])


# The mass of N(1, 0.01)'s mix on (0.9, 1.1] under e^{-s} tabulated at n
# points of [0.5, 2], cell by cell in 40-digit mpmath.
TABULATED_MASS_REFERENCES = {4: 0.074555310552269962681, 61: 0.073337231491231061854}


@pytest.mark.parametrize("n", TABULATED_MASS_REFERENCES)
def test_tabulated_clock_masses_meet_their_references(n):
    # the clock is a density with panel edges at its grid: a coarse grid is
    # integrated as exactly as a fine one, and its estimate covers the gap
    xs = np.linspace(0.5, 2.0, n)
    mix = phi_mix_mass(lm.gaussian_law(1.0, 0.01), TabulatedMeasure(tuple(xs), tuple(np.exp(-xs))),
                       [(0.9, 1.1)])[0]
    gap = abs(mix.value - TABULATED_MASS_REFERENCES[n])
    assert gap <= 1e-15 * TABULATED_MASS_REFERENCES[n] and gap <= mix.abs_error_estimate


def test_a_jump_at_a_break_is_not_bisected(monkeypatch):
    # the clock's density drops to 0 at the grid's ends, where a panel's
    # edge sample may round one ulp past the break; charging that as a jump
    # in the margin bisected toward s = 0.5 and s = 2 down to 1e-16 wide
    runs, real = [], quadrature.integrate_adaptive

    def recorded(f, lo, hi, *, tol, breaks=()):
        out = real(f, lo, hi, tol=tol, breaks=breaks)
        start = np.union1d(np.linspace(lo, hi, quadrature._START_PANELS + 1), [b for b in breaks if lo < b < hi])
        runs.append((start, out[2]))
        return out

    monkeypatch.setattr(quadrature, "integrate_adaptive", recorded)
    xs = np.linspace(0.5, 2.0, 61)
    cells = [(0.5, 1.0), (1.0, 2.0)]
    masses = phi_mix_mass(lm.gaussian_law(0.3, 1.2), TabulatedMeasure(tuple(xs), tuple(np.exp(-xs))), cells)
    assert [m.value for m in masses] == [0.07736102133348531, 0.08997767467182091]
    [(start, final)] = runs
    assert start.size == 70 and np.array_equal(final, start)


# --- one block per mass table --------------------------------------------------

# a table's cells on both sides of 0, and two that overlap them
BLOCK_CELLS = [(-4.0, -2.0), (-2.0, -1.0), (-1.0, -0.5), (-0.5, -0.1), (0.1, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0),
               (-3.0, -1.0), (0.2, 0.7)]
TABULATED_CLOCK = TabulatedMeasure(tuple(np.linspace(0.5, 2.0, 61)), tuple(np.exp(-np.linspace(0.5, 2.0, 61))))
ATOM_CLOCK = AtomicMeasure(((0.5, 0.7), (1.5, 0.4), (3.0, 0.2)))
BLOCK_CASES = {
    "vg": (lm.gaussian_law(), GammaMeasure(1.0, 1.0)),
    "cauchy-gamma": (lm.cauchy_law(1.0), GammaMeasure(2.0, 3.0)),
    "poisson-atoms": (lm.poisson_law(2.0, 0.5), ATOM_CLOCK),
    "delta-pushforward": (lm.delta_law(1.5), GammaMeasure(2.0, 3.0)),
    "gauss-tabulated": (lm.gaussian_law(0.3, 1.2), TABULATED_CLOCK),
    "gauss-atoms": (lm.gaussian_law(0.3, 1.2), ATOM_CLOCK),
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_mass_block_agrees_with_one_cell_calls(case):
    mu, rho = BLOCK_CASES[case]
    block = phi_mix_mass(mu, rho, BLOCK_CELLS)
    ones = [phi_mix_mass(mu, rho, [cell])[0] for cell in BLOCK_CELLS]
    assert len(block) == len(BLOCK_CELLS)
    for cell, b, one in zip(BLOCK_CELLS, block, ones):
        gap = abs(b.value - one.value)
        assert gap <= 1e-12 * one.value and gap <= b.abs_error_estimate, (cell, b, one)
    if rho.fixed_rule() is not None or mu.is_degenerate():
        # the rules sum each column on its own, error estimate included, and
        # the pushforward is exact
        assert block == ones


@pytest.mark.parametrize("command", ["mix", "subordinate"])
def test_cli_mass_table_is_one_integration(monkeypatch, tmp_path, command):
    # the eight cells of the default partition off 0, as one (n, 8) block
    widths = []

    def counted(rho, fn, **kwargs):
        value, err, upper = integrate_rho(rho, fn, **kwargs)
        widths.append(np.shape(value))
        return value, err, upper

    monkeypatch.setattr(mixing, "integrate_rho", counted)
    model = str(Path(__file__).parent / "models" / "vg.json")
    assert main([command, "--model", model, "--out", str(tmp_path / "out.json")]) == 0
    assert widths == [(8,)]


@pytest.mark.parametrize("command", ["mix", "subordinate"])
@pytest.mark.parametrize("edge", [1e-170, 1e-300])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_a_partition_edge_near_zero_ends_in_a_result_or_exit_3(tmp_path, capsys, command, edge, side):
    # the small-s bound 2 c / d^2 of a cell at distance d from 0 is inf once
    # 1/d^2 overflows, 0 for a delta base; no lower cut meets an infinite one
    partition = sorted([side * edge, side * 1.0])
    models = {
        "gauss": ({"family": "gaussian", "params": {"mean": 0.0, "variance": 1.0}},
                  {"kind": "gamma", "shape": 2.0, "rate": 3.0}),
        "delta": ({"family": "delta", "params": {"drift": side * 1.5}},
                  {"kind": "atomic", "atoms": [[0.5, 0.7], [2.0, 0.3]]}),
    }
    out = tmp_path / "out.json"
    for name, (levy, jumps) in models.items():
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps({"schema": 1, "levy": levy, "subordinator": {"drift": 0.0, "jumps": jumps},
                                     "partition": partition}))
        rc = main([command, "--model", str(model), "--out", str(out)])
        if name == "gauss":
            assert rc == 3 and "no lower cut" in capsys.readouterr().err
        else:
            table = json.loads(out.read_text())["mixed_mass" if command == "mix" else "nu_bar"]
            assert rc == 0 and [row["mass"] for row in table] == [0.7]


def test_phi_mix_density_gamma_atomic_frozen():
    rho = AtomicMeasure(((1.0, 0.7), (2.0, 0.3)))
    assert phi_mix_density_gamma(1.0, rho, 1.7) == pytest.approx(
        GAMMA_KERNEL_ATOM_DENSITY, rel=1e-13
    )
    assert phi_mix_density_gamma(1.0, rho, 0.0) == 0.0


def test_phi_mix_density_gamma_gamma_rho_frozen():
    rho = GammaMeasure(1.5, 2.0)
    assert phi_mix_density_gamma(1.0, rho, 0.8) == pytest.approx(
        GAMMA_KERNEL_GAMMA_DENSITY, rel=1e-9
    )


def test_phi_mix_density_gamma_integrates_to_mix_mass():
    rho = GammaMeasure(1.5, 2.0)
    lo, hi = 0.4, 1.6
    val, err = integrate.quad(
        lambda x: phi_mix_density_gamma(1.0, rho, x), lo, hi, limit=200
    )
    r = phi_mix_mass(lm.gamma_law(1.0, 1.0), rho, [(lo, hi)])[0]
    assert val == pytest.approx(r.value, abs=1e-8)


def test_stable_mix_atoms_frozen():
    rho = AtomicMeasure(((0.5, 0.9), (2.0, 0.3)))
    r = phi_mix_mass(lm.cauchy_law(1.0), rho, [(0.3, 1.4)])[0]
    assert r.value == pytest.approx(STABLE_MIX_CAUCHY_ATOMS, rel=1e-12, abs=0.0)


def test_mixing_cf_frozen_values():
    rho = CompoundExponentialMeasure(1.2, 2.5)
    assert mixing_cf(lm.gaussian_law(0.3, 1.0), rho, 1.0) == pytest.approx(
        MIXING_CF_GAUSS_THETA1, abs=1e-9
    )
    assert mixing_cf(lm.gaussian_law(0.3, 1.0), rho, 3.0) == pytest.approx(
        MIXING_CF_GAUSS_THETA3, abs=1e-9
    )
    assert mixing_cf(lm.cauchy_law(1.0), rho, 2.0) == pytest.approx(
        MIXING_CF_CAUCHY_THETA2, abs=1e-9
    )


def test_mixing_cf_equals_cf_of_mixed_measure():
    # two routes: the transform identity vs direct quadrature of
    # e^{i theta x} against the mixed measure's density in x
    mu = lm.gaussian_law(0.3, 1.0)
    rho = AtomicMeasure(((0.4, 0.8), (1.1, 0.5)))

    def mixed_cf(theta):
        def dens(x):
            return float(
                0.8 * mu.law.density(0.4, x)
                + 0.5 * mu.law.density(1.1, x)
            )

        re, _ = integrate.quad(lambda x: math.cos(theta * x) * dens(x), -30, 30, limit=400)
        im, _ = integrate.quad(lambda x: math.sin(theta * x) * dens(x), -30, 30, limit=400)
        return complex(re, im)

    for theta in range(-5, 6):
        assert mixing_cf(mu, rho, float(theta)) == pytest.approx(
            mixed_cf(float(theta)), abs=1e-6
        )


def test_mixing_cf_rejects_infinite_rho():
    with pytest.raises(DomainError):
        mixing_cf(lm.gaussian_law(), GammaMeasure(1.0, 1.0), 1.0)
