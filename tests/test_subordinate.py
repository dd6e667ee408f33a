"""Triplet and CF maps for processes run on a subordinator clock.

The two-route checks pit exponent composition against reassembly from the
computed triplet (drift and Gaussian terms plus the mixed jump integral).
Frozen values come from closed forms evaluated with cmath/scipy only.
"""
import cmath
import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import special

import levymix as lm
from levymix import quadrature
from levymix.core import (
    AtomicMeasure,
    CompoundExponentialMeasure,
    GammaMeasure,
    OneSidedStableMeasure,
    SubordinatorPair,
    ZERO_MEASURE,
)
from levymix.errors import DomainError, QuadratureFailure, UnsupportedFamily
from levymix.mixing import IntervalSet
from levymix.subordinate import (
    JumpMixEvaluator,
    SeedCell,
    SeedField,
    cell_log_cf,
    cf_from_triplet,
    compose_cf,
    subordinate_triplet,
)

# -log(2): the standard normal on a gamma(1,1) clock at theta = sqrt(2)
VG_COMPOSE_SQRT2 = -0.69314718055994529
# psi(phi(1.7)) for base gaussian(0.5, 2.0), pair (0.3, gamma measure(1.5, 2.5))
COMPOSE_DRIFT_GAUSS_17 = complex(-2.0378056629853609, 0.48961699230575062)
# nested scipy quad of the truncated mean of N(s, s) against e^{-1.5 s}/s
GAMMA_BAR_DRIFTED_GAUSS = 0.31538291495117743
# E1(sqrt 2) - E1(2 sqrt 2)
VG_MIX_MASS_1_2 = 0.097496276251848396

VG_BASE = lm.gaussian_law()
VG_PAIR = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))


def test_compose_cf_frozen_values():
    assert compose_cf(VG_BASE, VG_PAIR, math.sqrt(2.0)) == pytest.approx(
        VG_COMPOSE_SQRT2, abs=1e-14
    )
    pair = SubordinatorPair(0.3, GammaMeasure(1.5, 2.5))
    assert compose_cf(lm.gaussian_law(0.5, 2.0), pair, 1.7) == pytest.approx(
        COMPOSE_DRIFT_GAUSS_17, abs=1e-13
    )
    assert compose_cf(VG_BASE, VG_PAIR, 0.0) == 0


def test_compose_cf_closed_form_grid():
    # -log(1 + theta^2 / 2) along a whole grid
    for th in np.linspace(-10, 10, 41):
        want = -cmath.log(1.0 + 0.5 * th * th)
        assert compose_cf(VG_BASE, VG_PAIR, float(th)) == pytest.approx(want, abs=1e-13)


def test_compose_cf_additive_under_pair_convolution():
    rng = np.random.default_rng(11)
    p1 = SubordinatorPair(0.2, GammaMeasure(1.0, 2.0))
    p2 = SubordinatorPair(0.5, GammaMeasure(0.7, 2.0))
    merged = SubordinatorPair(0.7, GammaMeasure(1.7, 2.0))
    base = lm.gaussian_law(0.3, 1.0)
    for th in rng.uniform(-8.0, 8.0, 20):
        lhs = compose_cf(base, merged, float(th))
        rhs = compose_cf(base, p1, float(th)) + compose_cf(base, p2, float(th))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_subordinate_triplet_gaussian_part_is_exact_product():
    base = lm.gaussian_law(0.5, 1.7)
    for drift in (0.0, 0.3, 2.0):
        st = subordinate_triplet(base, SubordinatorPair(drift, GammaMeasure(1.0, 1.0)))
        assert st.b_bar == 1.7 * drift  # bit-exact product


def test_subordinate_triplet_gamma_bar_frozen():
    st = subordinate_triplet(
        lm.gaussian_law(1.0, 1.0), SubordinatorPair(0.0, GammaMeasure(1.0, 1.5))
    )
    assert st.gamma_bar == pytest.approx(GAMMA_BAR_DRIFTED_GAUSS, abs=1e-9)


def test_subordinate_triplet_symmetric_base_has_zero_mixing_drift():
    st = subordinate_triplet(VG_BASE, SubordinatorPair(0.4, GammaMeasure(1.0, 1.0)))
    # gamma_bar = drift * beta0 exactly: the mixing term vanishes by symmetry
    assert st.gamma_bar == 0.0 * 0.4


def test_subordinate_triplet_jump_mass_frozen():
    st = subordinate_triplet(VG_BASE, VG_PAIR)
    r = st.jumps.mass(IntervalSet.of(1.0, 2.0))
    assert r.value == pytest.approx(VG_MIX_MASS_1_2, abs=1e-10)
    neg = st.jumps.mass(IntervalSet.of(-2.0, -1.0))
    assert neg.value == pytest.approx(VG_MIX_MASS_1_2, abs=1e-10)


def test_subordinate_triplet_jump_mass_additive():
    st = subordinate_triplet(VG_BASE, VG_PAIR)
    a = st.jumps.mass(IntervalSet.of(0.5, 1.2))
    b = st.jumps.mass(IntervalSet.of(1.2, 3.0))
    both = st.jumps.mass(IntervalSet(((0.5, 1.2), (1.2, 3.0))))
    slack = a.abs_error_estimate + b.abs_error_estimate + both.abs_error_estimate
    assert a.value >= 0 and b.value >= 0
    assert a.value + b.value == pytest.approx(both.value, abs=slack + 1e-12)


def test_drift_pair_scales_the_base():
    # pure-drift clock: X_t = L_{beta0 t}, so the exponent scales by beta0
    base = lm.gamma_law(2.0, 3.0)
    st = subordinate_triplet(base, SubordinatorPair(0.7, ZERO_MEASURE))
    for th in (0.5, 1.5, -4.0):
        assert cf_from_triplet(st, th) == pytest.approx(
            0.7 * lm.char_exponent(base, th), abs=1e-10
        )


TWO_ROUTE_FIXTURES = [
    ("vg", VG_BASE, VG_PAIR, 1e-8),
    ("drift-gauss", lm.gaussian_law(0.5, 2.0), SubordinatorPair(0.3, GammaMeasure(1.5, 2.5)), 1e-8),
    ("gamma-base", lm.gamma_law(2.0, 3.0), SubordinatorPair(0.2, GammaMeasure(1.0, 1.5)), 1e-8),
    ("poisson-atom", lm.poisson_law(0.8, 1.3), SubordinatorPair(0.5, AtomicMeasure(((0.7, 0.6),))), 1e-8),
    ("cauchy-gamma", lm.cauchy_law(1.0), SubordinatorPair(0.0, GammaMeasure(1.0, 1.0)), 1e-7),
    ("delta-base", lm.delta_law(1.3), SubordinatorPair(0.4, GammaMeasure(2.0, 3.0)), 1e-8),
    ("gauss-cexp", lm.gaussian_law(0.0, 1.5), SubordinatorPair(0.0, CompoundExponentialMeasure(1.2, 2.5)), 1e-8),
    # the lower tail is the heavier one: the x-grid cut must cover it
    ("neg-mean-gauss", lm.gaussian_law(-3.0, 1.0), SubordinatorPair(0.0, GammaMeasure(1.0, 1.0)), 1e-8),
    ("delta-neg-gamma", lm.delta_law(-0.7), SubordinatorPair(0.0, GammaMeasure(1.0, 0.5)), 1e-11),
    ("delta-cexp", lm.delta_law(1.5), SubordinatorPair(0.0, CompoundExponentialMeasure(2.0, 1.5)), 1e-11),
    # rule clocks keep the rule sum of their nodes' images
    ("delta-atoms", lm.delta_law(1.5), SubordinatorPair(0.0, AtomicMeasure(((0.5, 0.6), (2.0, 0.3)))), 1e-11),
]


@pytest.mark.parametrize("name,base,pair,tol", TWO_ROUTE_FIXTURES, ids=lambda v: v if isinstance(v, str) else "")
def test_two_route_cf_agreement(name, base, pair, tol):
    st = subordinate_triplet(base, pair)
    worst = 0.0
    for th in np.linspace(-10.0, 10.0, 21):
        gap = abs(cf_from_triplet(st, float(th)) - compose_cf(base, pair, float(th)))
        worst = max(worst, gap)
    assert worst <= tol, f"{name}: two-route gap {worst:.3e}"


@pytest.mark.parametrize("base", [lm.gaussian_law(), lm.gaussian_law(0.0, 2.5), lm.cauchy_law(0.7)],
                         ids=["std-gauss", "gauss-var", "cauchy"])
def test_even_laws_have_mirror_image_densities(base):
    # the x-grid builds the mixed density of an even law on x > 0 only
    assert base.law.even
    s = np.geomspace(1e-6, 50.0, 40)[:, None]
    x = np.geomspace(1e-9, 1e3, 60)
    assert np.array_equal(base.law.density(s, -x), base.law.density(s, x))


@pytest.mark.parametrize("base, pair", [
    (VG_BASE, VG_PAIR),
    (lm.cauchy_law(1.0), SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))),
    (lm.delta_law(1.5), SubordinatorPair(0.2, GammaMeasure(2.0, 3.0))),
], ids=["vg", "cauchy-gamma", "delta-gamma"])
def test_later_thetas_reuse_the_cached_grid(monkeypatch, base, pair):
    st = subordinate_triplet(base, pair)
    cf_from_triplet(st, 10.0)
    calls = []
    real_adaptive, real_density = quadrature.integrate_adaptive, JumpMixEvaluator._mixed_density
    monkeypatch.setattr(quadrature, "integrate_adaptive", lambda *a, **k: calls.append("adaptive") or real_adaptive(*a, **k))
    monkeypatch.setattr(JumpMixEvaluator, "_mixed_density", lambda *a: calls.append("density") or real_density(*a))
    for th in np.linspace(-10.0, 10.0, 30):
        cf_from_triplet(st, float(th))
    assert calls == []


def test_subordinate_triplet_rejects_zero_convention_base():
    law = lm.gamma_law(2.0, 3.0)
    moved = dataclasses.replace(
        law, drift=law.drift - law.jumps.truncated_moment(1, 1.0), convention=lm.TruncationConvention.ZERO
    )
    with pytest.raises(DomainError):
        subordinate_triplet(moved, VG_PAIR)


def test_subordinate_triplet_rejects_untagged_base_with_jumps():
    plain = lm.LevyTriplet(0.0, 1.0, ZERO_MEASURE)
    assert subordinate_triplet(plain, SubordinatorPair(0.5, ZERO_MEASURE)).b_bar == 0.5
    with pytest.raises(UnsupportedFamily):
        subordinate_triplet(plain, VG_PAIR)


def test_subordinate_triplet_refuses_a_degenerate_base_at_zero():
    with pytest.raises(DomainError, match="outside the mixing domain"):
        subordinate_triplet(lm.delta_law(0.0), VG_PAIR)
    # at a nonzero point the jumps are the pushforward of the clock's
    st = subordinate_triplet(lm.delta_law(1.0), VG_PAIR)
    assert st.gamma_bar == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)


def test_poisson_counts_inside_the_unit_interval_are_capped():
    # jump size 1e-30 puts 1e30 counts in |x| <= 1: refused by name before
    # any array of them is built
    law = lm.poisson_law(1.0, 1e-30)
    with pytest.raises(QuadratureFailure, match="1e\\+30, over 10000"):
        subordinate_triplet(law, VG_PAIR)
    with pytest.raises(QuadratureFailure, match="over 10000"):
        lm.small_s_ratio(law, 0.5)
    # 1e4 counts are still summed
    assert lm.poisson_law(1.0, 1e-4).law.truncated_mean(0.5) == pytest.approx(0.5e-4, rel=1e-12)


def test_empty_atomic_measure_is_the_zero_measure():
    # an atomic measure with no atoms took the atom routes and asked max()
    # of no positions for its tail cut
    empty = AtomicMeasure(())
    assert empty == ZERO_MEASURE and empty.is_zero() and empty.tail_cutoff(1e-12) == 1.0
    mix = lm.phi_mix_mass(lm.delta_law(1.0), empty, IntervalSet.of(0.5, 1.5))
    assert (mix.value, mix.abs_error_estimate) == (0.0, 0.0)
    st = subordinate_triplet(lm.poisson_law(1.0), SubordinatorPair(0.0, empty))
    assert (st.gamma_bar, st.jumps.char_integral(1.0)) == (0.0, 0j)


def test_clock_distinguishes_equal_mean_subordinators():
    # gamma(1,1) and gamma(2,2) clocks share their mean but not the law of
    # the subordinated process
    base = lm.gaussian_law(0.0, 1.0)
    p1 = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))
    p2 = SubordinatorPair(0.0, GammaMeasure(2.0, 2.0))
    grid = np.linspace(-10.0, 10.0, 101)
    gap = max(
        abs(compose_cf(base, p1, float(th)) - compose_cf(base, p2, float(th)))
        for th in grid
    )
    assert gap > 0.01


# --- seed fields --------------------------------------------------------------


def test_seed_cell_validation_and_geometry():
    cell = SeedCell(((0.0, 2.0), (1.0, 1.5)), VG_PAIR, weight=3.0)
    assert cell.volume == 2.0 * 0.5
    assert cell.control_mass == 3.0 * 1.0
    with pytest.raises(DomainError):
        SeedCell(((0.0, 0.0),), VG_PAIR)
    with pytest.raises(DomainError):
        SeedCell(((0.0, 1.0),), VG_PAIR, weight=0.0)
    with pytest.raises(DomainError):
        SeedCell(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), VG_PAIR)


def test_seed_field_rejects_overlap_and_mixed_dims():
    c1 = SeedCell(((0.0, 1.0), (0.0, 1.0)), VG_PAIR)
    c2 = SeedCell(((0.5, 1.5), (0.0, 1.0)), VG_PAIR)
    c3 = SeedCell(((1.0, 2.0), (0.0, 1.0)), VG_PAIR)
    with pytest.raises(DomainError):
        SeedField((c1, c2))
    fld = SeedField((c1, c3))  # half-open boxes: sharing a face is fine
    assert len(fld.cells) == 2
    # overlapping cells far apart in input order, behind a row of disjoint ones
    row = [SeedCell(((float(k), k + 1.0), (5.0, 6.0)), VG_PAIR) for k in range(20)]
    with pytest.raises(DomainError):
        SeedField(tuple([c1] + row + [c2]))
    assert len(SeedField(tuple([c1] + row + [c3])).cells) == 22
    with pytest.raises(DomainError):
        SeedField((c1, SeedCell(((0.0, 1.0),), VG_PAIR)))
    with pytest.raises(DomainError):
        SeedField(())


def test_cell_log_cf_scales_with_control_mass():
    cell = SeedCell(((0.0, 2.0),), VG_PAIR, weight=1.5)
    for th in (0.7, 2.0, -3.0):
        want = 3.0 * compose_cf(VG_BASE, VG_PAIR, th)
        assert cell_log_cf(VG_BASE, cell, th) == pytest.approx(want, abs=1e-13)


def test_fields_differing_in_one_cell_have_separated_cell_cfs():
    base = lm.gaussian_law(0.0, 1.0)
    cell_a = SeedCell(((0.0, 1.0),), SubordinatorPair(0.0, GammaMeasure(1.0, 1.0)))
    cell_b = SeedCell(((0.0, 1.0),), SubordinatorPair(0.0, GammaMeasure(2.0, 2.0)))
    grid = np.linspace(-10.0, 10.0, 101)
    gap = max(
        abs(cell_log_cf(base, cell_a, float(th)) - cell_log_cf(base, cell_b, float(th)))
        for th in grid
    )
    assert gap > 0.01


def test_light_tail_cut_is_bounded_before_the_grid():
    # a gaussian base on a 1/2-stable clock would put the x-grid cut at
    # 1.9e12; the cut search stops at 1e6 before any grid is built
    st = subordinate_triplet(lm.gaussian_law(), SubordinatorPair(0.0, OneSidedStableMeasure(0.5, 0.5)))
    with pytest.raises(QuadratureFailure, match="beyond x"):
        cf_from_triplet(st, 10.0)


@pytest.mark.parametrize("theta", [-10.0, 0.5, 9.9])
def test_pushforward_resolves_the_compensator_jump(theta):
    # delta(1.5) base on a gamma(2, 3) clock: the jump integral of
    # e^{i theta x} - 1 - i theta x 1{|x| <= 1} against the pushforward is the
    # gamma Laplace integral less the compensator, whose jump sits at x = 1
    pair = SubordinatorPair(0.2, GammaMeasure(2.0, 3.0))
    value = subordinate_triplet(lm.delta_law(1.5), pair).jumps.char_integral(theta)
    m1 = GammaMeasure(2.0, 3.0).truncated_moment(1, 2.0 / 3.0)
    want = -2.0 * cmath.log(1.0 - 1.5j * theta / 3.0) - 1.5j * theta * m1
    assert abs(value - want) <= 1e-12


def test_pushforward_beyond_resolution_fails_fast_or_agrees():
    # a 0.3-stable clock puts the tail cut at s ~ 1e43, where e^{i theta 1.5 s}
    # oscillates past any panel count; the result is refused quickly or right
    base, pair = lm.delta_law(1.5), SubordinatorPair(0.2, OneSidedStableMeasure(0.3, 1.0))
    start = time.perf_counter()
    try:
        gap = abs(cf_from_triplet(subordinate_triplet(base, pair), -10.0) - compose_cf(base, pair, -10.0))
        assert gap <= 1e-9
    except QuadratureFailure:
        pass
    assert time.perf_counter() - start < 5.0


def test_poisson_atoms_refuse_unbounded_counts():
    # a 1/2-stable clock cuts its tail at 1e32, so the count range of the
    # Poisson mix is refused before any quadrature
    st = subordinate_triplet(lm.poisson_law(1.0, 1.0), SubordinatorPair(0.0, OneSidedStableMeasure(0.5, 0.5)))
    start = time.perf_counter()
    with pytest.raises(QuadratureFailure, match="jump counts"):
        cf_from_triplet(st, 1.0)
    assert time.perf_counter() - start < 1.0
