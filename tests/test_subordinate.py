"""Triplet and CF maps for processes run on a subordinator clock.

The two-route checks pit exponent composition against reassembly from the
computed triplet (drift and Gaussian terms plus the mixed jump integral).
Frozen values come from closed forms evaluated with cmath/scipy only.
"""
import cmath
import importlib.util
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import levymix as lm
from levymix import mixing, quadrature, subordinate
from levymix.core import (
    AtomicMeasure,
    CompoundExponentialMeasure,
    GammaMeasure,
    OneSidedStableMeasure,
    SubordinatorPair,
    TabulatedMeasure,
    TaggedLaw,
    ZERO_MEASURE,
)
from levymix.errors import DomainError, QuadratureFailure, UnsupportedFamily
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


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_a_theta_that_is_not_finite_is_refused(theta):
    st = subordinate_triplet(VG_BASE, VG_PAIR)
    for call in (lambda: lm.char_exponent(VG_BASE, theta), lambda: compose_cf(VG_BASE, VG_PAIR, [0.5, theta]),
                 lambda: cf_from_triplet(st, theta)):
        with pytest.raises(DomainError, match="theta must be finite"):
            call()


def test_an_exponent_past_the_float_range_is_refused_naming_its_theta():
    # -var theta^2 / 2 passes the float range near |theta| = 1.9e154
    assert math.isfinite(lm.char_exponent(VG_BASE, 1e154).real)
    with pytest.raises(DomainError, match=r"the exponent at theta = -2e\+154 is past the float range"):
        compose_cf(VG_BASE, VG_PAIR, np.array([1.0, -2e154, 3e154]))
    # a Poisson base's drift and compensator reach inf - inf near the float limit
    with pytest.raises(DomainError, match=r"the exponent at theta = 1.7e\+308 is past the float range"):
        lm.char_exponent(lm.poisson_law(2.0, 0.7), 1.7e308)
    # the triplet route refuses what compose_cf refuses, without a warning
    drifted = subordinate_triplet(VG_BASE, SubordinatorPair(0.5, GammaMeasure(1.0, 1.0)))
    for st, theta in ((drifted, 1e200), (drifted, 1.7e308), (subordinate_triplet(VG_BASE, VG_PAIR), 1.7e308)):
        with pytest.raises(DomainError, match=re.escape(f"the exponent at theta = {theta:g} is past the float range")):
            cf_from_triplet(st, theta)
        with pytest.raises(DomainError, match="past the float range"):
            compose_cf(VG_BASE, st.jumps.pair, theta)


def test_an_atom_clock_past_the_float_range_tends_to_minus_its_mass():
    # z * pos overflows to -inf at each atom, where exp gives the term 0
    pair = SubordinatorPair(0.0, AtomicMeasure(((0.5, 0.7), (1.5, 0.4))))
    for theta in (1e308, 1.7e308, -1.7e308):
        assert compose_cf(lm.cauchy_law(0.8), pair, theta) == -1.1 + 0j


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
    r = st.jumps.mass([(1.0, 2.0)])[0]
    assert r.value == pytest.approx(VG_MIX_MASS_1_2, abs=1e-10)
    neg = st.jumps.mass([(-2.0, -1.0)])[0]
    assert neg.value == pytest.approx(VG_MIX_MASS_1_2, abs=1e-10)


@pytest.mark.parametrize("base, pair", [
    (lm.gamma_law(2.0, 3.0), SubordinatorPair(0.4, GammaMeasure(1.0, 1.5))),
    (lm.poisson_law(0.8, 1.3), SubordinatorPair(0.5, AtomicMeasure(((0.7, 0.6), (1.9, 0.2))))),
    (lm.delta_law(-0.7), SubordinatorPair(0.3, GammaMeasure(1.0, 0.5))),
    (lm.gaussian_law(0.3, 1.2), SubordinatorPair(0.2, AtomicMeasure(((0.5, 0.7), (1.5, 0.4), (3.0, 0.2))))),
    (lm.gaussian_law(0.3, 1.2), SubordinatorPair(0.2, TabulatedMeasure(
        tuple(np.linspace(0.5, 2.0, 61)), tuple(np.exp(-np.linspace(0.5, 2.0, 61)))))),
], ids=["gamma-gamma", "poisson-atoms", "delta-gamma", "gauss-atoms", "gauss-tabulated"])
def test_jump_mass_block_agrees_with_one_cell_calls(base, pair):
    # the drift part beta0 * nu is added to each cell of the block
    cells = [(-2.0, -0.5), (0.05, 0.3), (0.3, 1.0), (1.0, 2.5), (0.1, 0.2), (1.5, 3.0)]
    jumps = subordinate_triplet(base, pair).jumps
    block = jumps.mass(cells)
    for cell, b in zip(cells, block):
        one = jumps.mass([cell])[0]
        if pair.jumps.fixed_rule() is not None or base.is_degenerate():
            assert b == one
        gap = abs(b.value - one.value)
        assert gap <= 1e-12 * one.value and gap <= b.abs_error_estimate
    drifted = JumpMixEvaluator(base, SubordinatorPair(0.4, ZERO_MEASURE)).mass(cells)
    want = [base.jumps.scaled(0.4).interval_mass(lo, hi) for lo, hi in cells]
    assert [r.value for r in drifted] == want


def test_delta_drift_term_is_the_clocks_truncated_moment(monkeypatch):
    # 1.5 * integral of s * 2 e^{-3 s} / s over s <= 2/3 is 1 - e^{-2}
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the delta base's drift term needs no quadrature")

    monkeypatch.setattr(quadrature, "integrate_adaptive", no_quadrature)
    pair = SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))
    value = subordinate._mixing_drift_term(lm.delta_law(1.5), pair)
    assert abs(value - (1.0 - math.exp(-2.0))) <= 1e-15


@pytest.mark.parametrize("speed", [1.5, -1.5, 9.0])
def test_delta_drift_term_counts_the_atoms_the_compensator_counts(speed):
    # an atom one ulp past 1/|v| whose image v * s still rounds to |x| = 1:
    # the truncated mean and the compensator both count it, or the routes
    # part by theta * v * s * mass
    past = math.nextafter(1.0 / abs(speed), math.inf)
    assert abs(speed * past) == 1.0
    base, pair = lm.delta_law(speed), SubordinatorPair(0.0, AtomicMeasure(((past, 0.5), (2.0, 0.3))))
    st = subordinate_triplet(base, pair)
    assert st.gamma_bar == speed * past * 0.5
    for th in (-3.0, 0.5, 5.0):
        assert abs(cf_from_triplet(st, th) - compose_cf(base, pair, th)) <= 1e-15


# Two-route gaps, the sup over theta in [-10, 10] of |triplet route - composed
# route|, of delta bases at the parent revision, whose drift term was a
# quadrature; a 1/2-stable clock's jump integral is out of the x-grid's
# reach, so its gap is that of the drift term to a scipy quad of it.
DELTA_CLOCKS = {
    "gamma": GammaMeasure(2.0, 3.0),
    "cexp": CompoundExponentialMeasure(2.0, 1.5),
    "stable": OneSidedStableMeasure(0.5, 0.4),
    # an atom at s = 1/1.5, where delta(1.5) reaches x = 1
    "atoms": AtomicMeasure(((0.5, 0.6), (2.0, 0.3), (1.0 / 1.5, 0.2))),
    "tabulated": TabulatedMeasure(tuple(np.linspace(0.5, 2.0, 61)), tuple(np.exp(-np.linspace(0.5, 2.0, 61)))),
}
PARENT_DELTA_GAPS = {
    ("gamma", 1.5): 3.56e-14, ("gamma", -1.5): 3.56e-14, ("gamma", 0.3): 1.94e-14,
    ("cexp", 1.5): 5.27e-15, ("cexp", -1.5): 5.27e-15, ("cexp", 0.3): 7.56e-15,
    ("stable", 1.5): 3.67e-15, ("stable", -1.5): 3.67e-15, ("stable", 0.3): 1.56e-15,
    ("atoms", 1.5): 1.78e-15, ("atoms", -1.5): 1.78e-15, ("atoms", 0.3): 8.89e-16,
    ("tabulated", 1.5): 1.79e-15, ("tabulated", -1.5): 1.79e-15, ("tabulated", 0.3): 1.67e-15,
}


@pytest.mark.parametrize("clock, speed", list(PARENT_DELTA_GAPS), ids=lambda v: str(v))
def test_delta_drift_term_keeps_the_two_routes_together(clock, speed):
    base, pair = lm.delta_law(speed), SubordinatorPair(0.2, DELTA_CLOCKS[clock])
    if clock == "stable":
        rho = pair.jumps
        want, _ = integrate.quad(lambda s: speed * s * float(rho.density(s)), 0.0, 1.0 / abs(speed),
                                 epsabs=1e-14, epsrel=1e-14, limit=200)
        gap = abs(subordinate._mixing_drift_term(base, pair) - want)
    else:
        st = subordinate_triplet(base, pair)
        gap = max(abs(cf_from_triplet(st, float(th)) - compose_cf(base, pair, float(th)))
                  for th in np.linspace(-10.0, 10.0, 21))
    assert gap <= PARENT_DELTA_GAPS[clock, speed] + 1e-14


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
    # a tabulated clock: a density whose s-rule starts from panels cut at its grid
    ("gauss-tabulated", lm.gaussian_law(1.0, 1.0), SubordinatorPair(0.0, TabulatedMeasure(
        tuple(np.linspace(0.5, 2.0, 61)), tuple(np.exp(-np.linspace(0.5, 2.0, 61))))), 1e-8),
    # an atom clock keeps the sum of its atoms' images
    ("delta-atoms", lm.delta_law(1.5), SubordinatorPair(0.0, AtomicMeasure(((0.5, 0.6), (2.0, 0.3)))), 1e-11),
    # bases without moments under an atom clock: no mean +- 8 sd cuts
    ("cauchy-atoms", lm.cauchy_law(1.0), SubordinatorPair(0.0, AtomicMeasure(((0.5, 0.7), (2.0, 0.3)))), 1e-8),
    ("half-stable-atoms", lm.one_sided_stable_law(0.5, 0.6),
     SubordinatorPair(0.0, AtomicMeasure(((0.5, 0.7), (2.0, 0.3)))), 1e-8),
]


@pytest.mark.parametrize("name,base,pair,tol", TWO_ROUTE_FIXTURES, ids=lambda v: v if isinstance(v, str) else "")
def test_two_route_cf_agreement(name, base, pair, tol):
    st = subordinate_triplet(base, pair)
    worst = 0.0
    # at theta = -100 and 300 the outer pieces of |x| <= 1 sum by parts
    for th in [*np.linspace(-10.0, 10.0, 21), 50.0, -100.0, 300.0]:
        gap = abs(cf_from_triplet(st, float(th)) - compose_cf(base, pair, float(th)))
        worst = max(worst, gap)
    assert worst <= tol, f"{name}: two-route gap {worst:.3e}"


def test_cauchy_base_under_a_small_index_stable_clock_is_silent():
    # the tail cut of a 0.08-stable clock puts s-nodes near 1e164, where
    # c * c overflows: the density takes its scaled form on that block (the
    # suite turns the overflow warning into an error)
    base, pair = lm.cauchy_law(1.0), SubordinatorPair(0.0, OneSidedStableMeasure(0.08, 1.0))
    gap = abs(cf_from_triplet(subordinate_triplet(base, pair), 0.5) - compose_cf(base, pair, 0.5))
    assert gap <= 1e-9


# The grid's s-rule is the one integrate_rho certifies, from a floor that
# drops less than its tolerance of every tail mass; a rule that starts at
# s = 1e-14 misses these stable clocks by up to 4e-4 and N(3, 0.01) by
# 1.2e-3.  At index 0.8 and 0.9 no such floor has a finite clock density,
# and the route refuses.
STABLE_THETAS = (0.5, -0.5, 10.0, -10.0)
RELEASE_OR_REFUSE = [
    *[(f"cauchy-stable{index}", lm.cauchy_law(1.0), SubordinatorPair(0.0, OneSidedStableMeasure(index, 1.0)),
       STABLE_THETAS) for index in (0.3, 0.5, 0.7)],
    ("cauchy541-stable0769", lm.cauchy_law(5.41), SubordinatorPair(0.0, OneSidedStableMeasure(0.769, 0.0584)),
     STABLE_THETAS),
    ("gauss-3-narrow", lm.gaussian_law(3.0, 0.01), SubordinatorPair(0.0, GammaMeasure(1.0, 1.0)), (0.5, 3.0, -7.0)),
    *[(f"cauchy-stable{index}", lm.cauchy_law(1.0), SubordinatorPair(0.0, OneSidedStableMeasure(index, 1.0)), ())
      for index in (0.8, 0.9)],
]


@pytest.mark.parametrize("name,base,pair,thetas", RELEASE_OR_REFUSE, ids=[case[0] for case in RELEASE_OR_REFUSE])
def test_triplet_route_releases_within_1e9_or_refuses(name, base, pair, thetas):
    if not thetas:
        with pytest.raises(QuadratureFailure, match="no lower cut"):
            cf_from_triplet(subordinate_triplet(base, pair), 0.5)
        return
    st = subordinate_triplet(base, pair)
    for th in thetas:
        want = compose_cf(base, pair, th)
        gap = abs(cf_from_triplet(st, th) - want)
        assert gap <= 1e-9 * max(1.0, abs(want)), f"{name} at {th}: {gap:.3e}"


def test_gamma_base_under_an_atom_clock_cuts_at_its_components():
    # GammaLaw.mean_sd gives the cuts: mu^s is gamma(shape s, rate)
    from scipy import stats

    base = lm.gamma_law(2.0, 3.0)
    s = np.array([0.01, 0.5, 2.0])
    mean, sd = base.law.mean_sd(s)
    assert mean == pytest.approx(stats.gamma.mean(2.0 * s, scale=1.0 / 3.0), rel=1e-15, abs=0.0)
    assert sd == pytest.approx(stats.gamma.std(2.0 * s, scale=1.0 / 3.0), rel=1e-15, abs=0.0)
    pair = SubordinatorPair(0.0, AtomicMeasure(((0.01, 1.0), (0.5, 0.7), (2.0, 0.4))))
    st = subordinate_triplet(base, pair)
    for th in np.linspace(-10.0, 10.0, 21):
        want = compose_cf(base, pair, float(th))
        assert abs(cf_from_triplet(st, float(th)) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("base, pair, theta, tol", [
    # the grid ends at x_hi = 8.6e11 and subtracts the mass past it
    (lm.cauchy_law(1.0), SubordinatorPair(0.0, GammaMeasure(2.0, 3.0)), 1e-6, 1e-9),
    # relative to |psi|: the even part sums -2 w sin^2(theta x / 2)
    (lm.cauchy_law(1.0), SubordinatorPair(0.0, GammaMeasure(2.0, 3.0)), 1e-2, 1e-9),
    (lm.cauchy_law(1.0), SubordinatorPair(0.0, GammaMeasure(2.0, 3.0)), -1e-4, 1e-9),
    (VG_BASE, SubordinatorPair(0.0, GammaMeasure(2.0, 3.0)), 1e-3, 1e-9),
    (VG_BASE, SubordinatorPair(0.0, GammaMeasure(2.0, 3.0)), 1e-5, 1e-9),
], ids=["cauchy-gamma-1e-6-abs", "cauchy-gamma-1e-2", "cauchy-gamma-1e-4", "vg-1e-3", "vg-1e-5"])
def test_triplet_route_holds_near_theta_zero(base, pair, theta, tol):
    want = compose_cf(base, pair, theta)
    gap = abs(cf_from_triplet(subordinate_triplet(base, pair), theta) - want)
    assert gap <= tol * (1.0 if theta == 1e-6 else abs(want)), f"{gap:.3e} against {abs(want):.3e}"


def test_heavy_tail_past_the_cut_is_refused_where_its_bound_exceeds_the_release_tolerance():
    # the 1/2-stable clock leaves mass past the cut that 2 sqrt 2 f(x_hi) /
    # |theta| bounds only well away from theta = 0
    base, pair = lm.cauchy_law(1.0), SubordinatorPair(0.0, OneSidedStableMeasure(0.5, 1.0))
    st = subordinate_triplet(base, pair)
    with pytest.raises(QuadratureFailure, match=r"the tail past x = 8.38e\+11 is bounded only by 3.09e-06"):
        cf_from_triplet(st, 1e-12)
    want = compose_cf(base, pair, 0.5)
    assert abs(cf_from_triplet(st, 0.5) - want) <= 1e-14 * max(1.0, abs(want))


def test_atom_clock_with_narrow_components_keeps_the_two_routes_together():
    # mu^0.01 sits at x = 4.148 with sd 5.3e-3: the panels are cut at each
    # atom's mean and mean +- 8 sd, so that no checked panel steps over one
    base = lm.gaussian_law(414.8, 0.00278)
    pair = SubordinatorPair(0.045, AtomicMeasure(((0.010, 1.0), (0.060, 1.0), (20.5, 1.0))))
    st = subordinate_triplet(base, pair)
    for th in (0.5, 3.0, -7.0):
        want = compose_cf(base, pair, th)
        assert abs(cf_from_triplet(st, th) - want) <= 1e-9 * max(1.0, abs(want))


def test_triplet_route_does_not_depend_on_the_blas_thread_count():
    # fresh processes, since the BLAS thread pool is sized at import
    script = """
import numpy as np, levymix as lm
from levymix.core import GammaMeasure, OneSidedStableMeasure, SubordinatorPair
from levymix.subordinate import cf_from_triplet, subordinate_triplet
models = [
    (lm.cauchy_law(1.0), SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))),
    (lm.gaussian_law(), SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))),
    (lm.gaussian_law(10.0, 0.01), SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))),
    (lm.cauchy_law(1.0), SubordinatorPair(0.0, OneSidedStableMeasure(0.08, 1.0))),
]
for base, pair in models:
    st = subordinate_triplet(base, pair)
    for th in np.linspace(-10.0, 10.0, 21):
        z = cf_from_triplet(st, float(th))
        print(z.real.hex(), z.imag.hex())
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split("\n")) == 4 * 21 + 1
    assert outputs[0] == outputs[1]


def test_bench_tracer_still_fits_the_triplet_route():
    # bench/spans.py wraps JumpMixEvaluator._grid and _pushforward_integral,
    # reads _grid_cache and counts char_integral calls: a rename here would
    # stop its metrics
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import levymix.cli  # noqa: F401  (the tracer wraps every layer)

    tracer = spans.Tracer(lm)
    tracer.install()
    try:
        tracer.begin_round()
        for base, pair in ((lm.cauchy_law(1.0), SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))),
                           (lm.delta_law(1.5), SubordinatorPair(0.0, DELTA_CLOCKS["tabulated"]))):
            st = subordinate.subordinate_triplet(base, pair)
            for th in (0.5, -3.0, 7.0):
                subordinate.cf_from_triplet(st, th)
        tracer.end_round()
    finally:
        tracer.uninstall()
    metrics = tracer.round_metrics()[-1]
    assert metrics["subordinate.grid_build_s"] > 0
    # the delta base asks for its pushforward under the name the tracer
    # wraps, though a tabulated clock's image is pieces and it returns None
    assert metrics["subordinate.pushforward_s"] > 0
    assert metrics["subordinate.char_integral_calls"] == 6


@pytest.mark.parametrize("base", [lm.gaussian_law(), lm.gaussian_law(0.0, 2.5), lm.cauchy_law(0.7)],
                         ids=["std-gauss", "gauss-var", "cauchy"])
def test_even_laws_have_mirror_image_densities(base):
    # the x-grid builds the mixed density of an even law on x > 0 only
    assert base.law.even
    s = np.geomspace(1e-6, 50.0, 40)[:, None]
    x = np.geomspace(1e-9, 1e3, 60)
    assert np.array_equal(base.law.density(s, -x), base.law.density(s, x))
    _, _, (s_nodes, s_weights) = mixing.integrate_rho(GammaMeasure(2.0, 3.0), lambda s: s, linear_bound=1.0)
    assert np.array_equal(base.law.mixed_density(-x, s_nodes, s_weights),
                          base.law.mixed_density(x, s_nodes, s_weights))


@pytest.mark.parametrize("rho", [GammaMeasure(1.0, 1.0), GammaMeasure(2.0, 3.0)], ids=["gamma11", "gamma23"])
@pytest.mark.parametrize("mean, var", [(0.0, 1.0), (-3.0, 1.0), (10.0, 0.01), (414.8, 0.00278)])
def test_gaussian_mixed_density_matches_the_generic_blocked_sum(mean, var, rho):
    # the Gaussian kernel, its normalisation folded into the s-weights, against
    # density(s, x) @ w; x runs over the grid's range and through each
    # node's peak at mean * s, where a narrow law's mass sits
    law = lm.gaussian_law(mean, var).law
    _, _, (s_nodes, s_weights) = mixing.integrate_rho(rho, lambda s: s, linear_bound=1.0)
    m, sd = law.mean_sd(s_nodes)
    x = np.geomspace(1e-9, 1e6, 2001)
    x = np.concatenate([-x, x, (m + np.outer([-3.0, -1.0, 0.0, 1.0, 3.0], sd)).ravel()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = law.mixed_density(x, s_nodes, s_weights)
    want = TaggedLaw.mixed_density(law, x, s_nodes, s_weights)
    live = want > 1e-300
    assert live.sum() > 1000
    gap = np.abs(got[live] - want[live]) / want[live]
    assert gap.max() <= 1e-12, f"{gap.max():.3e} at x = {x[live][gap.argmax()]:.6g}"
    assert np.all(got[~live] <= 1e-300)


@pytest.mark.parametrize("base, pair", [
    (VG_BASE, VG_PAIR),
    (lm.cauchy_law(1.0), SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))),
    (lm.delta_law(1.5), SubordinatorPair(0.2, GammaMeasure(2.0, 3.0))),
    # the tabulated clock's image pieces, cut at v xs, and a Poisson base's counts
    (lm.delta_law(1.5), SubordinatorPair(0.2, DELTA_CLOCKS["tabulated"])),
    (lm.poisson_law(0.8, 1.3), SubordinatorPair(0.5, AtomicMeasure(((0.7, 0.6),)))),
], ids=["vg", "cauchy-gamma", "delta-gamma", "delta-tabulated", "poisson-atom"])
def test_later_thetas_reuse_the_cached_grid(monkeypatch, base, pair):
    st = subordinate_triplet(base, pair)
    cf_from_triplet(st, 10.0)
    calls = []
    law_type, clock_type = type(base.law), type(pair.jumps)
    real_adaptive, real_density = quadrature.integrate_adaptive, law_type.mixed_density
    real_rho, real_rule = mixing.integrate_rho, clock_type.fixed_rule
    monkeypatch.setattr(quadrature, "integrate_adaptive", lambda *a, **k: calls.append("adaptive") or real_adaptive(*a, **k))
    monkeypatch.setattr(law_type, "mixed_density", lambda *a: calls.append("density") or real_density(*a))
    for module in (mixing, subordinate):
        monkeypatch.setattr(module, "integrate_rho", lambda *a, **k: calls.append("rho") or real_rho(*a, **k))
    monkeypatch.setattr(clock_type, "fixed_rule", lambda *a: calls.append("rule") or real_rule(*a))
    # one build serves every theta, near 0 and far out as well
    for th in [*np.linspace(-10.0, 10.0, 30), 1e-6, -1e-6, 100.0]:
        cf_from_triplet(st, float(th))
    assert calls == []
    want = compose_cf(base, pair, 100.0)
    assert abs(cf_from_triplet(st, 100.0) - want) <= 1e-9 * max(1.0, abs(want))


def test_a_delta_base_build_asks_an_atom_clock_for_its_rule_once(monkeypatch):
    # the image of an atom clock is its atoms carried to x = v s, one each
    clock, calls = DELTA_CLOCKS["atoms"], []
    real_rule = AtomicMeasure.fixed_rule
    monkeypatch.setattr(AtomicMeasure, "fixed_rule", lambda *a: calls.append(a[1:]) or real_rule(*a))
    grid = JumpMixEvaluator(lm.delta_law(1.5), SubordinatorPair(0.2, clock))._grid()
    assert calls == [()]
    assert grid.n_atoms == grid.xs.size == len(clock.atoms)
    assert list(grid.xs) == [1.5 * s for s, _ in clock.atoms] and list(grid.w) == [m for _, m in clock.atoms]


# A delta(v) base under an atom clock puts each atom at the float x = v s,
# and cells may end there exactly.  x / v need not give s back: a mass
# tested in s-space, against lo / v and hi / v, lands in the next cell.
# S_DOWN's x / 1.5 rounds below it, S_UP's above it.
S_DOWN, S_UP = 1.4028776546339965, 1.7872019413649967
ON_CELL_ENDS = [0.5, 0.75, 1.0, 1.5 * S_DOWN, 1.5 * S_UP, 3.0, 4.0]
DELTA_ATOM_EDGES = {
    "151": (151.03358603496065, ((1.7732391920694865, 0.7),), (1.0, 267.8186740759909, 2.0 * 267.8186740759909)),
    "-0.379": (-0.37900450052641743, ((0.857229841309542, 0.7),),
               (2.0 * -0.3248939678418631, -0.3248939678418631, -0.001)),
    "1.5": (1.5, ((0.5, 0.6), (1.0 / 1.5, 0.2), (S_DOWN, 0.7), (S_UP, 0.4), (2.0, 0.3)), ON_CELL_ENDS),
    "-1.5": (-1.5, ((0.5, 0.6), (1.0 / 1.5, 0.2), (S_DOWN, 0.7), (S_UP, 0.4), (2.0, 0.3)),
             [-x for x in ON_CELL_ENDS[::-1]]),
}


@pytest.mark.parametrize("case", DELTA_ATOM_EDGES)
def test_delta_base_masses_hold_each_atom_where_the_jump_grid_puts_it(case):
    speed, atoms, edges = DELTA_ATOM_EDGES[case]
    base, clock = lm.delta_law(speed), AtomicMeasure(atoms)
    assert all(speed * s in edges for s, _ in atoms)
    cells = list(zip(edges, edges[1:]))
    masses = [r.value for r in lm.phi_mix_mass(base, clock, cells)]
    xs = JumpMixEvaluator(base, SubordinatorPair(0.0, clock))._grid().xs
    for (lo, hi), got in zip(cells, masses):
        closed = held = 0.0
        for x, (s, m) in zip(xs, clock.atoms):
            closed += m * float(base.law.interval_mass(s, lo, hi))
            held += m if lo < x <= hi else 0.0
        assert got == closed == held
    assert math.fsum(masses) == pytest.approx(clock.total_mass(), rel=1e-15)


# The drift term of N(1, 0.01) under e^{-s} tabulated at n points of
# [0.5, 2], its truncated mean integrated cell by cell in 40-digit mpmath.
TABULATED_DRIFT_REFERENCES = {4: 0.17584416096924317173, 61: 0.17220677585415971783}


@pytest.mark.parametrize("n", TABULATED_DRIFT_REFERENCES)
def test_tabulated_clock_drift_terms_meet_their_references(n):
    # the clock is a density with panel edges at its grid: a coarse grid is
    # integrated as exactly as a fine one
    xs = np.linspace(0.5, 2.0, n)
    pair = SubordinatorPair(0.0, TabulatedMeasure(tuple(xs), tuple(np.exp(-xs))))
    gamma_bar = subordinate_triplet(lm.gaussian_law(1.0, 0.01), pair).gamma_bar
    assert abs(gamma_bar - TABULATED_DRIFT_REFERENCES[n]) <= 1e-15 * TABULATED_DRIFT_REFERENCES[n]


GAMMA_23 = SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))
GAMMA_11 = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))


@pytest.mark.parametrize("base, pair", [
    (VG_BASE, VG_PAIR),
    (lm.cauchy_law(1.0), GAMMA_23),
    (lm.gaussian_law(-3.0, 1.0), GAMMA_23),
], ids=["vg", "cauchy-gamma", "neg-mean-gauss-gamma"])
def test_piece_masses_match_the_mass_route(base, pair):
    # the pieces' masses over 1 < |x| <= x_hi and 1e-9 < |x| <= 1, both
    # sides together: an even law's pieces on x > 0 carry twice the mass
    grid = JumpMixEvaluator(base, pair)._grid()
    assert grid.n_atoms == 0
    outer = (grid.lo >= 1.0) | (grid.hi <= -1.0)
    for pieces, lo, hi in ((outer, 1.0, grid.x_hi), (~outer, subordinate._X_FLOOR, 1.0)):
        sides = mixing.phi_mix_mass(base, pair.jumps, [(-hi, -lo), (lo, hi)])
        want, want_err = sum(r.value for r in sides), sum(r.abs_error_estimate for r in sides)
        gap = abs(grid.mass[pieces].sum() - want)
        assert gap <= max(1e-12 * want, 2.0 * want_err), f"({lo:g}, {hi:g}]: {gap:.3e}"
INTERPOLATED_DENSITY_MODELS = [
    ("cauchy-gamma", lm.cauchy_law(1.0), GAMMA_23),
    ("cauchy-stable008", lm.cauchy_law(1.0), SubordinatorPair(0.0, OneSidedStableMeasure(0.08, 1.0))),
    ("one-sided-stable", lm.one_sided_stable_law(0.5, 1.0), GAMMA_23),
    ("neg-mean-gauss", lm.gaussian_law(-3.0, 1.0), GAMMA_11),
    ("vg", VG_BASE, VG_PAIR),
    # the coarse s-rule leaves these densities wiggly: most panels are refused
    ("gauss-3-narrow", lm.gaussian_law(3.0, 0.01), GAMMA_11),
    ("gauss-10-narrow", lm.gaussian_law(10.0, 0.01), GAMMA_11),
]


@pytest.mark.parametrize("name,base,pair", INTERPOLATED_DENSITY_MODELS,
                         ids=[m[0] for m in INTERPOLATED_DENSITY_MODELS])
def test_interpolated_density_matches_the_dense_build(monkeypatch, name, base, pair):
    # every piece's series against the kernel itself at the piece's own
    # points: its 24 Chebyshev points, which the series goes through, and a
    # checked panel's 4 check points as well; the unchecked pieces are those
    # of |x| <= 1 and the fallback pieces of refused panels
    unchecked, built = [], []
    real_series, real_panels = subordinate._series, subordinate._on_checked_panels

    def series(f, lo, hi, points=subordinate._CHEB):
        coeffs, values = real_series(f, lo, hi, points)
        if values.shape[1] == subordinate._CHEB.size:
            unchecked.append((f, lo, hi, coeffs, subordinate._CHEB))
        return coeffs, values

    def panels(f, edges):
        lo, hi, coeffs = real_panels(f, edges)
        built.append((f, lo, hi, coeffs))
        return lo, hi, coeffs

    monkeypatch.setattr(subordinate, "_series", series)
    monkeypatch.setattr(subordinate, "_on_checked_panels", panels)
    JumpMixEvaluator(base, pair)._grid()
    assert built and unchecked
    fallback = {(a, b) for _, lo, hi, *_ in unchecked for a, b in zip(lo, hi)}
    checked = []
    for f, lo, hi, coeffs in built:
        rows = np.array([(a, b) not in fallback for a, b in zip(lo, hi)], dtype=bool)
        checked.append((f, lo[rows], hi[rows], coeffs[rows], subordinate._PANEL_POINTS))
    for f, lo, hi, coeffs, t in unchecked + checked:
        if not lo.size:
            continue
        x = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * t
        want = f(x.ravel()).reshape(x.shape)
        got = np.einsum("tk,pk->pt", np.polynomial.chebyshev.chebvander(t, 23), coeffs)
        tol = 1e-14 * np.abs(want).max()
        assert np.abs(got - want).max() <= tol, f"{name}: {np.abs(got - want).max():.3e} > {tol:.3e}"


@pytest.mark.parametrize("omega", [1e-3, 2.0, 23.9, 24.0, 61.0, 1e3])
def test_panel_integral_is_exact_for_the_series(omega):
    # a degree-23 series q on a panel of half-width 2 against e^{i phi x}, at
    # omega = 2 phi: the rule the jump integral takes there (the 64-point
    # Gauss sum below omega = 24, by parts above) against 16-point Gauss on
    # 1,000 sub-panels, on each of which e^{i phi x} turns by at most 2 radians
    t, w, cheb_at_gauss, at_one, at_minus_one, *_ = subordinate._panel_rules()
    coeffs = np.random.default_rng(3).standard_normal(24) * 0.6 ** np.arange(24)
    lo, hi, phi = 3.0, 7.0, omega / 2.0
    edges = np.linspace(lo, hi, 1001)
    t16, w16 = np.polynomial.legendre.leggauss(16)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    x, wx = (mid + half * t16).ravel(), (half * w16).ravel()
    want = (wx * np.polynomial.chebyshev.chebval((x - 5.0) / 2.0, coeffs) * np.exp(1j * phi * x)).sum()
    if omega < subordinate._OMEGA_SWITCH:
        got = (2.0 * w * (cheb_at_gauss @ coeffs) * np.exp(1j * phi * (5.0 + 2.0 * t))).sum()
    else:
        got = subordinate._by_parts(np.array([phi]), np.array([lo]), np.array([hi]),
                                    (at_one @ coeffs)[None, :], (at_minus_one @ coeffs)[None, :])[0]
    assert abs(got - want) <= 1e-14 * np.abs(coeffs).sum()


def test_cauchy_gamma_grid_keeps_its_kernel_budget(monkeypatch):
    # (x, s) kernel entries of the whole theta-free build, 1,335,600: 24
    # Chebyshev points per piece of (0, 1], 28 points per checked panel out
    # to x_hi = 8.6e11, and the density at x_hi
    entries = []
    base = lm.cauchy_law(1.0)
    real = type(base.law).mixed_density

    def counted(self, xs, s_nodes, s_weights):
        entries.append(xs.size * s_nodes.size)
        return real(self, xs, s_nodes, s_weights)

    monkeypatch.setattr(type(base.law), "mixed_density", counted)
    JumpMixEvaluator(base, GAMMA_23)._grid()
    assert sum(entries) <= 1_400_000, f"{sum(entries)} kernel entries"


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
    assert st.gamma_bar == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10, abs=0.0)


def _poisson_count_sums(rate, h, s):
    """h sum k P(K = k) and (h^2 sum k^2 P(K = k) + P(K > m)) / s over the
    counts 1 <= k <= m = floor(1 / |h|) of K ~ Poisson(rate s), in 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        mean = mpmath.mpf(rate) * s
        p = inside = mpmath.exp(-mean)
        first = second = mpmath.mpf(0)
        for k in range(1, math.floor(1.0 / abs(h)) + 1):
            p *= mean / k
            first, second, inside = first + k * p, second + k * k * p, inside + p
        return float(h * first), float((mpmath.mpf(h) ** 2 * second + 1 - inside) / s)


@pytest.mark.parametrize("h", [1.0, 0.7, 0.3, -0.4, 1e-3, 1e-4])
def test_poisson_closed_forms_match_the_count_sums(h):
    # h rate s (1 - P(m, rate s)) and its second-moment form, with the
    # regularized incomplete gamma P: scipy's P(3, 2.5) is 2.3 ulp off, so
    # the truncated mean is held to two ulp of h rate s
    law = lm.poisson_law(0.5, h)
    for s in (1e-3, 0.5, 5.0, 50.0):
        mean, ratio = _poisson_count_sums(0.5, h, s)
        assert abs(law.law.truncated_mean(s) - mean) <= 4.4e-16 * abs(h) * 0.5 * s
        assert lm.small_s_ratio(law, s) == pytest.approx(ratio, rel=1e-12, abs=0.0)


def test_poisson_counts_past_any_array_still_answer():
    # jump size 1e-30 puts 1e30 counts in |x| <= 1, which no sum could hold
    law = lm.poisson_law(1.0, 1e-30)
    assert law.law.truncated_mean(0.5) == pytest.approx(0.5e-30, rel=1e-15, abs=0.0)
    assert lm.small_s_ratio(law, 0.5) == pytest.approx(1.5e-60, rel=1e-15, abs=0.0)
    assert subordinate_triplet(law, VG_PAIR).gamma_bar == pytest.approx(1e-30, rel=1e-9, abs=0.0)


def test_empty_atomic_measure_is_the_zero_measure():
    # an atomic measure with no atoms took the atom routes and asked max()
    # of no positions for its tail cut
    empty = AtomicMeasure(())
    assert empty == ZERO_MEASURE and empty.is_zero() and empty.tail_cutoff(1e-12) == 1.0
    mix = lm.phi_mix_mass(lm.delta_law(1.0), empty, [(0.5, 1.5)])[0]
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


def test_seed_field_sweeps_thousands_of_stacked_stripes():
    # 4,096 cells share one x-range: every two of them meet on the first axis
    stripes = [SeedCell(((0.0, 1.0), (float(k), k + 1.0)), VG_PAIR) for k in range(4096)]
    assert len(SeedField(tuple(stripes)).cells) == 4096
    overlapping = SeedCell(((0.5, 1.5), (4094.5, 4095.5)), VG_PAIR)
    with pytest.raises(DomainError, match="cell rectangles must be disjoint"):
        SeedField(tuple(stripes[:-1] + [overlapping]))
    line = [SeedCell(((float(k), k + 1.0),), VG_PAIR) for k in range(4096)]
    assert len(SeedField(tuple(line)).cells) == 4096
    with pytest.raises(DomainError, match="cell rectangles must be disjoint"):
        SeedField(tuple(line[:-1] + [SeedCell(((4094.5, 4095.5),), VG_PAIR)]))


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


def test_refused_panels_past_the_piece_cap_are_refused():
    # a narrow base far from 0 under a wide clock: bisection does not mend
    # the x-grid's panels, and their fallback pieces would pass _MAX_PIECES
    st = subordinate_triplet(lm.gaussian_law(100.0, 0.01), SubordinatorPair(0.0, GammaMeasure(1.0, 0.01)))
    with pytest.raises(QuadratureFailure, match="refused panels need 511350 pieces, over 100000"):
        cf_from_triplet(st, 1.0)


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


@pytest.mark.parametrize("speed", [1.5, -1.5])
def test_delta_base_under_a_tabulated_clock_spanning_the_unit_crossing(speed):
    # the grid [0.5, 2] spans s = 1/|v|, where the truncated mean and the
    # compensator jump: the drift term is the clock's closed-form moment up
    # to there, and the image's pieces are cut at x = 1
    xs = np.linspace(0.5, 2.0, 61)
    base, pair = lm.delta_law(speed), SubordinatorPair(0.0, TabulatedMeasure(tuple(xs), tuple(np.exp(-xs))))
    st = subordinate_triplet(base, pair)
    for th in (0.5, -0.5, 3.0, -3.0):
        assert abs(cf_from_triplet(st, th) - compose_cf(base, pair, th)) <= 1e-9


def _delta_tabulated_jump_integral(speed, theta, clock):
    """The integral of e^{i k s} - 1 - i k s 1{|v s| <= 1}, k = theta v,
    against the clock's linear density, cell by cell in closed form, in 30
    digits: e^{i k s} ((a + b s) / (i k) + b / k^2) is the antiderivative
    of e^{i k s} (a + b s)."""
    import mpmath

    with mpmath.workdps(30):
        k, crossing, total = mpmath.mpf(theta) * speed, 1 / abs(mpmath.mpf(speed)), mpmath.mpc(0)
        cells = zip(clock.xs, clock.xs[1:], clock.dens, clock.dens[1:])
        for lo, hi, d_lo, d_hi in ([mpmath.mpf(v) for v in cell] for cell in cells):
            b = (d_hi - d_lo) / (hi - lo)
            a = d_lo - b * lo
            exp_part = lambda s: mpmath.exp(1j * k * s) * ((a + b * s) / (1j * k) + b / k**2) - a * s - b * s**2 / 2
            moment = lambda s: a * s**2 / 2 + b * s**3 / 3
            total += exp_part(hi) - exp_part(lo)
            if lo < crossing:
                total -= 1j * k * (moment(min(hi, crossing)) - moment(lo))
        return complex(total)


# at v = 1 and 2 an end node x of a piece rounds to an x / v just off the grid
@pytest.mark.parametrize("speed", [1.5, -1.5, 0.3, 40.0, 1.0, 2.0])
def test_delta_base_under_a_tabulated_clock_is_exact_at_every_theta(speed):
    # the image density is linear between the images v xs of the grid, where
    # the pieces are cut, inside |x| < 1 as well as past it: every piece's
    # series is exact, at every theta, with no per-theta refusal
    clock = DELTA_CLOCKS["tabulated"]
    jumps = JumpMixEvaluator(lm.delta_law(speed), SubordinatorPair(0.2, clock))
    assert jumps._grid().n_atoms == 0
    for th in (0.5, -3.0, 30.0, 100.0, 300.0, 1000.0):
        want = _delta_tabulated_jump_integral(speed, th, clock)
        assert abs(jumps.char_integral(th) - want) <= 1e-12 * max(1.0, abs(want)), f"theta = {th}"


@pytest.mark.parametrize("speed, thetas", [(40.0, (30.0, 100.0, 300.0, 1000.0)), (1e6, (1e-7, 1e-5, 1e-3)),
                                           (-1e6, (1e-7, 1e-5, 1e-3)), (1e9, (1e-7, 1e-5, 1e-3))])
def test_delta_base_under_a_tabulated_clock_keeps_the_two_routes_together(speed, thetas):
    # the compose route's per-cell closed form against the triplet route's
    # exact pieces, far out in theta; an image past |x| = 1e6, where a light
    # tail's cut search is refused, answers: a delta base's closed-form
    # masses run on to 1e12
    base, pair = lm.delta_law(speed), SubordinatorPair(0.2 if speed == 40.0 else 0.0, DELTA_CLOCKS["tabulated"])
    st = subordinate_triplet(base, pair)
    for theta in thetas:
        want = compose_cf(base, pair, theta)
        assert abs(cf_from_triplet(st, theta) - want) <= 1e-12 * max(1.0, abs(want)), f"theta = {theta}"
    if speed == 1e6:
        want = complex(-0.0030842761364630496, 0.05024067109371985)
        assert abs(cf_from_triplet(st, 1e-7) - want) <= 1e-15 * abs(want)


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
