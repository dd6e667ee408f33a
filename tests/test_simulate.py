"""Path and field sampling: determinism, exactness, and law agreement.

Statistical checks use fixed seeds with 4-sigma-style bounds on moments or
empirical CFs; everything structural (monotonicity, additivity, stream
reproducibility) is asserted exactly.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levymix as lm
from levymix import core
from levymix.core import (
    AtomicMeasure,
    CompoundExponentialMeasure,
    GammaMeasure,
    LevyTriplet,
    OneSidedStableMeasure,
    SubordinatorPair,
    SymmetricStableMeasure,
    TabulatedMeasure,
    ZERO_MEASURE,
)
from levymix.errors import ConfigError, DomainError, UnsupportedFamily
from levymix.simulate import (
    GridField,
    LssKernel,
    PathSample,
    SimConfig,
    TimeGrid,
    conv_power_sample,
    exp_kernel,
    gamma_kernel,
    make_rng,
    sample_basis_ensemble,
    sample_basis_grid,
    sample_levy,
    sample_lss,
    sample_subordinated,
    sample_subordinator,
)
from levymix.subordinate import SeedCell, SeedField, compose_cf

VG_BASE = lm.gaussian_law()
VG_PAIR = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))
GRID01 = TimeGrid(0.0, 0.01, 100)


# --- grids, configs, rng -------------------------------------------------------


def test_time_grid_times_and_horizon():
    g = TimeGrid(1.0, 0.25, 4)
    assert np.array_equal(g.times(), [1.0, 1.25, 1.5, 1.75, 2.0])
    assert g.horizon() == 1.0
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 0.0, 4)
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 0.1, 0)


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_paths=0)


@pytest.mark.parametrize("count", [float("inf"), float("nan"), 1.5, 2.0, 0, -3])
def test_step_and_path_counts_must_be_positive_integers(count):
    # inf and nan reached int() and 1.5 reached range(): an OverflowError,
    # a ValueError and a TypeError instead of the configuration error
    with pytest.raises(ConfigError, match="must be a positive integer"):
        TimeGrid(0.0, 0.1, count)
    with pytest.raises(ConfigError, match="must be a positive integer"):
        SimConfig(n_paths=count)


def test_make_rng_streams_are_reproducible_and_disjoint():
    a = make_rng(42, stream_id=3, channel=1).random(8)
    b = make_rng(42, stream_id=3, channel=1).random(8)
    assert np.array_equal(a, b)
    c = make_rng(42, stream_id=4, channel=1).random(8)
    d = make_rng(42, stream_id=3, channel=0).random(8)
    e = make_rng(43, stream_id=3, channel=1).random(8)
    for other in (c, d, e):
        assert not np.array_equal(a, other)
    # key words of 2**63 and more are keys of their own, read without a cast
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for seed, other in ((-1, 0), (2**63 + 1, 2**63)):
            assert not np.array_equal(make_rng(seed, 3, 1).random(8), make_rng(other, 3, 1).random(8))


def test_conv_power_sample_families():
    rng = make_rng(0)
    gam = conv_power_sample(lm.gamma_law(2.0, 3.0), np.array([0.5, 1.0, 0.0]), rng)
    assert gam.shape == (3,)
    assert gam[2] == 0.0  # zero time: the law degenerates at 0
    assert np.all(gam >= 0)
    # every power below ends in r = 0, which draws exactly 0
    r = np.append(np.full(7, 1.0), 0.0)
    gau = conv_power_sample(lm.gaussian_law(0.3, 1.2), 2.0 * r, make_rng(1))
    assert gau.shape == (8,) and gau[-1] == 0.0
    dl = conv_power_sample(lm.delta_law(0.7), np.array([2.0, 0.0]), make_rng(2))
    assert dl[0] == 0.7 * 2.0 and dl[1] == 0.0
    ca = conv_power_sample(lm.cauchy_law(1.0), r, make_rng(3))
    assert np.all(np.isfinite(ca)) and ca[-1] == 0.0
    for alpha in (0.5, 0.3):
        oss = conv_power_sample(lm.one_sided_stable_law(alpha, 0.4), r, make_rng(4))
        assert np.all(oss[:-1] > 0) and oss[-1] == 0.0
    po = conv_power_sample(lm.poisson_law(2.0, 0.5), r, make_rng(5))
    assert np.allclose(np.round(po / 0.5), po / 0.5) and po[-1] == 0.0


def test_conv_power_sample_gamma_moments():
    # X ~ Gamma(shape * r, rate): mean and variance at 4-sigma slack
    rng = make_rng(7)
    r = 0.8
    x = conv_power_sample(lm.gamma_law(2.0, 3.0), np.full(100_000, r), rng)
    mean, var = 2.0 * r / 3.0, 2.0 * r / 9.0
    assert abs(x.mean() - mean) <= 4.0 * math.sqrt(var / x.size)
    assert abs(x.var() - var) <= 0.05 * var


# --- exact increment samplers ------------------------------------------------------

_N_LAW = 100_000
_MEASURES = (
    ZERO_MEASURE,
    GammaMeasure(1.3, 2.0),
    OneSidedStableMeasure(0.3, 1.0),
    OneSidedStableMeasure(0.5, 0.5),
    OneSidedStableMeasure(0.8, 0.2),
    SymmetricStableMeasure(1.5, 0.4),
    AtomicMeasure(((-0.5, 1.0), (2.0, 0.3))),
    CompoundExponentialMeasure(1.2, 2.5),
    TabulatedMeasure((0.1, 0.3, 0.5), (2.0, 0.5, 1.0)),
)


def _laplace_gap_sd(measure, r, draws, u):
    """Distance of the mean of exp(-u X) over the draws from exp(r Psi(-u)),
    Psi the Laplace exponent, in standard deviations of that mean."""
    pair = SubordinatorPair(0.0, measure)
    want = math.exp(r * lm.laplace_exponent(pair, -u).real)
    second = math.exp(r * lm.laplace_exponent(pair, -2.0 * u).real)
    return abs(np.exp(-u * draws).mean() - want) / math.sqrt((second - want * want) / draws.size)


@pytest.mark.parametrize("index", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_one_sided_stable_increments_match_laplace_exponent(index):
    # Kanter's representation (c / Z^2 at index 0.5) at N = 1e5: the
    # empirical Laplace transform lies within 6 sd at three arguments
    m = OneSidedStableMeasure(index, 0.8)
    x = m.sample_increments(np.full(_N_LAW, 0.5), make_rng(40))
    for u in (0.3, 1.0, 5.0):
        assert _laplace_gap_sd(m, 0.5, x, u) <= 6.0


def test_tabulated_increments_match_laplace_integral():
    xs = np.linspace(0.2, 2.0, 181)
    m = TabulatedMeasure(tuple(xs), tuple(3.0 * (xs - 0.2) * np.exp(-xs) + 0.5 * np.maximum(xs - 1.0, 0.0)))
    x = m.sample_increments(np.full(_N_LAW, 0.5), make_rng(3))
    for u in (0.3, 1.0, 5.0):
        assert _laplace_gap_sd(m, 0.5, x, u) <= 6.0
    # inside a cell a jump follows the linear density: on the one cell
    # (1, 2), rising from 0 to 2, it has mean 5/3 and second moment 17/6,
    # so a unit step has mean 5/3 (uniform placement would give 1.5, 31 sd off)
    one = TabulatedMeasure((1.0, 2.0), (0.0, 2.0))
    x = one.sample_increments(np.full(_N_LAW, 1.0), make_rng(4))
    assert abs(x.mean() - 5.0 / 3.0) <= 6.0 * math.sqrt(17.0 / 6.0 / _N_LAW)


@given(
    r=st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0]) | st.floats(0.0, 10.0), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_sample_increments_keep_shape_and_draw_zero_over_empty_steps(r, seed):
    r = np.array(r, dtype=float)
    for steps in (r, r.reshape(-1, 1)):
        for m in _MEASURES:
            x = m.sample_increments(steps, make_rng(seed))
            assert x.shape == steps.shape
            assert np.all(x[steps == 0.0] == 0.0)
            assert np.all(np.isfinite(x))


def test_one_sided_stable_sampler_refusals():
    # index >= 1 has no sampler, even inside a triplet whose compensator
    # would fail first; a draw past the float range is refused, never inf
    with pytest.raises(UnsupportedFamily):
        OneSidedStableMeasure(1.2, 1.0).sample_increments(np.ones(3), make_rng(0))
    with pytest.raises(UnsupportedFamily):
        conv_power_sample(LevyTriplet(0.0, 0.0, OneSidedStableMeasure(1.5, 1.0)), np.ones(3), make_rng(0))
    # at index 0.01 a step of length 10 has scale e**691
    with pytest.raises(DomainError, match="past the float range"):
        OneSidedStableMeasure(0.01, 1.0).sample_increments(np.full(100, 10.0), make_rng(0))


def test_a_half_stable_draw_redraws_only_an_exact_zero_normal():
    # c / Z^2 would be inf at Z = 0.0: that entry alone is drawn again
    class Stub:
        def __init__(self):
            self.sizes = []

        def standard_normal(self, size):
            self.sizes.append(size)
            return np.array([0.5, 0.0, -2.0]) if len(self.sizes) == 1 else np.array([0.25])

    rng = Stub()
    x = core._levy_positive(rng, 3.0, 3)
    assert rng.sizes == [3, 1]
    assert x.tolist() == [3.0 / 0.5**2, 3.0 / 0.25**2, 3.0 / 2.0**2]


def test_draws_and_paths_past_the_float_range_are_refused():
    # a 1/2-stable base at power 1e200 has scale 1e400, and two unit steps
    # of a delta(1e308) law sum past the float range: refused, never inf
    with pytest.raises(DomainError, match="past the float range"):
        conv_power_sample(lm.symmetric_stable_law(0.5, 1.0), np.array([1.0, 1e200]), make_rng(0))
    with pytest.raises(DomainError, match="leaves the float range"):
        sample_levy(lm.delta_law(1e308), TimeGrid(0.0, 1.0, 2))


# Refusals no other test reaches, each through its public entry point.
THREE_CELLS = GridField(tuple((((k, k + 1.0),), 1.0, 0.5 * k) for k in range(3)), 0)
SIMULATE_REFUSALS = {
    "negative-power": (lambda: conv_power_sample(VG_BASE, np.array([1.0, -0.5]), make_rng(0)),
                       DomainError, "r >= 0"),
    # drift r = 1e309: the sum itself leaves the float range
    "draw-past-the-float-range": (lambda: conv_power_sample(lm.gaussian_law(1e308, 1.0), np.array([10.0]),
                                                            make_rng(0)), DomainError, "past the float range"),
    "repeated-union-index": (lambda: GridField(((((0.0, 1.0),), 1.0, 0.5),), 0).with_union((0, 0)),
                             ConfigError, "distinct and nonempty"),
    # a union index is an int cell index as given: none wraps, is truncated,
    # is parsed from a string or is left to an IndexError
    "negative-union-index": (lambda: THREE_CELLS.with_union((0, -1)), ConfigError, "union index -1 "),
    "fractional-union-index": (lambda: THREE_CELLS.with_union((1.7, 2)), ConfigError, "union index 1.7 "),
    "string-union-index": (lambda: THREE_CELLS.with_union(("1", 0)), ConfigError, "union index '1' "),
    "union-index-past-the-cells": (lambda: THREE_CELLS.with_union((0, 7)), ConfigError, "union index 7 "),
}


@pytest.mark.parametrize("case", SIMULATE_REFUSALS)
def test_simulate_refusals_fire(case):
    call, error, message = SIMULATE_REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def test_symmetric_stable_draws_at_a_tiny_index_stay_finite():
    # at index 0.01 a step of 1e-6 has scale 1e-600, and cos(V)**100
    # underflows to 0 near V = +-pi/2: the modulus, taken in logs, is finite
    # and raises no RuntimeWarning, and a step of length 0 draws exactly 0
    x = conv_power_sample(lm.symmetric_stable_law(0.01, 1.0), np.full(10000, 1e-6), make_rng(0))
    assert np.isfinite(x).all()
    for index in (0.01, 0.7, 1.5):
        draws = lm.symmetric_stable_law(index, 1.0).jumps.sample_increments(np.array([0.0, 1.0, 0.0]), make_rng(1))
        assert draws[0] == draws[2] == 0.0 and draws[1] != 0.0


def test_stable_clock_ecf_holds_at_high_frequency():
    # an N(0, 1) base under a 0.3-stable clock at dt 0.01 over 1e5 steps:
    # the increments' ECF at theta = 300 lies within 3 sd of exp(dt psi);
    # the small-jump truncation this sampler replaced sat 4.6 sd off here
    pair = SubordinatorPair(0.0, OneSidedStableMeasure(0.3, 1.0))
    dt, n, theta = 0.01, 100_000, 300.0
    inc = sample_subordinated(VG_BASE, pair, TimeGrid(0.0, dt, n), SimConfig(seed=0)).increments()
    want = np.exp(dt * compose_cf(VG_BASE, pair, theta))
    sd = math.sqrt((1.0 - abs(want) ** 2) / n)
    assert abs(np.exp(1j * theta * inc).mean() - want) <= 3.0 * sd


# --- subordinators -------------------------------------------------------------


def test_deterministic_subordinator_path():
    pair = SubordinatorPair(2.0, ZERO_MEASURE)
    path = sample_subordinator(pair, TimeGrid(0.0, 0.5, 4))
    assert np.allclose(path.values, [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-15)


def test_subordinator_paths_nondecreasing_and_start_at_zero():
    cases = [
        SubordinatorPair(0.1, GammaMeasure(2.0, 3.0)),
        SubordinatorPair(0.0, OneSidedStableMeasure(0.5, 0.4)),
        SubordinatorPair(0.0, AtomicMeasure(((0.5, 1.0), (1.25, 0.4)))),
        SubordinatorPair(0.0, CompoundExponentialMeasure(1.2, 2.5)),
    ]
    for k, pair in enumerate(cases):
        path = sample_subordinator(pair, GRID01, SimConfig(seed=k))
        assert path.values[0] == 0.0
        assert np.all(np.diff(path.values) >= 0.0)


def test_subordinator_reproducible_and_seed_sensitive():
    pair = SubordinatorPair(0.1, GammaMeasure(2.0, 3.0))
    p1 = sample_subordinator(pair, GRID01, SimConfig(seed=5))
    p2 = sample_subordinator(pair, GRID01, SimConfig(seed=5))
    p3 = sample_subordinator(pair, GRID01, SimConfig(seed=6))
    assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, p3.values)


def test_subordinator_multi_path_streams_match_single_stream():
    pair = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))
    many = sample_subordinator(pair, GRID01, SimConfig(seed=9, n_paths=3))
    assert isinstance(many, list) and len(many) == 3
    for i, p in enumerate(many):
        assert p.stream_id == i
    # a later call for any single stream reproduces that path bit-exactly
    again = sample_subordinator(pair, GRID01, SimConfig(seed=9, n_paths=3))
    for p, q in zip(many, again):
        assert np.array_equal(p.values, q.values)


def test_gamma_subordinator_t1_moments():
    pair = SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))
    grid = TimeGrid(0.0, 1.0, 1)
    paths = sample_subordinator(pair, grid, SimConfig(seed=3, n_paths=50_000))
    t1 = np.array([p.values[-1] for p in paths])
    mean, var = 2.0 / 3.0, 2.0 / 9.0
    assert abs(t1.mean() - mean) <= 4.0 * math.sqrt(var / t1.size)
    assert abs(t1.var() - var) <= 0.05 * var


# --- levy paths -----------------------------------------------------------------


def test_gaussian_levy_path_increment_moments():
    t = lm.gaussian_law(0.4, 1.5)
    path = sample_levy(t, TimeGrid(0.0, 0.1, 2000), SimConfig(seed=12))
    inc = path.increments()
    assert abs(inc.mean() - 0.4 * 0.1) <= 4.0 * math.sqrt(1.5 * 0.1 / inc.size)
    assert abs(inc.var() - 1.5 * 0.1) <= 0.1 * 1.5 * 0.1


def test_levy_path_ecf_matches_exponent():
    # one-parameter sanity per family at a single theta, N = 20000 paths of
    # one step each via increments of a longer path
    fixtures = [
        (lm.gamma_law(2.0, 3.0), 1.5),
        (lm.cauchy_law(0.8), 0.9),
        (lm.symmetric_stable_law(1.5, 0.7), 1.1),
        (lm.poisson_law(2.0, 0.7), 0.8),
    ]
    n = 20_000
    for k, (law, theta) in enumerate(fixtures):
        path = sample_levy(law, TimeGrid(0.0, 1.0, n), SimConfig(seed=30 + k))
        inc = path.increments()
        ecf = np.exp(1j * theta * inc).mean()
        want = np.exp(lm.char_exponent(law, theta))
        assert abs(ecf - want) <= 6.0 / math.sqrt(n)


# --- subordinated paths ----------------------------------------------------------


def test_subordinated_vg_ecf_single_theta():
    path = sample_subordinated(VG_BASE, VG_PAIR, TimeGrid(0.0, 1.0, 50_000), SimConfig(seed=13))
    inc = path.increments()
    theta = math.sqrt(2.0)
    ecf = np.exp(1j * theta * inc).mean()
    want = np.exp(compose_cf(VG_BASE, VG_PAIR, theta))
    assert abs(ecf - want) <= 4.0 / math.sqrt(inc.size)


def test_subordinated_delta_base_equals_clock():
    # L_t = 1.0 * t pushes the subordinator through unchanged
    pair = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))
    cfg = SimConfig(seed=8)
    clock = sample_subordinator(pair, GRID01, cfg)
    subbed = sample_subordinated(lm.delta_law(1.0), pair, GRID01, cfg)
    assert np.allclose(subbed.values, clock.values, atol=1e-12)


def test_subordinated_composition_fallback_matches_law():
    # an untagged base draws its powers from the triplet like any other
    # (the exact conditional route); check the law at one theta
    law = lm.symmetric_stable_law(1.5, 0.7)
    base = LevyTriplet(0.0, 0.0, law.jumps)
    pair = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))
    n = 20_000
    path = sample_subordinated(base, pair, TimeGrid(0.0, 1.0, n), SimConfig(seed=17))
    inc = path.increments()
    theta = 1.3
    ecf = np.exp(1j * theta * inc).mean()
    want = np.exp(compose_cf(law, pair, theta))
    assert abs(ecf - want) <= 6.0 / math.sqrt(n)


def test_subordinated_reproducible():
    p1 = sample_subordinated(VG_BASE, VG_PAIR, GRID01, SimConfig(seed=2))
    p2 = sample_subordinated(VG_BASE, VG_PAIR, GRID01, SimConfig(seed=2))
    assert np.array_equal(p1.values, p2.values)


# --- grid fields ------------------------------------------------------------------


def _field():
    return SeedField(
        (
            SeedCell(((0.0, 1.0), (0.0, 1.0)), SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))),
            SeedCell(((1.0, 2.0), (0.0, 1.0)), SubordinatorPair(0.3, GammaMeasure(2.0, 3.0))),
            SeedCell(((0.0, 1.0), (1.0, 2.0)), SubordinatorPair(0.0, GammaMeasure(0.5, 1.0))),
        )
    )


def test_basis_grid_union_additivity_exact():
    fld = _field()
    grid = sample_basis_grid(VG_BASE, fld, SimConfig(seed=5))
    grid = grid.with_union((0, 2))
    vals = grid.cell_values()
    (idx, total), = grid.unions
    assert tuple(idx) == (0, 2)
    assert total == vals[0] + vals[2]  # stored as the exact float sum


def test_basis_grid_reproducible_per_cell():
    fld = _field()
    g1 = sample_basis_grid(VG_BASE, fld, SimConfig(seed=5))
    g2 = sample_basis_grid(VG_BASE, fld, SimConfig(seed=5))
    assert np.array_equal(g1.cell_values(), g2.cell_values())


def test_zero_field_draws_zero():
    fld = SeedField((SeedCell(((0.0, 1.0),), SubordinatorPair(0.0, ZERO_MEASURE)),))
    grid = sample_basis_grid(VG_BASE, fld, SimConfig(seed=5))
    assert grid.cell_values()[0] == 0.0


def test_basis_ensemble_shape_and_ecf():
    fld = _field()
    draws = sample_basis_ensemble(VG_BASE, fld, SimConfig(seed=6), 30_000)
    assert draws.shape == (30_000, 3)
    # per-cell law: log-CF = control_mass * compose_cf
    theta = 1.1
    for j, cell in enumerate(fld.cells):
        ecf = np.exp(1j * theta * draws[:, j]).mean()
        want = np.exp(cell.control_mass * compose_cf(VG_BASE, cell.pair, theta))
        assert abs(ecf - want) <= 4.0 / math.sqrt(draws.shape[0])


# --- lss ---------------------------------------------------------------------------


def test_lss_kernel_validation_and_gamma_zero_power():
    k = exp_kernel()
    # the kernel vanishes on x <= 0 (causality), including at 0 itself
    assert float(k(0.0)) == 0.0
    assert float(k(-1.0)) == 0.0
    assert float(k(2.5)) == math.exp(-2.5)
    assert float(gamma_kernel(0.0)(2.5)) == float(k(2.5))
    with pytest.raises(ConfigError):
        LssKernel(alpha=-1.0)
    with pytest.raises(ConfigError):
        gamma_kernel(-1.2)


def test_lss_exp_kernel_ou_recursion_identity():
    # with f(x) = e^{-x} the Riemann sums satisfy
    # Y_{i+1} = e^{-dt} (Y_i + dX_i) exactly; the driving increments are
    # rebuilt here from the same seeded streams the sampler uses
    pair = SubordinatorPair(0.2, GammaMeasure(1.0, 1.0))
    grid = TimeGrid(0.0, 0.01, 500)
    cfg = SimConfig(seed=3)
    burn_in = 25.0
    y = sample_lss(exp_kernel(), VG_BASE, pair, grid, burn_in, cfg)
    m = int(math.ceil(burn_in / grid.dt))
    ext_steps = m + grid.n_steps
    d_t = sample_subordinator(
        pair, TimeGrid(grid.t0 - m * grid.dt, grid.dt, ext_steps), cfg
    ).increments()
    d_x = conv_power_sample(VG_BASE, d_t, make_rng(cfg.seed, 0, channel=1))
    decay = math.exp(-grid.dt)
    resid = y.values[1:] - decay * (y.values[:-1] + d_x[m : m + grid.n_steps])
    assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, float(np.max(np.abs(y.values))))


def test_lss_requires_decayed_kernel_over_burn_in():
    pair = SubordinatorPair(0.2, GammaMeasure(1.0, 1.0))
    with pytest.raises(ConfigError):
        sample_lss(exp_kernel(), VG_BASE, pair, GRID01, 0.0, SimConfig(seed=3))
    with pytest.raises(ConfigError):
        sample_lss(exp_kernel(), VG_BASE, pair, GRID01, 2.0, SimConfig(seed=3))


@pytest.mark.parametrize("burn_in", [math.inf, 1e7])
def test_lss_refuses_a_burn_in_past_the_step_budget(burn_in):
    # inf passes the kernel-decay check (exp(-inf) = 0); both spans exceed
    # 1e7 steps of dt = 0.01 and are refused before the grid is stretched
    pair = SubordinatorPair(0.2, GammaMeasure(1.0, 1.0))
    with pytest.raises(ConfigError, match="burn_in must span at most 1e\\+07 steps"):
        sample_lss(exp_kernel(), VG_BASE, pair, GRID01, burn_in, SimConfig(seed=3))


def test_lss_stationary_mean_exp_kernel():
    # driving noise dX has mean rate m = beta0 + int s rho(ds) per unit
    # time; the exp-kernel moving average has stationary mean close to m
    pair = SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))
    grid = TimeGrid(0.0, 0.05, 4000)
    y = sample_lss(exp_kernel(), lm.delta_law(1.0), pair, grid, 30.0, SimConfig(seed=14))
    m = 2.0 / 3.0
    assert abs(y.values.mean() - m) <= 0.05 * m


def test_lss_paths_own_only_their_window():
    # a view of the window would keep the padded convolution buffer alive:
    # 1024 floats behind each 201-value path here
    pair = SubordinatorPair(0.2, CompoundExponentialMeasure(2.0, 1.5))
    paths = sample_lss(exp_kernel(), lm.delta_law(1.5), pair, TimeGrid(0.0, 0.05, 200), 20.0,
                       SimConfig(seed=5, n_paths=3))
    for p in paths:
        assert p.values.base is None and p.values.nbytes == 201 * p.values.itemsize


_LSS_DIRECT_CASES = {
    "exp": (exp_kernel(), VG_BASE, SubordinatorPair(0.2, GammaMeasure(1.0, 1.0)), 1),
    "gamma-kernel-0.5": (gamma_kernel(0.5), VG_BASE, SubordinatorPair(0.2, GammaMeasure(1.0, 1.0)), 1),
    "gamma-kernel--0.5": (gamma_kernel(-0.5), VG_BASE, SubordinatorPair(0.2, GammaMeasure(1.0, 1.0)), 1),
    "cauchy-half-stable": (exp_kernel(), lm.cauchy_law(1.0), SubordinatorPair(0.0, OneSidedStableMeasure(0.5, 0.5)), 1),
    "two-paths": (gamma_kernel(0.5), VG_BASE, SubordinatorPair(0.1, CompoundExponentialMeasure(1.5, 2.0)), 2),
}


@pytest.mark.parametrize("name", sorted(_LSS_DIRECT_CASES))
def test_lss_matches_the_direct_riemann_sum(name):
    # the moving average against the direct sum np.convolve(d_x, weights) on
    # the same seeded increments, within the normwise bound of a convolution
    # by FFT: eps * log2(FFT size) * sum|w| * max|d_x|. Under FFT a large
    # jump's rounding reaches the outputs before it too, so the heavy-tailed
    # Cauchy driver is held to the same bound, scaled by its own max|d_x|.
    kernel, base, pair, n_paths = _LSS_DIRECT_CASES[name]
    grid = TimeGrid(0.0, 0.01, 1500)
    cfg = SimConfig(seed=21, n_paths=n_paths)
    burn_in = 25.0
    ys = sample_lss(kernel, base, pair, grid, burn_in, cfg)
    ys = ys if n_paths > 1 else [ys]
    m = int(math.ceil(burn_in / grid.dt))
    n_ext = m + grid.n_steps
    weights = kernel(grid.dt * np.arange(n_ext + 1))
    r = np.full(n_ext, grid.dt)
    size = 1 << (2 * n_ext - 1).bit_length()
    for stream, y in enumerate(ys):
        d_t = pair.drift * r + pair.jumps.sample_increments(r, make_rng(cfg.seed, stream, channel=0))
        d_x = conv_power_sample(base, d_t, make_rng(cfg.seed, stream, channel=1))
        direct = np.convolve(d_x, weights)[m : m + grid.n_steps + 1]
        bound = np.finfo(float).eps * math.log2(size) * np.abs(weights).sum() * np.abs(d_x).max()
        assert y.stream_id == stream
        assert np.max(np.abs(y.values - direct)) <= bound


# --- property tests -----------------------------------------------------------------


@given(seed=st.integers(0, 2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_paths_reproducible_for_any_seed(seed):
    pair = SubordinatorPair(0.0, CompoundExponentialMeasure(1.2, 2.5))
    grid = TimeGrid(0.0, 0.1, 20)
    a = sample_subordinator(pair, grid, SimConfig(seed=seed))
    b = sample_subordinator(pair, grid, SimConfig(seed=seed))
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) >= 0.0)


@given(r=st.floats(0.01, 10.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_conv_power_sample_gamma_nonnegative(r, seed):
    x = conv_power_sample(lm.gamma_law(2.0, 3.0), np.full(16, r), make_rng(seed))
    assert np.all(x >= 0.0)


def test_path_sample_increments_invert_cumsum():
    path = sample_subordinator(
        SubordinatorPair(0.0, GammaMeasure(1.0, 1.0)), GRID01, SimConfig(seed=1)
    )
    assert np.allclose(np.cumsum(path.increments()), path.values[1:], atol=1e-12)


# --- frozen draws -----------------------------------------------------------------

# Short seeded draws from every sampler route, pinned to the bit: the second
# and the last entry of each (a path starts at 0.0), as float.hex. A refactor
# of the samplers must leave every one of them unchanged. Three names are
# kept from routes since removed: the 0.3-stable ("auto-eps") and tabulated
# ("tabulated-eps") clocks and the untagged base ("subordinated-refine") draw
# exactly, by Kanter's representation, a compound Poisson sum and the
# triplet's power sampler. The last one's 1.5-stable draws take their modulus
# in logs, which moved the low bits of its second entry. The two lss cases
# sum by FFT convolution, whose rounding differs from the direct sum's in the
# last bits; test_lss_matches_the_direct_riemann_sum bounds that difference.
_TAB_XS = np.linspace(0.1, 0.5, 200)
_STABLE_BASE = LevyTriplet(0.0, 0.0, lm.symmetric_stable_law(1.5, 0.7).jumps)
_SHORT = TimeGrid(0.0, 0.05, 40)
_CLOCKS = {
    "gamma": SubordinatorPair(0.1, GammaMeasure(1.0, 2.0)),
    "half-stable": SubordinatorPair(0.0, OneSidedStableMeasure(0.5, 0.5)),
    "stable-0.3-auto-eps": SubordinatorPair(0.0, OneSidedStableMeasure(0.3, 1.0)),
    "compound-exponential": SubordinatorPair(0.2, CompoundExponentialMeasure(1.5, 2.0)),
    "atomic": SubordinatorPair(0.0, AtomicMeasure(((0.5, 1.0), (2.0, 0.3)))),
    "tabulated-eps": SubordinatorPair(0.05, lm.TabulatedMeasure(tuple(_TAB_XS), tuple(2.0 * np.exp(-_TAB_XS)))),
    "drift-only": SubordinatorPair(1.5, ZERO_MEASURE),
}
_FROZEN_DRAWS = {
    **{
        f"subordinator-{name}": (
            lambda pair=pair, name=name: sample_subordinator(
                pair, _SHORT, SimConfig(seed=7, n_paths=2)
            )[1].values
        )
        for name, pair in _CLOCKS.items()
    },
    "levy-gaussian": lambda: sample_levy(lm.gaussian_law(0.5, 2.0), _SHORT, SimConfig(seed=8)).values,
    "levy-gamma": lambda: sample_levy(lm.gamma_law(2.0, 3.0), _SHORT, SimConfig(seed=8)).values,
    "subordinated-conditional": lambda: sample_subordinated(
        VG_BASE, _CLOCKS["compound-exponential"], _SHORT, SimConfig(seed=9, n_paths=2)
    )[1].values,
    "subordinated-refine": lambda: sample_subordinated(
        _STABLE_BASE, _CLOCKS["gamma"], _SHORT, SimConfig(seed=9)
    ).values,
    "lss-alpha-0": lambda: sample_lss(
        exp_kernel(), VG_BASE, _CLOCKS["gamma"], _SHORT, 20.0, SimConfig(seed=10, n_paths=2)
    )[1].values,
    "lss-alpha-0.5": lambda: sample_lss(
        gamma_kernel(0.5), VG_BASE, _CLOCKS["gamma"], _SHORT, 25.0, SimConfig(seed=10)
    ).values,
    "basis-ensemble": lambda: sample_basis_ensemble(VG_BASE, _field(), SimConfig(seed=11), 5).ravel(),
}
_FROZEN_VALUES = {
    "basis-ensemble": ("-0x1.3f4c66ca9f2d2p-1", "-0x1.b7a611bfbe635p-2"),
    "levy-gamma": ("0x1.a2be143ff0f00p-4", "0x1.433f87849e021p+0"),
    "levy-gaussian": ("0x1.e8b55940145d2p-2", "-0x1.119b3d38359afp-1"),
    "lss-alpha-0": ("-0x1.2c0db7087a69dp-1", "0x1.b067f64f6e7b6p-2"),
    "lss-alpha-0.5": ("-0x1.fcf8467265599p-3", "0x1.f3244e9ab86a0p-3"),
    "subordinated-conditional": ("0x1.7bf3bb50c42b3p-4", "0x1.797ccb9c8d7fcp-1"),
    "subordinated-refine": ("-0x1.140aceae4a696p-4", "-0x1.b2ed3e23fbbe8p-1"),
    "subordinator-atomic": ("0x0.0p+0", "0x1.c000000000000p+1"),
    "subordinator-compound-exponential": ("0x1.47ae147ae147cp-7", "0x1.4a75ebd3e806ap+1"),
    "subordinator-drift-only": ("0x1.3333333333334p-4", "0x1.8000000000004p+1"),
    "subordinator-gamma": ("0x1.4844cb6e91cc4p-8", "0x1.6eddf305666e3p+0"),
    "subordinator-half-stable": ("0x1.2285cf3b5a856p-8", "0x1.567d879a20606p+5"),
    "subordinator-stable-0.3-auto-eps": ("0x1.f1a780bb47ec8p-2", "0x1.44d46213e0911p+13"),
    "subordinator-tabulated-eps": ("0x1.47ae147ae147cp-9", "0x1.1d67529ec0cacp+0"),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_DRAWS))
def test_frozen_draws_are_bit_identical(name):
    values = _FROZEN_DRAWS[name]()
    assert (float(values[1]).hex(), float(values[-1]).hex()) == _FROZEN_VALUES[name]
