"""Clock-law recovery from observed increments of the subordinated process.

The pipeline under test: empirical/analytic CF -> branch-tracked log ->
curve of exponent samples -> parametric least squares. Noiseless routes
must recover parameters to near machine precision; seeded Monte Carlo
routes are held to statistical bounds.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import levymix as lm
from levymix.core import (
    CompoundExponentialMeasure,
    GammaMeasure,
    OneSidedStableMeasure,
    SubordinatorPair,
    ZERO_MEASURE,
)
from levymix.errors import (
    BranchAmbiguity,
    DegenerateBaseProcess,
    EmptyInput,
    GridTooCoarse,
    InsufficientPoints,
    NearZeroCF,
    NonConvergence,
)
from levymix.recover import (
    _SEARCH_RANGE,
    FAMILIES,
    CFSample,
    FitOptions,
    FitResult,
    PsiCurve,
    _curve_weights,
    _ecf_sums_blocked,
    _ecf_sums_power,
    _from_search_coordinate,
    _near_zero_floor,
    _profile_scan,
    _searched_field,
    _separable_solver,
    analytic_cf,
    default_theta_grid,
    empirical_cf,
    fit_subordinator,
    ou_invert,
    psi_curve,
    recover_from_path,
    trim_cf,
    unwrap_log_cf,
)
from levymix.simulate import SimConfig, TimeGrid, PathSample, sample_subordinated, sample_lss, exp_kernel, make_rng
from levymix.subordinate import compose_cf

VG_BASE = lm.gaussian_law()
VG_PAIR = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))


def _vg_curve(theta=None):
    grid = default_theta_grid() if theta is None else theta
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, VG_PAIR, t), grid)
    return psi_curve(VG_BASE, cf)


# --- CF construction -----------------------------------------------------------


def test_default_theta_grid_hits_zero_exactly():
    g = default_theta_grid()
    assert g.size == 101
    assert g[50] == 0.0
    assert g[0] == -10.0 and g[-1] == 10.0


def test_empirical_cf_constant_data_is_exact():
    inc = np.full(1000, 0.7)
    cf = empirical_cf(inc, np.array([-1.0, 0.0, 2.0]))
    assert cf.values[1] == 1.0
    assert cf.values[0] == pytest.approx(cmath.exp(-1j * 0.7), abs=1e-12)
    assert cf.values[2] == pytest.approx(cmath.exp(2j * 0.7), abs=1e-12)
    assert cf.n_obs == 1000
    with pytest.raises(EmptyInput):
        empirical_cf(np.array([]), np.array([-1.0, 0.0, 1.0]))


def test_empirical_cf_matches_direct_mean():
    rng = np.random.default_rng(0)
    x = rng.normal(0.3, 1.0, 5000)
    grid = np.array([-2.0, 0.0, 0.5, 3.0])
    cf = empirical_cf(x, grid)
    for j, th in enumerate(grid):
        if th == 0.0:
            continue
        assert cf.values[j] == pytest.approx(np.exp(1j * th * x).mean(), abs=1e-12)


def _ecf_samples():
    rng = np.random.default_rng(7)
    return {
        "normal": rng.standard_normal(20_000),
        "cauchy": rng.standard_cauchy(20_000),
        "shifted": rng.standard_normal(20_000) + 1e3,
    }


@pytest.mark.parametrize("route", [_ecf_sums_power, _ecf_sums_blocked])
@pytest.mark.parametrize("sample", ["normal", "cauchy", "shifted"])
def test_ecf_routes_match_direct_mean_on_default_grid(route, sample):
    # Both routes round the phase theta*x differently from the direct mean,
    # by a few ulp of |theta x| per term.
    x = _ecf_samples()[sample]
    grid = default_theta_grid()
    means = route(x, grid) / x.size
    tol = 64 * np.finfo(float).eps * (1.0 + np.max(np.abs(grid)) * np.max(np.abs(x)))
    for j, th in enumerate(grid):
        assert abs(means[j] - np.exp(1j * th * x).mean()) <= tol


def test_ecf_route_follows_the_grid_shape():
    x = _ecf_samples()["shifted"]
    uniform = [default_theta_grid(), np.arange(-1, 2) * 0.3, np.arange(-7, 8) * 1.1]
    other = [
        np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),  # symmetric, not uniform
        np.arange(-3, 5) * 0.5,  # uniform, even length
        np.arange(-2, 5) * 0.5,  # uniform, offset from symmetric
        np.array([-1.0, 0.0, 2.0]),
    ]
    for grid, route in [(g, _ecf_sums_power) for g in uniform] + [(g, _ecf_sums_blocked) for g in other]:
        cf = empirical_cf(x, grid)
        expected = route(x, grid) / x.size
        expected[grid == 0.0] = 1.0
        assert np.array_equal(cf.values, expected)
        assert cf.values[cf.zero_index()] == 1.0


def test_cf_sample_validation():
    with pytest.raises(lm.DomainError):
        CFSample(np.array([0.0, 1.0]), np.array([1.0 + 0j]))
    with pytest.raises(lm.DomainError):
        CFSample(np.array([0.0, 1.0, 0.5]), np.array([1.0 + 0j, 0.5, 0.5]))
    with pytest.raises(lm.DomainError):
        CFSample(np.array([-1.0, 1.0]), np.array([0.5 + 0j, 0.5]))
    with pytest.raises(lm.DomainError):
        CFSample(np.array([-1.0, 0.0]), np.array([0.5 + 0j, 0.99]))
    # modulus bound: hard for analytic input, slack 4/sqrt(n) for empirical
    with pytest.raises(lm.DomainError):
        CFSample(np.array([0.0, 1.0]), np.array([1.0, 1.5 + 0j]), n_obs=0)
    ok = CFSample(np.array([0.0, 1.0]), np.array([1.0, 1.002 + 0j]), n_obs=1_000_000)
    assert ok.zero_index() == 0


def test_trim_cf_keeps_window_around_zero():
    grid = np.arange(-3.0, 4.0)
    vals = np.array([0.001, 0.5, 0.9, 1.0, 0.9, 0.001, 0.4], dtype=complex)
    cf = CFSample(grid, vals, n_obs=0)
    t = trim_cf(cf, 0.1)
    assert np.array_equal(t.theta_grid, np.arange(-2.0, 2.0))
    assert t.n_obs == cf.n_obs
    with pytest.raises(NearZeroCF):
        trim_cf(cf, 1.0)


# --- branch tracking -----------------------------------------------------------


def test_unwrap_matches_analytic_log_on_vg():
    grid = default_theta_grid()
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, VG_PAIR, t), grid)
    h = unwrap_log_cf(cf)
    want = np.array([compose_cf(VG_BASE, VG_PAIR, t) for t in grid])
    assert np.max(np.abs(h - want)) <= 1e-12


def test_unwrap_tracks_winding_phase():
    # a pure drift winds the phase through many branches of the principal log
    grid = default_theta_grid()
    cf = analytic_cf(lambda t: 2.4j * t, grid)
    h = unwrap_log_cf(cf)
    assert np.max(np.abs(h - 2.4j * grid)) <= 1e-12


@given(shape=st.floats(0.3, 3.0), rate=st.floats(0.5, 4.0), drift=st.floats(0.0, 1.5))
@settings(max_examples=25, deadline=None)
def test_unwrap_exponential_reproduces_values(shape, rate, drift):
    pair = SubordinatorPair(drift, GammaMeasure(shape, rate))
    grid = default_theta_grid()
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), grid)
    h = unwrap_log_cf(cf)
    assert np.max(np.abs(np.exp(h) - cf.values)) <= 1e-12


def test_unwrap_rejects_pi_step():
    grid = np.array([-1.0, 0.0, 1.0])
    cf = CFSample(grid, np.exp(1j * math.pi * grid), n_obs=0)
    with pytest.raises(BranchAmbiguity):
        unwrap_log_cf(cf)


def test_unwrap_rejects_noise_floor_on_empirical_input():
    grid = np.array([-1.0, 0.0, 1.0])
    vals = np.exp(-3.0 * np.abs(grid)).astype(complex)  # 0.0498 < 10/sqrt(10000)
    cf = CFSample(grid, vals, n_obs=10_000)
    with pytest.raises(NearZeroCF):
        unwrap_log_cf(cf)
    # the same values pass as analytic input
    assert np.max(np.abs(np.exp(unwrap_log_cf(CFSample(grid, vals, n_obs=0))) - vals)) <= 1e-14


# --- the exponent-sample curve ---------------------------------------------------


def test_psi_curve_anchor_and_values():
    curve = _vg_curve()
    j0 = int(np.flatnonzero(curve.theta == 0.0)[0])
    assert curve.z[j0] == 0.0
    assert curve.psi_hat[j0] == 0.0
    # z sweeps the base exponent, h the clock exponent evaluated there
    for j in (0, 13, 77, 100):
        th = curve.theta[j]
        if th == 0.0:
            continue
        assert curve.z[j] == pytest.approx(-0.5 * th * th, abs=1e-13)
        assert curve.psi_hat[j] == pytest.approx(-cmath.log(1.0 + 0.5 * th * th), abs=1e-12)


def test_psi_curve_rejects_degenerate_base_at_zero():
    grid = default_theta_grid()
    cf = analytic_cf(lambda t: 0.0j * t, grid)
    with pytest.raises(DegenerateBaseProcess):
        psi_curve(lm.delta_law(0.0), cf)
    # nonzero drift is fine: the sweep runs along the imaginary axis
    cf2 = analytic_cf(lambda t: compose_cf(lm.delta_law(1.0), VG_PAIR, t), grid)
    curve = psi_curve(lm.delta_law(1.0), cf2)
    assert np.max(np.abs(curve.z.real)) == 0.0


# --- parametric fitting -----------------------------------------------------------


def test_fit_gamma_noiseless_exact():
    pair = SubordinatorPair(0.4, GammaMeasure(2.0, 3.0))
    grid = default_theta_grid()
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), grid)
    curve = psi_curve(VG_BASE, cf)
    fit = fit_subordinator(curve, "gamma")
    a, lam = fit.params
    assert abs(a - 2.0) / 2.0 < 1e-6
    assert abs(lam - 3.0) / 3.0 < 1e-6
    assert abs(fit.beta0_hat - 0.4) < 1e-6
    assert fit.objective < 1e-12
    assert fit.n_starts_converged >= 1
    assert fit.residual_max < 1e-6


def test_fit_drift_family_is_exact_projection():
    pair = SubordinatorPair(1.5, ZERO_MEASURE)
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
    curve = psi_curve(VG_BASE, cf)
    fit = fit_subordinator(curve, "drift")
    assert fit.family == "drift"
    assert fit.params == ()
    assert fit.beta0_hat == pytest.approx(1.5, abs=1e-12)
    assert fit.objective < 1e-20


def test_fit_compound_exponential_noiseless():
    pair = SubordinatorPair(0.4, CompoundExponentialMeasure(1.2, 2.5))
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
    curve = psi_curve(VG_BASE, cf)
    fit = fit_subordinator(curve, "compound_exponential")
    mass, lam = fit.params
    assert abs(mass - 1.2) / 1.2 < 1e-5
    assert abs(lam - 2.5) / 2.5 < 1e-5
    assert abs(fit.beta0_hat - 0.4) < 1e-5


def test_fit_one_sided_stable_fixed_and_free_index():
    pair = SubordinatorPair(0.0, OneSidedStableMeasure(0.6, 0.8))
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
    curve = psi_curve(VG_BASE, cf)
    fixed = fit_subordinator(curve, "one_sided_stable", FitOptions(fixed_alpha=0.6))
    assert fixed.params[0] == 0.6
    assert abs(fixed.params[1] - 0.8) / 0.8 < 1e-5
    free = fit_subordinator(curve, "one_sided_stable")
    assert abs(free.params[0] - 0.6) < 1e-9
    assert abs(free.params[1] - 0.8) / 0.8 < 1e-9


def test_fit_fixed_index_stable_is_closed_form():
    pair = SubordinatorPair(0.3, OneSidedStableMeasure(0.6, 0.8))
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
    fit = fit_subordinator(psi_curve(VG_BASE, cf), "one_sided_stable", FitOptions(fixed_alpha=0.6))
    assert fit.params[0] == 0.6
    assert abs(fit.params[1] - 0.8) / 0.8 <= 1e-12
    assert abs(fit.beta0_hat - 0.3) / 0.3 <= 1e-12
    assert fit.n_evals == 0
    assert fit.n_starts_converged == 1


@pytest.mark.parametrize("family", ["gamma", "compound_exponential", "one_sided_stable"])
def test_fit_without_jumps_raises_naming_drift(family):
    pair = SubordinatorPair(1.5, ZERO_MEASURE)
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
    curve = psi_curve(VG_BASE, cf)
    with pytest.raises(NonConvergence, match="--family drift"):
        fit_subordinator(curve, family)
    if family == "one_sided_stable":
        with pytest.raises(NonConvergence, match="--family drift"):
            fit_subordinator(curve, family, FitOptions(fixed_alpha=0.5))


def test_fit_index_next_to_one_stays_finite():
    # g(z) = Gamma(-index) (-z)**index is almost collinear with z here; the
    # 2x2 system is ill-conditioned and the fit falls back to one column
    pair = SubordinatorPair(0.3, OneSidedStableMeasure(0.6, 0.8))
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
    curve = psi_curve(VG_BASE, cf)
    for index in (1.0 - 1e-9, 1.0 - 1e-12):
        fit = fit_subordinator(curve, "one_sided_stable", FitOptions(fixed_alpha=index))
        assert math.isfinite(fit.objective)
        assert math.isfinite(fit.beta0_hat) and all(math.isfinite(p) for p in fit.params)


def test_fit_clips_a_negative_drift_to_zero():
    # h = -0.1 z + psi(z) is fitted exactly by a negative drift; the
    # constrained optimum puts beta0 on its bound, exactly
    z = _vg_curve().z
    h = -0.1 * z + GammaMeasure(2.0, 3.0).laplace_integral(z)
    curve = PsiCurve(z, h, default_theta_grid())
    fit = fit_subordinator(curve, "gamma")
    assert fit.beta0_hat == 0.0
    assert all(p > 0 for p in fit.params)


def test_fit_reports_evaluations_and_theta_window():
    path = _vg_path(20_000, seed=1)
    fit = recover_from_path(path, VG_BASE, "gamma")
    cf = empirical_cf(path.increments(), default_theta_grid())
    cf = trim_cf(cf, _near_zero_floor(cf.n_obs))
    assert fit.theta_window == (cf.theta_grid[0], cf.theta_grid[-1])
    assert fit.n_evals > 0
    drift = fit_subordinator(_vg_curve(), "drift")
    assert drift.n_evals == 0 and drift.theta_window is None
    # both fields have defaults
    bare = FitResult("drift", (), 1.0, 0.0, 1, 0.0)
    assert bare.n_evals == 0 and bare.theta_window is None


def test_fit_rejects_short_curves():
    grid = np.array([-0.4, -0.2, 0.0, 0.2, 0.4])
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, VG_PAIR, t), grid)
    curve = psi_curve(VG_BASE, cf)
    with pytest.raises(InsufficientPoints):
        fit_subordinator(curve, "gamma")


def test_fit_unknown_family():
    with pytest.raises(lm.UnsupportedFamily):
        fit_subordinator(_vg_curve(), "zeta")


def test_forward_inverse_consistency_twenty_draws():
    # random admissible parameters per family; the noiseless round trip
    # recovers them to relative error < 1e-5
    rng = np.random.default_rng(2024)
    grid = default_theta_grid()
    draws = []
    for _ in range(7):
        draws.append(("gamma", SubordinatorPair(
            float(rng.uniform(0.0, 2.0)),
            GammaMeasure(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.8, 4.0))),
        )))
    for _ in range(7):
        draws.append(("compound_exponential", SubordinatorPair(
            float(rng.uniform(0.0, 2.0)),
            CompoundExponentialMeasure(float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.8, 4.0))),
        )))
    for _ in range(3):
        draws.append(("one_sided_stable", SubordinatorPair(
            0.0,
            OneSidedStableMeasure(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 1.2))),
        )))
    for _ in range(3):
        draws.append(("drift", SubordinatorPair(float(rng.uniform(0.2, 3.0)), ZERO_MEASURE)))
    assert len(draws) == 20

    for family, pair in draws:
        cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), grid)
        curve = psi_curve(VG_BASE, cf)
        opts = FitOptions()
        if family == "one_sided_stable":
            opts = FitOptions(fixed_alpha=pair.jumps.index)
        fit = fit_subordinator(curve, family, opts)
        assert abs(fit.beta0_hat - pair.drift) / max(pair.drift, 1.0) < 1e-5
        if family == "gamma":
            truth = (pair.jumps.shape, pair.jumps.rate)
        elif family == "compound_exponential":
            truth = (pair.jumps.rate, pair.jumps.jump_rate)
        elif family == "one_sided_stable":
            truth = (pair.jumps.index, pair.jumps.coeff)
        else:
            truth = ()
        for got, want in zip(fit.params, truth):
            assert abs(got - want) / abs(want) < 1e-5, (family, fit.params, truth)


def test_forward_inverse_consistency_free_index_stable_draws():
    # the free-index search recovers random one-sided stable clocks, drift
    # included, from their noiseless curves to relative error < 1e-6
    rng = np.random.default_rng(2025)
    for _ in range(6):
        pair = SubordinatorPair(
            float(rng.uniform(0.0, 2.0)),
            OneSidedStableMeasure(float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.3, 1.5))),
        )
        cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
        fit = fit_subordinator(psi_curve(VG_BASE, cf), "one_sided_stable")
        assert abs(fit.beta0_hat - pair.drift) / max(pair.drift, 1.0) < 1e-6
        for got, want in zip(fit.params, (pair.jumps.index, pair.jumps.coeff), strict=True):
            assert abs(got - want) / want < 1e-6, (fit.params, pair.jumps)


# --- the profile scan and its refine ------------------------------------------------


def _unit_basis(family, z):
    measure_cls, name = FAMILIES[family], _searched_field(family)
    return name, lambda value: measure_cls(**{measure_cls.amplitude: 1.0, name: value}).laplace_integral(z)


@pytest.mark.parametrize("source", ["noiseless", 5])
@pytest.mark.parametrize("family", ["gamma", "compound_exponential", "one_sided_stable"])
def test_refined_objective_is_no_worse_than_the_best_scan_node(family, source):
    pair = {
        "gamma": SubordinatorPair(0.3, GammaMeasure(2.0, 3.0)),
        "compound_exponential": SubordinatorPair(0.2, CompoundExponentialMeasure(2.0, 1.5)),
        "one_sided_stable": SubordinatorPair(0.1, OneSidedStableMeasure(0.5, 0.5)),
    }[family]
    if source == "noiseless":
        cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
    else:
        path = sample_subordinated(VG_BASE, pair, TimeGrid(0.0, 1.0, 20_000), SimConfig(seed=source))
        cf = empirical_cf(path.increments(), default_theta_grid())
        cf = trim_cf(cf, _near_zero_floor(cf.n_obs))
    curve = psi_curve(VG_BASE, cf)
    w = _curve_weights(curve)
    solve = _separable_solver(curve.z, curve.psi_hat, w)
    name, basis = _unit_basis(family, curve.z)
    nodes, (beta0s, amps, objectives) = _profile_scan(basis, solve, name)
    # each row of the block solve is a nonnegative pair and its summed squares
    assert np.all(beta0s >= 0.0) and np.all(amps >= 0.0)
    for u, beta0, amp, objective in zip(nodes, beta0s, amps, objectives):
        r = curve.psi_hat - beta0 * curve.z - amp * basis(_from_search_coordinate(name, u))
        assert objective == pytest.approx(float(np.sum(w * np.abs(r) ** 2)), rel=1e-12, abs=1e-30)
    k = int(np.argmin(objectives))
    assert 0 < k < nodes.size - 1
    at_node = solve(basis(_from_search_coordinate(name, nodes[k])))[2]
    fit = fit_subordinator(curve, family)
    assert fit.objective <= at_node
    assert fit.n_starts_converged == 1
    assert fit.n_evals > nodes.size
    # the refined field lies in the bracket between the best node's neighbours
    value = fit.params[0] if family == "one_sided_stable" else fit.params[1]
    lo, hi = (_from_search_coordinate(name, u) for u in (nodes[k - 1], nodes[k + 1]))
    assert lo <= value <= hi


@pytest.mark.parametrize("family", ["gamma", "compound_exponential", "one_sided_stable"])
def test_best_value_beyond_the_searched_range_raises(family):
    # the curve is exactly a clock of the family whose searched coordinate
    # lies 5 below the range; the scan's best node is the range's lower end
    z = _vg_curve().z
    name, basis = _unit_basis(family, z)
    g = basis(_from_search_coordinate(name, _SEARCH_RANGE[0] - 5.0))
    curve = PsiCurve(z, 0.3 * z + g / np.max(np.abs(g)), default_theta_grid())
    with pytest.raises(NonConvergence, match=f"best {family} fit lies on the edge of the searched range"):
        fit_subordinator(curve, family)


@pytest.mark.parametrize("family", ["gamma", "compound_exponential"])
def test_curve_that_is_a_drift_to_rounding_raises_naming_drift(family):
    # the unit basis at searched coordinate 31, past the range's upper end,
    # is z / value to about 1e-12: h = 0.3 z + g / max|g| is a drift to the
    # curve's rounding, and jumps that lower its summed squares fit only that
    # rounding (a gamma fit returned shape 8.4e-13 at rate 20.4 here)
    z = _vg_curve().z
    name, basis = _unit_basis(family, z)
    g = basis(_from_search_coordinate(name, 31.0))
    curve = PsiCurve(z, 0.3 * z + g / np.max(np.abs(g)), default_theta_grid())
    with pytest.raises(NonConvergence, match="fit --family drift instead"):
        fit_subordinator(curve, family)


# --- the separable fit against a direct three-parameter simplex ----------------------


def _softplus(u):
    return math.log1p(math.exp(-abs(u))) + max(u, 0.0)


def _reference_fit(curve, family, seed):
    """Nelder-Mead over all three parameters at once: beta0 through a
    softplus, the fields through log (an index through logit), from eight
    Philox starts drawn from seed. Returns (beta0, params, objective)."""
    measure_cls = FAMILIES[family]
    z, h = curve.z, curve.psi_hat
    w = _curve_weights(curve)

    def unpack(vec):
        beta0 = _softplus(vec[0])
        if family != "one_sided_stable":
            return beta0, tuple(math.exp(v) for v in vec[1:])
        return beta0, (1.0 / (1.0 + math.exp(-vec[1])), math.exp(vec[2]))

    def objective(vec):
        beta0, params = unpack(vec)
        try:
            psi = measure_cls(*params).laplace_integral(z)
        except lm.LevyMixError:
            return math.inf
        return float(np.sum(w * np.abs(h - (beta0 * z + psi)) ** 2))

    rng = np.random.Generator(np.random.Philox(key=[seed & ((1 << 64) - 1), 0x5EED]))
    starts = [np.zeros(3)]
    while len(starts) < 8:
        v = rng.uniform(-2.0, 2.0, 3)
        v[0] = rng.uniform(-8.0, 1.0)
        starts.append(v)
    best = None
    for idx, start in enumerate(starts):
        res = optimize.minimize(objective, start, method="Nelder-Mead", options={
            "maxfev": 20_000, "fatol": 1e-10, "xatol": 1e-9})
        if best is None or (res.fun, idx) < best[0]:
            best = ((res.fun, idx), res.x)
    beta0, params = unpack(best[1])
    return beta0, params, objective(best[1])


# the benchmark's recovery models: (family, clock)
ORACLE_CLOCKS = {
    "vg-gamma": ("gamma", SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))),
    "cpexp": ("compound_exponential", SubordinatorPair(0.2, CompoundExponentialMeasure(2.0, 1.5))),
    "half-stable": ("one_sided_stable", SubordinatorPair(0.0, OneSidedStableMeasure(0.5, 0.5))),
}


@pytest.mark.parametrize("source", ["noiseless", 101, 102])
@pytest.mark.parametrize("key", sorted(ORACLE_CLOCKS))
def test_separable_fit_matches_three_parameter_simplex(key, source):
    family, pair = ORACLE_CLOCKS[key]
    grid = default_theta_grid()
    if source == "noiseless":
        cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), grid)
        seed = 0
    else:
        path = sample_subordinated(VG_BASE, pair, TimeGrid(0.0, 1.0, 200_000), SimConfig(seed=source))
        cf = empirical_cf(path.increments(), grid)
        cf = trim_cf(cf, _near_zero_floor(cf.n_obs))
        seed = source
    curve = psi_curve(VG_BASE, cf)
    fit = fit_subordinator(curve, family)
    beta0, params, objective = _reference_fit(curve, family, seed)
    assert fit.objective <= objective * (1.0 + 1e-9) + 1e-15
    assert abs(fit.beta0_hat - beta0) <= max(1e-5 * beta0, 1e-6)
    for got, want in zip(fit.params, params, strict=True):
        assert abs(got - want) <= 1e-5 * want, (fit.params, params)


def test_cross_family_objective_separation():
    # the true family fits essentially exactly; a wrong family's best
    # objective stays at least 10x larger (it is larger by many orders)
    pair = SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, pair, t), default_theta_grid())
    curve = psi_curve(VG_BASE, cf)
    true_fit = fit_subordinator(curve, "gamma")
    wrong_fit = fit_subordinator(curve, "compound_exponential")
    assert wrong_fit.objective >= 10.0 * max(true_fit.objective, 1e-300)
    assert wrong_fit.objective > 1e-4


def test_equal_mean_gamma_clocks_are_separated():
    # gamma(1,1) and gamma(2,2) have the same mean; the exponent curves
    # still differ by a comfortable margin, and fitting the wrong clock
    # leaves a large objective
    p_true = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))
    p_conf = SubordinatorPair(0.0, GammaMeasure(2.0, 2.0))
    grid = default_theta_grid()
    gap = max(
        abs(compose_cf(VG_BASE, p_true, float(t)) - compose_cf(VG_BASE, p_conf, float(t)))
        for t in grid
    )
    assert gap > 0.01
    cf = analytic_cf(lambda t: compose_cf(VG_BASE, p_true, t), grid)
    curve = psi_curve(VG_BASE, cf)
    free = fit_subordinator(curve, "gamma")
    confined = _confounder_objective(curve, a=2.0, lam=2.0)
    assert confined >= 10.0 * max(free.objective, 1e-300)


def _confounder_objective(curve, a, lam):
    pred = -a * np.log(1.0 - curve.z / lam)
    resid = pred - curve.psi_hat
    return float(np.sum(np.abs(resid) ** 2))


# --- end-to-end recovery -----------------------------------------------------------


def _vg_path(n, seed):
    return sample_subordinated(VG_BASE, VG_PAIR, TimeGrid(0.0, 1.0, n), SimConfig(seed=seed))


def test_recover_from_path_vg_smoke():
    path = _vg_path(20_000, seed=1)
    fit = recover_from_path(path, VG_BASE, "gamma")
    a, lam = fit.params
    assert abs(a - 1.0) < 0.25
    assert abs(lam - 1.0) < 0.25


def test_recover_from_path_rescales_time_spacing():
    # increments observed every dt = 0.5: the per-step curve sees half the
    # clock, and the result is reported per unit time
    pair = SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))
    path = sample_subordinated(VG_BASE, pair, TimeGrid(0.0, 0.5, 60_000), SimConfig(seed=4))
    fit = recover_from_path(path, VG_BASE, "gamma")
    a, lam = fit.params
    assert abs(a - 2.0) / 2.0 < 0.15
    assert abs(lam - 3.0) / 3.0 < 0.15


def test_statistical_consistency_on_doubling():
    # with the sample doubled from 1e5 to 2e5 on the acceptance seed the
    # error must not grow by more than 50%, and the median error over ten
    # seed replicates must decrease
    def rel_err(inc, n):
        grid = TimeGrid(0.0, 1.0, n)
        path = PathSample(grid, np.concatenate(([0.0], np.cumsum(inc[:n]))), 0, 0)
        fit = recover_from_path(path, VG_BASE, "gamma")
        a, lam = fit.params
        return max(abs(a - 1.0), abs(lam - 1.0))

    inc13 = _vg_path(200_000, seed=13).increments()
    e1, e2 = rel_err(inc13, 100_000), rel_err(inc13, 200_000)
    assert e2 <= 1.5 * e1

    errs_small, errs_big = [], []
    for seed in range(10):
        inc = _vg_path(200_000, seed=seed).increments()
        errs_small.append(rel_err(inc, 100_000))
        errs_big.append(rel_err(inc, 200_000))
    assert np.median(errs_big) < np.median(errs_small)


# --- moving-average inversion --------------------------------------------------------


def test_ou_invert_recovers_manufactured_increments():
    dt = 0.01
    rng = np.random.default_rng(5)
    d_l = rng.gamma(0.5, 1.0, 400)
    y = np.zeros(d_l.size + 1)
    for i in range(d_l.size):
        y[i + 1] = y[i] - y[i] * dt + d_l[i]
    grid = TimeGrid(0.0, dt, d_l.size)
    path = PathSample(grid, y, 0, 0)
    back = ou_invert(path)
    assert np.max(np.abs(back - d_l)) <= 1e-12


def test_ou_invert_rejects_coarse_grids():
    grid = TimeGrid(0.0, 0.2, 10)
    path = PathSample(grid, np.zeros(11), 0, 0)
    with pytest.raises(GridTooCoarse):
        ou_invert(path)


def test_ou_invert_approximates_lss_driver():
    # against the exp-kernel moving average the inversion recovers the
    # driving increments up to O(dt) discretization error
    pair = SubordinatorPair(0.2, GammaMeasure(1.0, 1.0))
    grid = TimeGrid(0.0, 1e-3, 4000)
    cfg = SimConfig(seed=3)
    burn_in = 25.0
    y = sample_lss(exp_kernel(), VG_BASE, pair, grid, burn_in, cfg)
    m = int(math.ceil(burn_in / grid.dt))
    from levymix.simulate import conv_power_sample, sample_subordinator

    d_t = sample_subordinator(
        pair, TimeGrid(grid.t0 - m * grid.dt, grid.dt, m + grid.n_steps), cfg
    ).increments()
    d_x = conv_power_sample(VG_BASE, d_t, make_rng(cfg.seed, 0, channel=1))[m:]
    back = ou_invert(y)
    mae = float(np.mean(np.abs(back - d_x)))
    assert mae < 0.02 * float(np.mean(np.abs(d_x)))
