"""Release gate: one end-to-end check per shipped capability.

Each test prints a single pass/fail line with the measured quantity, its
bound, and the wall time (also echoed in the pytest summary block). The
tolerances and time budgets here are the package's release contract; the
unit suites cover the same code paths at finer grain.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""
import math
import time

import numpy as np
import pytest
from scipy import integrate

import levymix as lm
from levymix.core import (
    AtomicMeasure,
    GammaMeasure,
    SubordinatorPair,
    ZERO_MEASURE,
)
from levymix.mixing import (
    IntervalSet,
    mixing_cf,
    phi_mix_density_gamma,
    phi_mix_mass,
    phi_mix_stable,
    small_s_ratio,
)
from levymix.recover import (
    analytic_cf,
    default_theta_grid,
    fit_subordinator,
    ou_invert,
    psi_curve,
    recover_from_path,
)
from levymix.simulate import (
    SimConfig,
    TimeGrid,
    conv_power_sample,
    exp_kernel,
    make_rng,
    sample_basis_ensemble,
    sample_basis_grid,
    sample_lss,
    sample_subordinated,
    sample_subordinator,
)
from levymix.subordinate import (
    SeedCell,
    SeedField,
    cell_log_cf,
    cf_from_triplet,
    compose_cf,
    subordinate_triplet,
)

GAUSS = lm.gaussian_law()


@pytest.fixture
def gate(request):
    start = time.perf_counter()

    def report(label, ok, detail, budget_s):
        elapsed = time.perf_counter() - start
        in_time = elapsed < budget_s
        verdict = "PASS" if (ok and in_time) else "FAIL"
        line = f"[{verdict}] {label}: {detail}  [{elapsed:.1f}s < {budget_s:.0f}s]"
        print(line)
        recorded = getattr(request.config, "_acceptance_lines", [])
        recorded.append(line)
        request.config._acceptance_lines = recorded
        assert ok and in_time, line

    return report


def test_two_route_characteristic_functions(gate):
    # composing the clock into the base CF must agree with evaluating the
    # characteristic exponent of the assembled triplet
    cases = [
        ("gaussian + gamma clock", GAUSS, SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))),
        ("poisson + atomic clock", lm.poisson_law(1.0), SubordinatorPair(0.0, AtomicMeasure(((1.0, 1.0),)))),
        ("gaussian + pure drift", lm.gaussian_law(0.1, 1.0), SubordinatorPair(0.7, ZERO_MEASURE)),
    ]
    thetas = np.linspace(-10.0, 10.0, 201)
    worst = 0.0
    for _, mu, pair in cases:
        st = subordinate_triplet(mu, pair)
        worst = max(
            worst,
            max(abs(cf_from_triplet(st, float(t)) - compose_cf(mu, pair, float(t))) for t in thetas),
        )
    gate("two-route CF agreement", worst <= 1e-6,
         f"sup diff {worst:.2e} over 3 models x 201 points (tol 1e-06)", 30.0)


def test_gamma_mix_density_integrates_to_mass(gate):
    rho = GammaMeasure(1.5, 2.0)
    edges = np.linspace(0.1, 5.1, 51)
    worst = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(lambda x: phi_mix_density_gamma(1.0, rho, x), lo, hi, limit=200)
        r = phi_mix_mass(lm.gamma_law(1.0, 1.0), rho, [IntervalSet.of(float(lo), float(hi))])[0]
        worst = max(worst, abs(val - r.value))
    gate("gamma-kernel mix density vs mass", worst <= 1e-8,
         f"worst interval diff {worst:.2e} over 50 intervals (tol 1e-08)", 10.0)


def test_stable_mix_evaluator_matches_generic(gate):
    rng = np.random.default_rng(42)
    rho = GammaMeasure(1.2, 0.9)
    intervals = []
    for _ in range(20):
        lo = float(rng.uniform(0.05, 2.0))
        intervals.append((lo, lo + float(rng.uniform(0.1, 2.0))))
    worst = 0.0
    for mu, alpha in ((lm.cauchy_law(1.0), 1.0), (lm.gaussian_law(0.0, 2.0), 2.0)):
        ev = phi_mix_stable(mu, alpha, rho)
        for lo, hi in intervals:
            sets = IntervalSet.of(lo, hi)
            worst = max(worst, abs(ev.mass([sets])[0].value - phi_mix_mass(mu, rho, [sets])[0].value))
    gate("stable scaling shortcut vs generic", worst <= 1e-8,
         f"worst diff {worst:.2e} on 20 intervals x 2 bases (tol 1e-08)", 5.0)


def test_finite_mixing_cf_identity(gate):
    # transform identity vs direct x-quadrature against the mixed density,
    # for two finite (compound-Poisson style) mixing measures
    fixtures = [
        (lm.gaussian_law(0.3, 1.0), AtomicMeasure(((0.4, 0.8), (1.1, 0.5)))),
        (lm.gaussian_law(-0.2, 0.7), AtomicMeasure(((0.25, 0.6), (0.9, 0.4), (2.0, 0.3)))),
    ]
    worst = 0.0
    for mu, rho in fixtures:
        atoms = rho.atoms

        def dens(x):
            return float(sum(w * mu.law.density(s, x) for s, w in atoms))

        for theta in range(-5, 6):
            re, _ = integrate.quad(lambda x: math.cos(theta * x) * dens(x), -30, 30, limit=400)
            im, _ = integrate.quad(lambda x: math.sin(theta * x) * dens(x), -30, 30, limit=400)
            worst = max(worst, abs(mixing_cf(mu, rho, float(theta)) - complex(re, im)))
    gate("finite-mix CF identity", worst <= 1e-6,
         f"worst diff {worst:.2e} on integer points in [-5, 5] (tol 1e-06)", 5.0)


def test_small_s_ratio_extrapolates_to_one(gate):
    r = [small_s_ratio(lm.gaussian_law(0.0, 1.0), s) for s in (1e-2, 1e-3, 1e-4)]
    d1, d2 = r[0] - r[1], r[1] - r[2]
    if abs(d1 - d2) > 1e-12:
        limit = r[2] - d2 * d2 / (d1 - d2)  # Aitken: exact for geometric decay
    else:
        limit = r[2]  # already converged to rounding noise
    err = abs(limit - 1.0)
    gate("small-scale mass ratio limit", err <= 1e-3,
         f"extrapolated limit off by {err:.2e} (tol 1e-03)", 2.0)


def test_subordinated_samples_match_cf(gate):
    n = 100_000
    pair = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))
    path = sample_subordinated(GAUSS, pair, TimeGrid(0.0, 1.0, n), SimConfig(seed=13))
    inc = path.increments()
    worst = 0.0
    for theta in np.linspace(-10.0, 10.0, 41):
        ecf = complex(np.exp(1j * theta * inc).mean())
        want = np.exp(compose_cf(GAUSS, pair, float(theta)))
        worst = max(worst, abs(ecf - want))
    bound = 4.0 / math.sqrt(n)
    gate("sampled law matches CF", worst <= bound,
         f"sup ECF dev {worst:.4f} over 41 points (bound {bound:.4f}, N=1e5)", 30.0)


def test_noiseless_gamma_fit_is_exact(gate):
    pair = SubordinatorPair(0.4, GammaMeasure(2.0, 3.0))
    cf = analytic_cf(lambda t: compose_cf(GAUSS, pair, t), default_theta_grid())
    fit = fit_subordinator(psi_curve(GAUSS, cf), "gamma")
    a, lam = fit.params
    rel = max(abs(a - 2.0) / 2.0, abs(lam - 3.0) / 3.0)
    gate("noiseless gamma fit", rel < 1e-6 and fit.objective < 1e-12,
         f"param rel err {rel:.2e} (tol 1e-06), objective {fit.objective:.2e} (tol 1e-12)", 10.0)


def test_end_to_end_recovery_from_samples(gate):
    pair = SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))
    path = sample_subordinated(GAUSS, pair, TimeGrid(0.0, 1.0, 100_000), SimConfig(seed=13))
    fit = recover_from_path(path, GAUSS, "gamma")
    a, lam = fit.params
    rel = max(abs(a - 2.0) / 2.0, abs(lam - 3.0) / 3.0)
    gate("end-to-end clock recovery", rel < 0.05,
         f"recovered ({a:.3f}, {lam:.3f}) vs (2, 3), rel err {rel:.3f} (tol 0.05, N=1e5)", 60.0)


def test_confounders_are_separated(gate):
    # equal-mean clocks keep visibly different exponent curves, a field
    # differing in one cell keeps different cell CFs, and fitting the wrong
    # family cannot approach the true family's objective
    grid = default_theta_grid()
    p_true = SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))
    p_conf = SubordinatorPair(0.0, GammaMeasure(2.0, 2.0))
    clock_gap = max(
        abs(compose_cf(GAUSS, p_true, float(t)) - compose_cf(GAUSS, p_conf, float(t)))
        for t in grid
    )
    cell_a = SeedCell(((0.0, 1.0),), p_true)
    cell_b = SeedCell(((0.0, 1.0),), p_conf)
    cell_gap = max(
        abs(cell_log_cf(GAUSS, cell_a, float(t)) - cell_log_cf(GAUSS, cell_b, float(t)))
        for t in grid
    )
    pair = SubordinatorPair(0.0, GammaMeasure(2.0, 3.0))
    cf = analytic_cf(lambda t: compose_cf(GAUSS, pair, t), grid)
    curve = psi_curve(GAUSS, cf)
    true_fit = fit_subordinator(curve, "gamma")
    wrong_fit = fit_subordinator(curve, "compound_exponential")
    ratio = wrong_fit.objective / max(true_fit.objective, 1e-20)
    ok = clock_gap > 0.01 and cell_gap > 0.01 and ratio >= 10.0
    gate("confounder separation", ok,
         f"clock gap {clock_gap:.3f}, cell gap {cell_gap:.3f} (floor 0.01), "
         f"wrong-family objective x{ratio:.1e} (floor 10)", 20.0)


def _ou_rel_err(dt, n_steps, seed):
    pair = SubordinatorPair(0.2, GammaMeasure(1.0, 1.0))
    cfg = SimConfig(seed=seed)
    burn_in = 25.0
    y = sample_lss(exp_kernel(), GAUSS, pair, TimeGrid(0.0, dt, n_steps), burn_in, cfg)
    m = int(math.ceil(burn_in / dt))
    d_t = sample_subordinator(pair, TimeGrid(-m * dt, dt, m + n_steps), cfg).increments()
    d_x = conv_power_sample(GAUSS, d_t, make_rng(cfg.seed, 0, channel=1))[m:]
    back = ou_invert(y)
    return float(np.mean(np.abs(back - d_x))) / float(np.mean(np.abs(d_x)))


def test_ou_inversion_error_and_refinement(gate):
    errs = [_ou_rel_err(dt, int(round(4.0 / dt)), seed=3) for dt in (4e-3, 2e-3, 1e-3)]
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.02
    gate("OU driver reconstruction", ok,
         f"rel MAE {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}, finest < 0.02", 30.0)


def test_basis_grid_additivity_and_cell_laws(gate):
    fld = SeedField((
        SeedCell(((0.0, 1.0), (0.0, 1.0)), SubordinatorPair(0.0, GammaMeasure(1.0, 1.0))),
        SeedCell(((1.0, 2.0), (0.0, 1.0)), SubordinatorPair(0.3, GammaMeasure(2.0, 3.0))),
        SeedCell(((0.0, 1.0), (1.0, 2.0)), SubordinatorPair(0.0, GammaMeasure(0.5, 1.0)), 2.0),
        SeedCell(((1.0, 2.0), (1.0, 2.0)), SubordinatorPair(0.1, GammaMeasure(1.5, 0.8))),
    ))
    grid = sample_basis_grid(GAUSS, fld, SimConfig(seed=11))
    grid = grid.with_union((0, 1)).with_union((2, 3)).with_union((0, 1, 2, 3))
    vals = grid.cell_values()
    additive = all(total == sum(vals[i] for i in idx) for idx, total in grid.unions)

    n = 50_000
    draws = sample_basis_ensemble(GAUSS, fld, SimConfig(seed=11), n)
    worst = 0.0
    for j, cell in enumerate(fld.cells):
        for theta in (0.9, 1.7):
            ecf = complex(np.exp(1j * theta * draws[:, j]).mean())
            want = np.exp(cell.control_mass * compose_cf(GAUSS, cell.pair, theta))
            worst = max(worst, abs(ecf - want))
    bound = 4.0 / math.sqrt(n)
    gate("basis grid additivity and cell laws", additive and worst <= bound,
         f"unions exact: {additive}, worst cell ECF dev {worst:.4f} (bound {bound:.4f}, N=5e4)", 30.0)
