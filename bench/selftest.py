"""Tests of the benchmark itself: references, output checks, tiny runs.

    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it. Synthetic outputs below are drawn with numpy from the models'
definitions, never with levymix, so they test the checks and the closed
forms together.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

# the reference quadratures below warn about roundoff at tolerances they still meet
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import levymix  # noqa: E402
import levymix.cli  # noqa: E402,F401
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

# ---------------------------------------------------------------------------
# Closed forms against scipy quadrature.

CLOCK_DENSITY = {
    "gamma": lambda c, s: c[1] / s * math.exp(-c[2] * s),
    "stable": lambda c, s: c[2] * s ** (-c[1] - 1.0),
    "cpexp": lambda c, s: c[1] * c[2] * math.exp(-c[2] * s),
}


def quad_log_cf(model, theta):
    """drift z + integral of (e^{z s} - 1) rho(ds), z the base exponent."""
    z = complex(ref.base_exponent(model["base"], theta))
    clock = model["clock"]
    if clock[0] == "atomic":
        # a Poisson mixture: sum the CF of the lattice law term by term
        rate, jump = model["base"][1], model["base"][2]
        total = 0.0
        for p, m in clock[1]:
            ks = np.arange(0, 80)
            pmf = stats.poisson.pmf(ks, rate * p)
            total += m * (np.sum(pmf * np.exp(1j * theta * jump * ks)) - 1.0)
        return total
    dens = CLOCK_DENSITY[clock[0]]
    lo, hi = 1e-16, 2000.0

    def part(f):
        g = lambda u: f((np.exp(z * math.exp(u)) - 1.0) * dens(clock, math.exp(u)) * math.exp(u))
        return integrate.quad(g, math.log(lo), math.log(hi), limit=400, epsabs=1e-12, epsrel=1e-10)[0]

    value = model["drift"] * z + part(lambda v: v.real) + 1j * part(lambda v: v.imag)
    if clock[0] == "stable":
        # below lo, e^{zs} - 1 = z s to first order; above hi, e^{zs} is 0
        index, c = clock[1], clock[2]
        value += z * c * lo ** (1.0 - index) / (1.0 - index) - c * hi ** -index / index
    return value


ALL_MODELS = {
    "vg": wl.VG, "cauchy-gamma": wl.CAUCHY_GAMMA, "delta-gamma": wl.DELTA_GAMMA,
    "poisson-atomic": wl.POISSON_ATOMIC, "cauchy-half": wl.CAUCHY_HALF, "delta-cpexp": wl.DELTA_CPEXP,
    "gauss-stable03": wl.GAUSS_STABLE03, "gauss-cpexp": wl.GAUSS_CPEXP, "gauss-half": wl.GAUSS_HALF,
}


@pytest.mark.parametrize("key", ALL_MODELS)
def test_log_cf_matches_quadrature(key):
    model = ALL_MODELS[key]
    for theta in (-7.3, -0.6, 0.45, 2.0, 9.1):
        want = quad_log_cf(model, theta)
        got = complex(ref.log_cf(model, theta))
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (theta, got, want)


def quad_mass(model, lo, hi):
    if model is wl.POISSON_ATOMIC:
        ks = np.arange(1, 60)
        inside = (ks > lo) & (ks <= hi)
        return float(np.sum(stats.poisson.pmf(ks[inside], 1.0)))
    a, lam = model["clock"][1], model["clock"][2]
    if model is wl.VG:
        g = lambda s: a / s * math.exp(-lam * s) * (special.ndtr(hi / math.sqrt(s)) - special.ndtr(lo / math.sqrt(s)))
        return integrate.quad(g, 0.0, 60.0, points=[1e-4, 1e-2, 1.0], limit=400, epsabs=1e-14, epsrel=1e-12)[0]
    if model is wl.DELTA_GAMMA:
        if hi <= 0:
            return 0.0
        speed = model["base"][1]
        g = lambda s: a / s * math.exp(-lam * s)
        return integrate.quad(g, lo / speed, hi / speed, epsabs=1e-14, epsrel=1e-12)[0]
    if model is wl.CAUCHY_GAMMA:
        # integrate the mixed density in x: a s^-1 e^{-lam s} times the Cauchy density
        dens = lambda x: integrate.quad(
            lambda u: a * math.exp(-lam * math.exp(u)) / (math.pi * (x * x + math.exp(2 * u))) * math.exp(u),
            math.log(1e-14), math.log(60.0), limit=400, epsabs=1e-14, epsrel=1e-12)[0]
        return integrate.quad(dens, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
    raise ValueError("no quadrature for this model")


@pytest.mark.parametrize("model", [wl.VG, wl.DELTA_GAMMA, wl.CAUCHY_GAMMA, wl.POISSON_ATOMIC],
                         ids=["vg", "delta-gamma", "cauchy-gamma", "poisson-atomic"])
def test_masses_match_quadrature(model):
    for lo, hi in ((0.07, 0.3), (0.5, 1.5), (2.2, 5.0), (-3.0, -0.8)):
        want = quad_mass(model, lo, hi)
        if model is wl.CAUCHY_GAMMA:
            got = ref.cauchy_gamma_mass(model["clock"][1], model["clock"][2], model["base"][1], lo, hi)
        else:
            got = ref.interval_mass(model, lo, hi)
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-14, (lo, hi, got, want)


def test_gamma_bar_matches_quadrature():
    a, lam = wl.DELTA_GAMMA["clock"][1], wl.DELTA_GAMMA["clock"][2]
    speed, drift = wl.DELTA_GAMMA["base"][1], wl.DELTA_GAMMA["drift"]
    inner = integrate.quad(lambda s: speed * s * a / s * math.exp(-lam * s), 0.0, 1.0 / speed, epsabs=1e-14)[0]
    assert abs(ref.gamma_bar(wl.DELTA_GAMMA) - (speed * drift + inner)) < 1e-12
    assert abs(ref.gamma_bar(wl.POISSON_ATOMIC) - stats.poisson.pmf(1, 1.0)) < 1e-15
    assert ref.gamma_bar(wl.VG) == 0.0 and ref.gamma_bar(wl.CAUCHY_GAMMA) == 0.0


# ---------------------------------------------------------------------------
# Samplers written from the model definitions, for synthetic outputs.


def positive_stable(rng, index, scale, n):
    """Kanter's representation: E exp(-u S) = exp(-scale * u**index)."""
    u = rng.uniform(0.0, math.pi, n)
    e = rng.exponential(1.0, n)
    s = (np.sin(index * u) / np.sin(u) ** (1.0 / index)) * (np.sin((1.0 - index) * u) / e) ** ((1.0 - index) / index)
    return scale ** (1.0 / index) * s


def clock_draws(rng, model, t, n):
    drift, clock = model["drift"], model["clock"]
    if clock[0] == "gamma":
        jumps = rng.gamma(clock[1] * t, 1.0 / clock[2], n)
    elif clock[0] == "stable":
        jumps = positive_stable(rng, clock[1], t * clock[2] * -special.gamma(-clock[1]), n)
    else:
        counts = rng.poisson(clock[1] * t, n)
        jumps = np.zeros(n)
        busy = counts > 0
        jumps[busy] = rng.gamma(counts[busy].astype(float), 1.0 / clock[2])
    return drift * t + jumps


def draws(rng, model, t, n):
    """n iid values of the subordinated process at time t."""
    clock = clock_draws(rng, model, t, n)
    base = model["base"]
    if base[0] == "gaussian":
        return np.sqrt(clock) * rng.standard_normal(n)
    if base[0] == "cauchy":
        return base[1] * clock * np.tan(math.pi * (rng.random(n) - 0.5))
    return base[1] * clock


def wrong(model, **clock_change):
    """The model with one clock parameter replaced."""
    clock = list(model["clock"])
    for index, value in clock_change.items():
        clock[int(index[1:])] = value
    return dict(model, clock=tuple(clock))


def write_path(path, dt, values):
    t = dt * np.arange(values.size)
    with open(path, "w") as fh:
        fh.write("t,value\n")
        fh.writelines(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, values))


@pytest.fixture(scope="module")
def sampling(tmp_path_factory):
    return wl.Sampling(levymix, 5, str(tmp_path_factory.mktemp("sampling")))


def path_errors(w, op, errors_for):
    return [e for e in w.check({op: None}) if errors_for in e]


@pytest.mark.parametrize("key,model,bad", [
    ("vg", wl.VG, wrong(wl.VG, c1=3.0)),
    ("stable03", wl.GAUSS_STABLE03, wrong(wl.GAUSS_STABLE03, c2=1.5)),
])
def test_long_path_check_accepts_the_law_and_rejects_a_wrong_one(sampling, key, model, bad):
    rng = np.random.default_rng(11)
    for law, ok in ((model, True), (bad, False)):
        inc = draws(rng, law, wl.LONG_DT, sampling.long_steps)
        write_path(sampling.path(f"{key}.path.csv"), wl.LONG_DT, np.concatenate(([0.0], np.cumsum(inc))))
        errors = path_errors(sampling, f"simulate:{key}", key)
        assert (not errors) == ok, errors


def test_short_paths_check_rejects_a_wrong_law(sampling):
    rng = np.random.default_rng(12)
    # 200 path ends resolve a quadrupled clock coefficient, not a doubled one
    for law, ok in ((wl.CAUCHY_HALF, True), (wrong(wl.CAUCHY_HALF, c2=2.0), False)):
        for k in range(sampling.short_paths):
            inc = draws(rng, law, wl.SHORT_DT, wl.SHORT_STEPS)
            write_path(sampling.path(f"short.p{k}.csv"), wl.SHORT_DT, np.concatenate(([0.0], np.cumsum(inc))))
        errors = path_errors(sampling, "simulate:cauchy-half", "cauchy-half")
        assert (not errors) == ok, errors
        if not ok:
            assert any("increments" in e for e in errors) and any("path ends" in e for e in errors)


def test_lss_check_rejects_a_wrong_law(sampling):
    rng = np.random.default_rng(13)
    decay = math.exp(-wl.LSS_DT)
    for law, ok in ((wl.DELTA_CPEXP, True), (wrong(wl.DELTA_CPEXP, c1=3.0), False)):
        d = draws(rng, law, wl.LSS_DT, sampling.lss_steps)
        y = np.zeros(d.size + 1)
        for i, di in enumerate(d):
            y[i + 1] = decay * (y[i] + di)
        write_path(sampling.path("lss.csv"), wl.LSS_DT, y)
        errors = path_errors(sampling, "lss-sim:delta-cpexp", "lss")
        assert (not errors) == ok, errors


def write_field_rows(w, rows):
    with open(w.path("field.csv"), "w") as fh:
        fh.write("x0,y0,x1,y1,value\n")
        fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def write_field(w, values):
    """Cell rows in the CLI's order, then the union rows as exact sums."""
    n = w.n_cells
    side, h = w.field_side, wl.FIELD_CELL
    rows = [((k % side) * h, (k // side) * h, (k % side + 1) * h, (k // side + 1) * h, values[k]) for k in range(n)]
    for k in range(0, n, 2):
        a, b = rows[k], rows[k + 1]
        rows.append((a[0], a[1], b[2], b[3], a[4] + b[4]))
    write_field_rows(w, rows)
    return rows


def test_field_check_rejects_a_wrong_law_and_a_union_off_by_one_ulp(sampling):
    rng = np.random.default_rng(14)
    area = wl.FIELD_CELL ** 2
    rows = write_field(sampling, draws(rng, wl.VG, area, sampling.n_cells))
    assert sampling.check({"basis-sim:field": None}) == []
    # one union row off by one ulp
    n = sampling.n_cells
    j = n + 7
    rows[j] = rows[j][:4] + (float(np.nextafter(rows[j][4], np.inf)),)
    write_field_rows(sampling, rows)
    errors = sampling.check({"basis-sim:field": None})
    assert any("union row 7" in e for e in errors), errors
    write_field(sampling, draws(rng, wrong(wl.VG, c1=4.0), area, n))
    errors = sampling.check({"basis-sim:field": None})
    assert any("field cells" in e for e in errors), errors


# ---------------------------------------------------------------------------
# The program's own outputs, perturbed.


@pytest.fixture(scope="module")
def calculus(tmp_path_factory):
    w = wl.Calculus(levymix, 3, str(tmp_path_factory.mktemp("calculus")), scale=0.1)
    _, values, _, failed = wl.run_round(w.ops)
    assert not failed
    assert w.check(values) == []
    return w, values


def edit_json(path, fn):
    with open(path) as fh:
        doc = json.load(fh)
    saved = json.dumps(doc)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return saved


def restore(path, text):
    with open(path, "w") as fh:
        fh.write(text)


@pytest.mark.parametrize("key", ["vg", "cauchy-gamma", "delta-gamma", "poisson-atomic"])
@pytest.mark.parametrize("kind,field", [("sub", "nu_bar"), ("mix", "mixed_mass")])
def test_mass_off_by_1e_6_relative_is_rejected(calculus, key, kind, field):
    w, values = calculus
    path = w.path(f"{key}.{kind}.json")
    with open(path) as fh:
        table = json.load(fh)[field]
    j = max(range(len(table)), key=lambda i: table[i]["mass"])

    def bump(doc):
        doc[field][j]["mass"] *= 1.0 + 1e-6

    saved = edit_json(path, bump)
    try:
        errors = w.check(values)
    finally:
        restore(path, saved)
    assert any(f"{key}: mass on" in e for e in errors), errors


def test_gamma_bar_and_cf_table_perturbations_are_rejected(calculus):
    w, values = calculus
    path = w.path("delta-gamma.sub.json")
    saved = edit_json(path, lambda doc: doc.update(gamma_bar=doc["gamma_bar"] * (1.0 + 1e-8)))
    try:
        assert any("gamma_bar" in e for e in w.check(values))
    finally:
        restore(path, saved)
    path = w.path("vg.cf.csv")
    with open(path) as fh:
        saved = fh.read()
    lines = saved.splitlines()
    t, re_, im = lines[5].split(",")
    lines[5] = f"{t},{float(re_) + 1e-11:.17g},{im}"
    restore(path, "\n".join(lines) + "\n")
    try:
        assert any("vg: cf table" in e for e in w.check(values))
    finally:
        restore(path, saved)


def test_triplet_route_off_by_2e_6_is_rejected(calculus):
    w, values = calculus
    bad = dict(values)
    bad["triplet:cauchy-gamma"] = values["triplet:cauchy-gamma"] + 2e-6
    assert any("cauchy-gamma: triplet route" in e for e in w.check(bad))


@pytest.fixture(scope="module")
def recovery(tmp_path_factory):
    return wl.Recovery(levymix, 4, str(tmp_path_factory.mktemp("recovery")))


def test_recovery_checks_reject_estimates_off_the_truth(recovery):
    for key, (_, family, truth) in wl.RECOVER_PAIRS.items():
        bounds = wl.RECOVER_BOUNDS[key]
        for shift, ok in ((0.5, True), (1.5, False)):
            est = [t + shift * b for t, b in zip(truth, bounds)]
            report = {"family": family, "params": est[1:], "beta0": est[0], "n_starts_converged": 3,
                      "n_obs": recovery.steps, "seed": recovery.seed}
            with open(recovery.path(f"{key}.fit.json"), "w") as fh:
                json.dump(report, fh)
            errors = recovery.check({f"recover:{key}": None})
            assert (not errors) == ok, errors


def test_noiseless_check_rejects_1e_5_relative_error(recovery):
    for key, (_, family, truth) in wl.RECOVER_PAIRS.items():
        for rel, objective, ok in ((1e-8, 1e-14, True), (1e-5, 1e-14, False), (1e-8, 1e-11, False)):
            fit = levymix.recover.FitResult(
                family, tuple(t * (1 + rel) for t in truth[1:]), truth[0] + rel, objective, 8, 0.0)
            errors = recovery.check({f"noiseless:{key}": fit})
            assert (not errors) == ok, (key, rel, objective, errors)


# ---------------------------------------------------------------------------
# Every workload end to end at a tiny size, untraced and traced.

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("traced", [0, 1])
def test_workload_runs_at_tiny_size(workload, traced):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(traced), "--scale", "0.02"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    want = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in want)
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
