"""Command-line contract: golden outputs, determinism, and exit codes.

The golden files under tests/golden/ pin byte-exact output for three
commands; correctness of the numbers themselves is covered by the library
tests, so these catch any drift in serialization, seeding, or defaults.
"""
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levymix import cli
from levymix.cli import _csv, load_model_spec, main
from levymix.errors import SpecError
from levymix.simulate import PathSample, SimConfig, TimeGrid, sample_subordinated

HERE = Path(__file__).parent
MODELS = HERE / "models"
GOLDEN = HERE / "golden"

VG = str(MODELS / "vg.json")
POISSON_ATOM = str(MODELS / "poisson_atom.json")
BASIS = str(MODELS / "basis.json")
VG_TEXT = (MODELS / "vg.json").read_text()


def _run(argv):
    return main([str(a) for a in argv])


def _src_env():
    src = str(HERE.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


# --- golden files ---------------------------------------------------------------


def test_golden_cf_table(tmp_path):
    out = tmp_path / "cf.csv"
    rc = _run(["cf", "--model", VG, "--theta-min", -2, "--theta-max", 2,
               "--theta-steps", 5, "--out", out])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "cf_table.csv").read_bytes()


def test_golden_subordinate_report(tmp_path):
    out = tmp_path / "sub.json"
    rc = _run(["subordinate", "--model", POISSON_ATOM, "--out", out])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "subordinate_report.json").read_bytes()


def test_golden_basis_grid(tmp_path):
    out = tmp_path / "grid.csv"
    rc = _run(["basis-sim", "--model", BASIS, "--seed", 7, "--out", out])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "basis_grid.csv").read_bytes()


def test_one_parser_serves_every_call_of_a_process(tmp_path):
    # cf, mix, then cf again through the process's one parser: the cf tables
    # are the golden's bytes, and mix writes what a fresh process writes
    cf_argv = ["cf", "--model", VG, "--theta-min", -2, "--theta-max", 2, "--theta-steps", 5]
    outs = [tmp_path / "cf1.csv", tmp_path / "mix.json", tmp_path / "cf2.csv"]
    assert _run([*cf_argv, "--out", outs[0]]) == 0
    assert _run(["mix", "--model", VG, "--out", outs[1]]) == 0
    assert _run([*cf_argv, "--out", outs[2]]) == 0
    fresh = tmp_path / "fresh.json"
    proc = subprocess.run([sys.executable, "-m", "levymix.cli", "mix", "--model", VG, "--out", str(fresh)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[2].read_bytes() == (GOLDEN / "cf_table.csv").read_bytes()
    assert outs[1].read_bytes() == fresh.read_bytes()


def test_a_refused_call_leaves_the_parser_usable(tmp_path, capsys):
    with pytest.raises(SystemExit) as refused:
        _run(["cf", "--model", VG])  # no --out
    assert refused.value.code == 2
    assert "--out" in capsys.readouterr().err
    out = tmp_path / "cf.csv"
    assert _run(["cf", "--model", VG, "--theta-min", -2, "--theta-max", 2, "--theta-steps", 5, "--out", out]) == 0
    assert out.read_bytes() == (GOLDEN / "cf_table.csv").read_bytes()


def test_bench_tracer_times_each_command_after_the_parser_is_built(tmp_path):
    # bench/spans.py wraps cli.cmd_* once the first, untraced round has
    # built the parser: main must reach the commands through those names
    path = HERE.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import levymix

    assert _run(["mix", "--model", VG, "--out", tmp_path / "warm.json"]) == 0
    tracer = spans.Tracer(levymix)
    tracer.install()
    try:
        tracer.begin_round()
        for command in ("cf", "subordinate", "mix"):
            assert _run([command, "--model", VG, "--out", tmp_path / command]) == 0
        tracer.end_round()
    finally:
        tracer.uninstall()
    metrics = tracer.round_metrics()[-1]
    assert min(metrics[f"cli.{command}_s"] for command in ("cf", "subordinate", "mix")) > 0


def test_subordinate_report_fields_and_precision(tmp_path):
    out = tmp_path / "sub.json"
    _run(["subordinate", "--model", POISSON_ATOM, "--out", out])
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["b_bar"] == 0
    # 17-significant-digit floats survive a JSON round trip unchanged
    assert report["nu_bar"][0]["mass"] == 0.36787944117144222
    assert [row["lo"] for row in report["nu_bar"]] == [0.5, 1.5]


def test_basis_grid_union_row_is_exact_sum(tmp_path):
    out = tmp_path / "grid.csv"
    _run(["basis-sim", "--model", BASIS, "--seed", 7, "--out", out])
    rows = out.read_text().strip().splitlines()[1:]
    vals = [float(r.split(",")[4]) for r in rows]
    assert vals[2] == vals[0] + vals[1]


# --- CSV emitter ----------------------------------------------------------------


def _csv_reference(header, rows):
    """The per-value emitter the table formatting must match byte for byte."""
    return "".join(line + "\n" for line in [header] + [",".join(f"{x:.17g}" for x in row) for row in rows])


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_TABLES = st.sampled_from([1, 2, 3, 5]).flatmap(
    lambda k: st.lists(st.lists(_FLOATS, min_size=k, max_size=k), min_size=1, max_size=12)
)


@settings(max_examples=200, deadline=None)
@given(_TABLES)
def test_csv_matches_per_value_formatting(rows):
    header = ",".join(f"c{j}" for j in range(len(rows[0])))
    assert _csv(header, *zip(*rows)) == _csv_reference(header, rows)


# zeros of both signs, the smallest subnormal and normal, the largest finite
# values, integral floats at and past 2**53, and 17-digit ties (exact .25 and
# .75 steps that round half to even)
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 1.0, 1e16, float(2**53 + 1), 0.1, 1 / 3,
          1234567890123456.25, 1234567890123456.75]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_csv_edge_values_match_per_value_formatting(k):
    rows = [[_EDGES[(i + j) % len(_EDGES)] for j in range(k)] for i in range(len(_EDGES))]
    header = ",".join(f"c{j}" for j in range(k))
    assert _csv(header, *zip(*rows)) == _csv_reference(header, rows)
    assert _csv(header, *zip(rows[0])) == _csv_reference(header, rows[:1])
    assert _csv("t,tie", [0.0], [1234567890123456.25]) == "t,tie\n0,1234567890123456.2\n"


def _reference_columns(header, *columns):
    return _csv_reference(header, zip(*(np.asarray(c).tolist() for c in columns)))


def test_csv_matches_per_value_formatting_at_scale():
    # a million random bit patterns: mostly exponents past the long-double
    # power table, formatted by Python; then values of every decade the
    # block formatter writes itself, in every fixed-point layout and the
    # exponent form; both tables span many row blocks
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, 1_100_000, dtype=np.uint64).view(np.float64)
    columns = bits[np.isfinite(bits)][:1_000_002].reshape(-1, 3).T
    assert columns.shape == (3, 333_334)
    assert _csv("a,b,c", *columns) == _reference_columns("a,b,c", *columns)
    decades = rng.standard_normal(300_000) * 10.0 ** rng.integers(-14, 46, 300_000)
    assert _csv("a,b", decades[::2], decades[1::2]) == _reference_columns("a,b", decades[::2], decades[1::2])


def test_csv_matches_per_value_formatting_next_to_every_power_of_ten():
    # 10^k and its neighbours 1 and 2 ulp away on either side, where the
    # decimal exponent of the 17 digits and that of the double can differ
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers]
    for direction in (0.0, np.inf):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    values = np.concatenate(near)
    assert _csv("x,y", values, -values) == _reference_columns("x,y", values, -values)


def test_csv_matches_per_value_formatting_at_the_ends_of_the_float_range():
    big = np.finfo(float).max
    subnormal = np.arange(1, 2001) * 5e-324
    ends = np.array([0.0, -0.0, 2.2250738585072009e-308, 2.2250738585072014e-308, big, np.nextafter(big, 0)])
    values = np.concatenate([ends, subnormal, np.nextafter(2.2250738585072014e-308, 0) - subnormal])
    assert _csv("x,y", values, -values) == _reference_columns("x,y", values, -values)


def test_csv_rounds_exact_17_digit_ties_to_even():
    # 1234567890123456.25 + j/4 is exact, and every .25 and .75 is a tie
    # at the 17th digit
    ties = 1234567890123456.25 + np.arange(-400, 400) / 4
    assert _csv("x,y", ties, -ties) == _reference_columns("x,y", ties, -ties)
    assert _csv("x", [1234567890123456.75]) == "x\n1234567890123456.8\n"


@pytest.mark.parametrize("first", range(3))
def test_csv_names_the_first_non_finite_value_in_row_order(first):
    bad = [math.nan, math.inf, -math.inf]
    lead, rest = bad[first], bad[:first] + bad[first + 1:]
    # column order would meet rest[0] first; row order meets lead
    rows = [[1.0, 2.0, lead], [rest[0], 3.0, 4.0], [5.0, rest[1], 6.0]]
    with pytest.raises(SpecError, match=rf"^non-finite number {re.escape(str(lead))} cannot be serialized$"):
        _csv("a,b,c", *zip(*rows))


def test_non_finite_output_exits_2_and_writes_nothing(tmp_path, capsys):
    # two cells of value 1e308 each: their exact union sum overflows to inf
    model = tmp_path / "overflow.json"
    cell = {"drift": 1.0, "jumps": {"kind": "zero"}}
    model.write_text(json.dumps({
        "schema": 1,
        "levy": {"family": "delta", "params": {"drift": 1e308}},
        "subordinator": {"drift": 0.0, "jumps": {"kind": "zero"}},
        "seed_field": {"cells": [dict(cell, rect=[[0.0, 1.0], [0.0, 1.0]]),
                                 dict(cell, rect=[[1.0, 2.0], [0.0, 1.0]])]},
        "unions": [[0, 1]],
    }))
    out = tmp_path / "grid.csv"
    assert _run(["basis-sim", "--model", model, "--out", out]) == 2
    assert "non-finite number inf cannot be serialized" in capsys.readouterr().err
    assert not out.exists()
    assert os.listdir(tmp_path) == ["overflow.json"]


# --- determinism ------------------------------------------------------------------


def test_simulate_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--model", VG, "--dt", 0.01, "--horizon", 1.0, "--seed", 5]
    assert _run(args + ["--out", a]) == 0
    assert _run(args + ["--out", b]) == 0
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert data.startswith(b"t,value\n")
    assert data.endswith(b"\n")


def test_simulate_multi_path_naming_and_streams(tmp_path):
    out = tmp_path / "mp.csv"
    rc = _run(["simulate", "--model", VG, "--dt", 0.1, "--horizon", 1.0,
               "--seed", 5, "--n-paths", 2, "--out", out])
    assert rc == 0
    assert not out.exists()  # each path gets an indexed file instead
    p0, p1 = tmp_path / "mp.p0.csv", tmp_path / "mp.p1.csv"
    assert p0.exists() and p1.exists()
    assert p0.read_bytes() != p1.read_bytes()


def test_simulate_paths_each_match_their_per_value_reference(tmp_path):
    out = tmp_path / "mp.csv"
    assert _run(["simulate", "--model", VG, "--dt", 0.01, "--horizon", 5.0, "--seed", 9,
                 "--n-paths", 3, "--out", out]) == 0
    assert sorted(os.listdir(tmp_path)) == ["mp.p0.csv", "mp.p1.csv", "mp.p2.csv"]
    spec = load_model_spec(VG)
    paths = sample_subordinated(spec.levy, spec.subordinator, TimeGrid(0.0, 0.01, 500), SimConfig(9, 3))
    for k, path in enumerate(paths):
        want = _reference_columns("t,value", path.grid.times(), path.values)
        assert (tmp_path / f"mp.p{k}.csv").read_text() == want


def test_a_non_finite_value_in_any_path_writes_no_path(tmp_path, monkeypatch, capsys):
    grid = TimeGrid(0.0, 0.1, 3)
    bad = [PathSample(grid, np.array([0.0, 1.0, 2.0, v]), 0, k) for k, v in enumerate((3.0, 4.0, math.nan))]
    monkeypatch.setattr(cli, "sample_subordinated", lambda *args: bad)
    rc = _run(["simulate", "--model", VG, "--dt", 0.1, "--horizon", 0.3, "--n-paths", 3,
               "--out", tmp_path / "mp.csv"])
    assert rc == 2
    assert "non-finite number nan cannot be serialized" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_recover_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "ra.json", tmp_path / "rb.json"
    args = ["recover", "--model", VG, "--family", "gamma", "--dt", 1.0,
            "--horizon", 20000, "--seed", 3]
    assert _run(args + ["--out", a]) == 0
    assert _run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    ra = json.loads(a.read_text())
    assert sorted(ra) == ["beta0", "family", "n_obs", "n_starts_converged", "objective",
                          "params", "residual_max", "schema", "seed", "theta_grid"]
    assert ra["family"] == "gamma"
    assert ra["n_obs"] == 20000
    assert len(ra["params"]) == 2
    assert abs(ra["params"][0] - 1.0) < 0.3
    assert ra["theta_grid"][50] == 0


@pytest.mark.parametrize("command", ["mix", "subordinate"])
def test_mass_tables_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    # each table is one block of quadrature targets, whose K15 and G7 sums
    # are matrix products; fresh processes, since the pool is sized at import
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{command}.{threads}.json"
        env = {**_src_env(), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "levymix.cli", command, "--model", VG, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# --- model-spec validation ----------------------------------------------------------


def test_spec_unknown_field_dotted_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "levy": {"family": "gaussian", "params": {"mean": 0.0, "vriance": 1.0}},
        "subordinator": {"drift": 0.0, "jumps": {"kind": "zero"}},
    }))
    rc = _run(["cf", "--model", bad, "--out", tmp_path / "x.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "levy.params.vriance" in err
    assert "unknown field" in err


def test_spec_invalid_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "levy": {"family": "gaussian", "params": {"mean": 0.0, "variance": 1.0}},
        "subordinator": {"drift": -1.0, "jumps": {"kind": "zero"}},
    }))
    rc = _run(["cf", "--model", bad, "--out", tmp_path / "x.csv"])
    assert rc == 2
    assert "subordinator" in capsys.readouterr().err


def test_spec_wrong_schema_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": 2,
        "levy": {"family": "gaussian", "params": {"mean": 0.0, "variance": 1.0}},
        "subordinator": {"drift": 0.0, "jumps": {"kind": "zero"}},
    }))
    assert _run(["cf", "--model", bad, "--out", tmp_path / "x.csv"]) == 2
    assert "schema" in capsys.readouterr().err


# json.loads accepts NaN, Infinity and -Infinity, and keeps integer literals
# as ints however large; each is refused at parsing, naming its field.
@pytest.mark.parametrize("argv", [["cf"], ["mix"], ["subordinate"], ["simulate", "--dt", 0.1, "--horizon", 1]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("field, literal", [
    ("levy.params.variance", "Infinity"),
    ("levy.params.mean", "NaN"),
    ("subordinator.drift", "-Infinity"),
    ("subordinator.jumps.rate", "1" + "0" * 400),
], ids=["Infinity", "NaN", "-Infinity", "1e400"])
def test_non_finite_spec_number_exits_2_naming_its_field(tmp_path, capsys, argv, field, literal):
    key = field.rsplit(".", 1)[1]
    model = tmp_path / "bad.json"
    model.write_text(re.sub(rf'"{key}": [0-9.]+', f'"{key}": {literal}', VG_TEXT, count=1))
    out = tmp_path / "x.out"
    assert _run(argv + ["--model", model, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected a finite number")
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys):
    model = tmp_path / "bad.json"
    model.write_text(VG_TEXT.replace('"rate": 1.0', '"rate": 1' + "0" * 5000))
    assert _run(["cf", "--model", model, "--out", tmp_path / "x.csv"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_load_model_spec_round_trip():
    spec = load_model_spec(VG)
    assert spec.levy.law is not None
    assert spec.subordinator.drift == 0.0
    basis = load_model_spec(BASIS)
    assert basis.seed_field is not None
    assert len(basis.seed_field.cells) == 2
    assert list(basis.unions) == [(0, 1)]


# --- runtime failures -----------------------------------------------------------------


def test_numeric_failure_exits_3(tmp_path, capsys):
    # 100 observations put the CF's noise floor at 1, so branch tracking
    # has nothing to work with and the recover pipeline refuses
    rc = _run(["recover", "--model", VG, "--family", "gamma", "--dt", 1.0,
               "--horizon", 100, "--seed", 3, "--out", tmp_path / "r.json"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_jumpless_clock_fit_exits_3_naming_drift(tmp_path, capsys):
    # a Gaussian base under a pure-drift clock: at this seed the best gamma
    # fit has no jumps, and the refusal points at --family drift (at other
    # seeds the noise can favour a high-rate gamma clock that mimics a drift)
    model = tmp_path / "drift.json"
    model.write_text(json.dumps({
        "schema": 1,
        "levy": {"family": "gaussian", "params": {"mean": 0.0, "variance": 1.0}},
        "subordinator": {"drift": 1.5, "jumps": {"kind": "zero"}},
    }))
    args = ["recover", "--model", model, "--dt", 1.0, "--horizon", 200000, "--seed", 0]
    rc = _run(args + ["--family", "gamma", "--out", tmp_path / "g.json"])
    assert rc == 3
    assert "--family drift" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()
    assert _run(args + ["--family", "drift", "--out", tmp_path / "d.json"]) == 0
    report = json.loads((tmp_path / "d.json").read_text())
    assert abs(report["beta0"] - 1.5) < 0.01


def test_unidentified_clock_exits_3_naming_the_family(tmp_path):
    # 2000 increments of a stable-on-stable model: the best gamma fit drives
    # the rate to the lower end of the searched range. Run in a subprocess
    # with RuntimeWarning as an error, so that no warning passes unseen.
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "schema": 1,
        "levy": {"family": "symmetric_stable",
                 "params": {"alpha": 0.24391694186026586, "scale": 0.12288155453814241}},
        "subordinator": {"drift": 0.1286851624022666,
                         "jumps": {"kind": "one_sided_stable",
                                   "index": 0.24429181717961407, "coeff": 6.491665274502612}},
    }))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "levymix.cli", "recover",
         "--model", str(model), "--dt", "0.01", "--horizon", "20", "--family", "gamma",
         "--seed", "66", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert "gamma" in proc.stderr and "edge of the searched range" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("family", ["drift", "gamma"])
def test_deterministic_increments_recover_exits_3(tmp_path, capsys, family):
    # a point-mass base on a pure-drift clock: |phi| = 1 everywhere, so the
    # inverse-variance weights all vanish and there is nothing to fit
    model = tmp_path / "delta.json"
    model.write_text(json.dumps({
        "schema": 1,
        "levy": {"family": "delta", "params": {"drift": 1.0}},
        "subordinator": {"drift": 1.5, "jumps": {"kind": "zero"}},
    }))
    rc = _run(["recover", "--model", model, "--family", family, "--dt", 1.0,
               "--horizon", 2000, "--seed", 0, "--out", tmp_path / "r.json"])
    assert rc == 3
    assert "deterministic" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _model(path, levy, jumps):
    path.write_text(json.dumps({"schema": 1, "levy": levy, "subordinator": {"drift": 0.0, "jumps": jumps}}))
    return path


GAUSS = {"family": "gaussian", "params": {"mean": 0.0, "variance": 1.0}}


def test_stable_tail_cut_overflow_exits_3(tmp_path, capsys):
    # (coeff / (index tol))**(1/index) overflows a float at small indices
    gauss = _model(tmp_path / "g.json", GAUSS, {"kind": "one_sided_stable", "index": 0.01, "coeff": 1.0})
    for command in ("mix", "subordinate"):
        assert _run([command, "--model", gauss, "--out", tmp_path / "x.json"]) == 3
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()


def test_delta_base_masses_need_no_tail_cut(tmp_path, capsys):
    # a delta(-1) base's masses are the clock's closed-form interval masses:
    # the 0.05-stable clock's tail cut, which overflows, is never asked for
    delta = _model(tmp_path / "d.json", {"family": "delta", "params": {"drift": -1.0}},
                   {"kind": "one_sided_stable", "index": 0.05, "coeff": 1.0})
    want = [0.6356505785195452, 0.6580667477607633, 0.6812734215030893, 0.7052984768275508, 0.0, 0.0, 0.0, 0.0]
    for command, key in (("mix", "mixed_mass"), ("subordinate", "nu_bar")):
        assert _run([command, "--model", delta, "--out", tmp_path / "x.json"]) == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "x.json").read_text())
        assert [(row["lo"], row["hi"]) for row in report[key][:4]] == [(-8, -4), (-4, -2), (-2, -1), (-1, -0.5)]
        assert [row["mass"] for row in report[key]] == pytest.approx(want, rel=1e-14, abs=0.0)
    assert report["gamma_bar"] == pytest.approx(-1.0526315789473684, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("levy", [
    {"family": "delta", "params": {"drift": 0.0}},
    {"family": "symmetric_stable", "params": {"alpha": 0.7, "scale": 1.0}},
    {"family": "one_sided_stable", "params": {"alpha": 0.3, "coeff": 1.0}},
], ids=["delta0", "symmetric-stable0.7", "one-sided-stable0.3"])
def test_zero_clock_mixes_to_zero_in_mix_and_subordinate(tmp_path, capsys, levy):
    # no jumps and no drift: the subordinated process never moves, whatever
    # the base, so both commands give the same all-zero table
    model = _model(tmp_path / "z.json", levy, {"kind": "zero"})
    tables = {}
    for command, key in (("mix", "mixed_mass"), ("subordinate", "nu_bar")):
        out = tmp_path / f"{command}.json"
        assert _run([command, "--model", model, "--out", out]) == 0, capsys.readouterr().err
        tables[command] = json.loads(out.read_text())[key]
    assert tables["mix"] == tables["subordinate"]
    assert len(tables["mix"]) == 8 and all(row["mass"] == 0.0 for row in tables["mix"])


def test_stable_clock_next_to_index_one_exits_with_its_cause(tmp_path, capsys):
    # simulate: an index-1 clock has no finite variation and is refused at
    # the spec (below 1 the sampler is exact and runs, see
    # test_simulate_at_extreme_stable_indices); mix and subordinate: the
    # density overflows at every floor that bounds the dropped mass, or no
    # floor bounds it
    base = {"family": "gaussian", "params": {"mean": 0.5, "variance": 1.0}}
    runs = [(1.0, ["simulate", "--dt", 0.1, "--horizon", 2], 2, "must integrate (1 and x)")]
    runs += [(index, [command], 3, "lower cut") for index in (0.95, 0.99) for command in ("mix", "subordinate")]
    for index, argv, code, cause in runs:
        model = _model(tmp_path / f"s{index}.json", base, {"kind": "one_sided_stable", "index": index, "coeff": 1.0})
        assert _run(argv + ["--model", model, "--out", tmp_path / "x.out"]) == code
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err and "RuntimeWarning" not in err
        assert not (tmp_path / "x.out").exists()


def test_cf_at_huge_theta_stays_finite(tmp_path, capsys):
    # the gamma clock's log|1 + w| at |w| past 1e154, where w squared
    # overflows: N(0, 1) under gamma(1, 1) has log-CF -log(1 + theta^2 / 2)
    out = tmp_path / "cf.csv"
    rc = _run(["cf", "--model", VG, "--theta-min", 1e77, "--theta-max", 1e78, "--theta-steps", 3, "--out", out])
    assert rc == 0, capsys.readouterr().err
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().split()[1:]]
    for theta, re_part, im_part in rows:
        assert re_part == pytest.approx(-math.log(0.5 * theta * theta), rel=1e-14, abs=0.0)
        assert im_part == 0.0


@pytest.mark.parametrize("clock, want", [
    # rate 100: the compound exponential's exponent tends to -rate
    ({"kind": "compound_exponential", "rate": 100.0, "jump_rate": 1.0}, -100.0),
    # shape 1, rate 0.01: -log|1 - z / rate| with |z| = 1e307
    ({"kind": "gamma", "shape": 1.0, "rate": 0.01}, -(math.log(1e307) - math.log(0.01))),
], ids=["compound-exponential", "gamma"])
def test_clock_exponent_of_a_base_exponent_near_the_float_limit_is_finite(tmp_path, capsys, clock, want):
    # a one-sided stable base of index 1e-299 and coeff 1e8 has a log-CF of
    # about -1e307 at every theta != 0; the clock's Laplace integral there is
    # finite, though rate * z and z / rate overflow
    base = {"family": "one_sided_stable", "params": {"alpha": 1e-299, "coeff": 1e8}}
    model = _model(tmp_path / "m.json", base, clock)
    out = tmp_path / "cf.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = _run(["cf", "--model", model, "--theta-steps", 5, "--out", out])
    assert rc == 0, capsys.readouterr().err
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().split()[1:]]
    assert [row[0] for row in rows] == [-10.0, -5.0, 0.0, 5.0, 10.0]
    for theta, re_part, im_part in rows:
        assert re_part == (0.0 if theta == 0.0 else pytest.approx(want, rel=1e-14, abs=0.0))
        assert abs(im_part) <= 1e-290


@pytest.mark.parametrize("index", [0.01, 0.05, 0.97, 0.99])
@pytest.mark.parametrize("base", [GAUSS, {"family": "poisson", "params": {"rate": 1.0, "jump_size": -2.0}}],
                         ids=["gaussian", "poisson"])
def test_simulate_at_extreme_stable_indices(tmp_path, capsys, base, index):
    # the exact clock sampler runs at every index in (0, 1): a run ends in
    # a finite path, or in exit 3 when a draw leaves the float range or
    # passes the Poisson sampler's limit, never in a traceback or a warning
    model = _model(tmp_path / "m.json", base, {"kind": "one_sided_stable", "index": index, "coeff": 1.0})
    out = tmp_path / "x.csv"
    for seed in range(3):
        rc = _run(["simulate", "--model", model, "--dt", 0.1, "--horizon", 2, "--seed", seed, "--out", out])
        err = capsys.readouterr().err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        if rc == 0:
            assert all(math.isfinite(float(v)) for line in out.read_text().split()[1:] for v in line.split(","))
            out.unlink()
        else:
            assert rc == 3 and not out.exists()


def test_symmetric_stable_base_at_a_tiny_index_simulates(tmp_path, capsys):
    # an index-0.01 base under a gamma(1, 1) clock: its draws are taken in
    # logs, so the run ends in a finite path, not a warning and exit 3
    model = _model(tmp_path / "m.json", {"family": "symmetric_stable", "params": {"alpha": 0.01, "scale": 1.0}},
                   {"kind": "gamma", "shape": 1.0, "rate": 1.0})
    out = tmp_path / "x.csv"
    assert _run(["simulate", "--model", model, "--dt", 0.01, "--horizon", 100, "--seed", 0, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert all(math.isfinite(float(v)) for line in out.read_text().split()[1:] for v in line.split(","))


@pytest.mark.parametrize("command", ["cf", "subordinate", "mix"])
def test_seed_flag_only_on_commands_that_draw(tmp_path, capsys, command):
    # cf, subordinate and mix draw nothing, so they take no --seed
    with pytest.raises(SystemExit) as exc:
        _run([command, "--model", VG, "--seed", 0, "--out", tmp_path / "x.out"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


def test_epsilon_flag_is_gone(tmp_path, capsys):
    # every clock draws exactly, so there is no truncation level to pass
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--model", VG, "--dt", 0.1, "--horizon", 1, "--epsilon", 0.01, "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


def test_poisson_mean_past_sampler_limit_exits_3(tmp_path, capsys):
    # numpy refuses Poisson means above about 9.2e18; the samplers say so first
    cases = (
        (_model(tmp_path / "p.json", {"family": "poisson", "params": {"rate": 1.0, "jump_size": -2.0}},
                {"kind": "one_sided_stable", "index": 0.05, "coeff": 1.0}), 0.1),
        (_model(tmp_path / "a.json", GAUSS, {"kind": "atomic", "atoms": [[1e-20, 1e20]]}), 1.0),
        (_model(tmp_path / "c.json", GAUSS, {"kind": "compound_exponential", "rate": 1e20, "jump_rate": 1e20}), 1.0),
    )
    for model, dt in cases:
        rc = _run(["simulate", "--model", model, "--dt", dt, "--horizon", 2, "--seed", 0,
                   "--out", tmp_path / "x.csv"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "Poisson mean" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


# Modules no command below may load: scipy.special (with the numpy.f2py and
# numpy.testing it pulls in) loads on first use, for subordinate and mix only.
LAZY_MODULES = ("scipy.special", "scipy.optimize", "scipy.integrate", "scipy.signal", "scipy.fft",
                "numpy.f2py", "numpy.testing")


@pytest.mark.parametrize("argv", [
    None,
    ["cf", "--model", VG],
    ["simulate", "--model", VG, "--dt", "0.1", "--horizon", "10"],
    ["recover", "--model", VG, "--family", "gamma", "--dt", "1.0", "--horizon", "2000", "--seed", "3"],
    ["lss-sim", "--model", VG, "--dt", "0.05", "--horizon", "2", "--seed", "2"],
    ["basis-sim", "--model", BASIS],
], ids=lambda argv: argv[0] if argv else "import")
def test_import_budget(tmp_path, argv):
    # one fresh interpreter per case: import levymix.cli, count the parsers
    # the import built, run the command, and list what it loaded of LAZY_MODULES
    run = f"rc = main({argv + ['--out', str(tmp_path / 'x.out')]!r})" if argv else "rc = 0"
    code = (f"import sys; from levymix.cli import _build_parser, main; "
            f"built = _build_parser.cache_info().currsize; {run}; "
            f"print(rc, built, sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 0 []"


@pytest.mark.parametrize("command", ["cf", "simulate", "subordinate", "mix"])
@pytest.mark.parametrize("index, coeff, causes", [
    (1e-299, 1e10, {"cf": "Laplace exponent", "subordinate": "overflows a float", "mix": "overflows a float"}),
    (0.1, 1e308, {"cf": "Laplace exponent", "subordinate": "lower cut", "mix": "lower cut"}),
], ids=["tiny-index", "huge-coeff"])
def test_stable_clock_past_the_float_range_exits_3_naming_its_cause(tmp_path, capsys, command, index, coeff, causes):
    # one_wedge(1) overflows for these clocks, yet they have finite variation:
    # each command gets past the clock's check and refuses by the true cause
    model = _model(tmp_path / "m.json", GAUSS, {"kind": "one_sided_stable", "index": index, "coeff": coeff})
    flags = ["--dt", 0.1, "--horizon", 1] if command == "simulate" else []
    assert _run([command, "--model", model, "--out", tmp_path / "x.out"] + flags) == 3
    err = capsys.readouterr().err
    assert causes.get(command, "past the float range") in err
    assert "must integrate" not in err and "Traceback" not in err
    assert not (tmp_path / "x.out").exists()


def test_unwritable_out_exits_4(tmp_path, capsys):
    rc = _run(["cf", "--model", VG, "--out", tmp_path / "no_dir" / "x.csv"])
    assert rc == 4


def test_missing_model_exits_4(tmp_path):
    rc = _run(["cf", "--model", tmp_path / "none.json", "--out", tmp_path / "x.csv"])
    assert rc == 4


def test_config_error_exits_2(tmp_path):
    rc = _run(["simulate", "--model", VG, "--dt", 0.1, "--horizon", 0.0,
               "--out", tmp_path / "x.csv"])
    assert rc == 2
    # a 0.7-stable clock samples exactly at any size; the refusal that
    # remains for it is a configuration one: no paths to draw
    model = tmp_path / "stable07.json"
    model.write_text(json.dumps({
        "schema": 1,
        "levy": {"family": "gaussian", "params": {"mean": 0.0, "variance": 1.0}},
        "subordinator": {"drift": 0.0, "jumps": {"kind": "one_sided_stable", "index": 0.7, "coeff": 1.0}},
    }))
    rc = _run(["simulate", "--model", model, "--dt", 0.01, "--horizon", 100.0, "--n-paths", 0,
               "--out", tmp_path / "y.csv"])
    assert rc == 2
    assert not (tmp_path / "y.csv").exists()


# Every case fails on its flags before an array is built.
@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--dt", 0, "--horizon", 1], "--dt"),
    (["simulate", "--dt", "nan", "--horizon", 1], "--dt"),
    (["recover", "--family", "gamma", "--dt=-inf", "--horizon", 1], "--dt"),
    (["simulate", "--dt", 0.1, "--horizon", "inf"], "--horizon"),
    (["simulate", "--dt", 0.1, "--horizon=-inf"], "--horizon"),
    (["simulate", "--dt", 0.1, "--horizon", "nan"], "--horizon"),
    (["simulate", "--dt", 1e-320, "--horizon", 1], "--horizon"),
    (["simulate", "--dt", 1e-8, "--horizon", 1], "--horizon"),
    (["lss-sim", "--dt", 0.1, "--horizon", 1, "--burn-in", "inf"], "--burn-in"),
    (["lss-sim", "--dt", 0.1, "--horizon", 1, "--burn-in", 1e9], "--burn-in"),
    (["cf", "--theta-steps", 10_000_001], "--theta-steps"),
])
def test_grid_flags_out_of_range_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.out"
    assert _run(argv + ["--model", VG, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}")
    assert not out.exists()


# --- other commands --------------------------------------------------------------------


def test_mix_command_writes_masses(tmp_path):
    out = tmp_path / "mix.json"
    rc = _run(["mix", "--model", VG, "--out", out])
    assert rc == 0
    report = json.loads(out.read_text())
    masses = report["mixed_mass"]
    assert all(row["mass"] >= 0.0 for row in masses)
    assert all(row["lo"] < row["hi"] for row in masses)


def test_lss_sim_command(tmp_path):
    out = tmp_path / "y.csv"
    rc = _run(["lss-sim", "--model", VG, "--dt", 0.05, "--horizon", 2.0,
               "--seed", 2, "--out", out])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 42  # header + 41 grid points


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "levymix.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for cmd in ("cf", "subordinate", "mix", "simulate", "recover", "basis-sim", "lss-sim"):
        assert cmd in proc.stdout
