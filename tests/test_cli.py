"""Command-line contract: golden outputs, determinism, and exit codes.

The golden files under tests/golden/ pin byte-exact output for three
commands; correctness of the numbers themselves is covered by the library
tests, so these catch any drift in serialization, seeding, or defaults.
"""
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
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


def _csv_text(header, *columns):
    """What _csv writes, joined."""
    chunks = []
    _csv(chunks.append, header, *columns)
    return b"".join(chunks).decode("ascii")


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
    assert _csv_text(header, *zip(*rows)) == _csv_reference(header, rows)


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
    assert _csv_text(header, *zip(*rows)) == _csv_reference(header, rows)
    assert _csv_text(header, *zip(rows[0])) == _csv_reference(header, rows[:1])
    assert _csv_text("t,tie", [0.0], [1234567890123456.25]) == "t,tie\n0,1234567890123456.2\n"


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
    assert _csv_text("a,b,c", *columns) == _reference_columns("a,b,c", *columns)
    decades = rng.standard_normal(300_000) * 10.0 ** rng.integers(-14, 46, 300_000)
    assert _csv_text("a,b", decades[::2], decades[1::2]) == _reference_columns("a,b", decades[::2], decades[1::2])


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
    assert _csv_text("x,y", values, -values) == _reference_columns("x,y", values, -values)


def test_csv_matches_per_value_formatting_at_the_ends_of_the_float_range():
    big = np.finfo(float).max
    subnormal = np.arange(1, 2001) * 5e-324
    ends = np.array([0.0, -0.0, 2.2250738585072009e-308, 2.2250738585072014e-308, big, np.nextafter(big, 0)])
    values = np.concatenate([ends, subnormal, np.nextafter(2.2250738585072014e-308, 0) - subnormal])
    assert _csv_text("x,y", values, -values) == _reference_columns("x,y", values, -values)


def test_csv_rounds_exact_17_digit_ties_to_even():
    # 1234567890123456.25 + j/4 is exact, and every .25 and .75 is a tie
    # at the 17th digit
    ties = 1234567890123456.25 + np.arange(-400, 400) / 4
    assert _csv_text("x,y", ties, -ties) == _reference_columns("x,y", ties, -ties)
    assert _csv_text("x", [1234567890123456.75]) == "x\n1234567890123456.8\n"


@pytest.mark.parametrize("first", range(3))
def test_csv_names_the_first_non_finite_value_in_row_order(first):
    bad = [math.nan, math.inf, -math.inf]
    lead, rest = bad[first], bad[:first] + bad[first + 1:]
    # column order would meet rest[0] first; row order meets lead
    rows = [[1.0, 2.0, lead], [rest[0], 3.0, 4.0], [5.0, rest[1], 6.0]]
    with pytest.raises(SpecError, match=rf"^non-finite number {re.escape(str(lead))} cannot be serialized$"):
        _csv_text("a,b,c", *zip(*rows))


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


@pytest.mark.parametrize("n_paths, n_steps", [(2, 2047), (3, 1500), (1, 3000)],
                         ids=["on-a-block-edge", "inside-blocks", "one-long-path"])
def test_paths_split_at_block_edges_each_match_their_reference(tmp_path, n_paths, n_steps):
    # 2 x 2,048 rows put the file boundary on a row-block edge; 3 x 1,501
    # rows put both boundaries inside blocks; 3,001 rows span two blocks
    out = tmp_path / "mp.csv"
    assert _run(["simulate", "--model", VG, "--dt", 0.01, "--horizon", n_steps / 100, "--seed", 4,
                 "--n-paths", n_paths, "--out", out]) == 0
    spec = load_model_spec(VG)
    paths = sample_subordinated(spec.levy, spec.subordinator, TimeGrid(0.0, 0.01, n_steps), SimConfig(4, n_paths))
    names = [f"mp.p{k}.csv" for k in range(n_paths)] if n_paths > 1 else ["mp.csv"]
    assert sorted(os.listdir(tmp_path)) == names
    for name, path in zip(names, paths if n_paths > 1 else [paths]):
        assert len(path.values) == n_steps + 1
        assert (tmp_path / name).read_text() == _reference_columns("t,value", path.grid.times(), path.values)


def test_a_failure_while_streaming_leaves_only_complete_files(tmp_path, monkeypatch, capsys):
    # the third block fails after the first path's 3,001 rows and part of
    # the second's are written: the first file is in place, whole, and the
    # second's temporary is gone
    real, calls = cli._block_bytes, []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(*args)

    monkeypatch.setattr(cli, "_block_bytes", failing)
    assert _run(["simulate", "--model", VG, "--dt", 0.01, "--horizon", 30, "--seed", 4, "--n-paths", 2,
                 "--out", tmp_path / "mp.csv"]) == 4
    assert "disk full" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["mp.p0.csv"]
    spec = load_model_spec(VG)
    paths = sample_subordinated(spec.levy, spec.subordinator, TimeGrid(0.0, 0.01, 3000), SimConfig(4, 2))
    want = _reference_columns("t,value", paths[0].grid.times(), paths[0].values)
    assert (tmp_path / "mp.p0.csv").read_text() == want


_DIGEST_BASES = {
    "gaussian": {"family": "gaussian", "params": {"mean": 0.25, "variance": 1.0}},
    "cauchy": {"family": "cauchy", "params": {"scale": 1.0}},
    "symstable": {"family": "symmetric_stable", "params": {"alpha": 1.5, "scale": 1.0}},
    "poisson": {"family": "poisson", "params": {"rate": 1.0, "jump_size": 1.0}},
    "delta": {"family": "delta", "params": {"drift": 1.5}},
}
_DIGEST_CLOCKS = {
    "gamma": {"kind": "gamma", "shape": 2.0, "rate": 3.0},
    "stable03": {"kind": "one_sided_stable", "index": 0.3, "coeff": 1.0},
    "stable05": {"kind": "one_sided_stable", "index": 0.5, "coeff": 0.5},
    "cpexp": {"kind": "compound_exponential", "rate": 2.0, "jump_rate": 1.5},
    "atomic": {"kind": "atomic", "atoms": [[1.0, 1.0], [0.5, 2.0]]},
}
# sha256 of each file of `--seed 7 --dt 0.1 --horizon 100 --n-paths 2`
# (basis-sim: one file), frozen when every sampler route was first pinned
_DIGESTS = {
    "gaussian-gamma": ("b4ecb85cc2880ed5f3b44f5e1ce23ea3ebed7940de4401eed82548433f3c07b6",
                       "7b7b9bb4da3d5c016b3f8db0cd469f3bd8f3fa77f4a7b6649940f06d85fecec1"),
    "gaussian-stable03": ("7c57baa553ffcd22db85cb3f36c35c22ecc67d3293777d157274aef88fc9d787",
                          "4948fcad32a9db6e4d13eb530ff2bccb96ae039e12edbc8fcdb5084383c43869"),
    "gaussian-stable05": ("77cd9dae7ceeaf660e1b1ea67acbbb4d222b539a76e2c6c98493e5abb78a6d27",
                          "64fac8c44adf60eabe618663a737c52a07fdfd06d7ed5f75883df6f9f51c83e7"),
    "gaussian-cpexp": ("773a882e70ba45332dca01cfeefcb47f175a57547fde84645cc42a2f67cdb023",
                       "93f2c0a78a819c853454e6d73a74fd065261ee6196b4e56c7f82d1944572e9ac"),
    "gaussian-atomic": ("061f25461de65117d3eb175f27aa6e8d257b75591e6d6fdc1014bb399512d049",
                        "b6271cefd0f6e7d42dedeebc306e8506c79f32f35ae3ea56932f5b3ec60f99fb"),
    "cauchy-gamma": ("dda0538c66955806dcd9034669c5fa751c2a4b7a3ffcfe5b03ebe59c8fa75df2",
                     "e81e8ce19024a56301997746c533f0e848e6dfbc83fb98ea31ac39bfabe52bf6"),
    "cauchy-stable03": ("d6b88a9b2f9768ec8c774d14c87c66ba8a01554abf272a23c4f3ef41e820fb62",
                        "0e1a24035f9c68d98745999b24c35ef4732481765a0cfde7a26a3add56cc247c"),
    "cauchy-stable05": ("ad0f4b00678c8f0fdce19b0e9268443382e8f8d76c92e52a115fc126ff81a8e3",
                        "711446c98cf55a338dbf2729253298bea6afd525adcc6b2641e23908ff60028b"),
    "cauchy-cpexp": ("b959e013964b4e286ef5ac4b298cca3de3e849f75b482e933d0d918c6a7116a4",
                     "0597fb2c2621349dd7d3a3076da80d593c57fa8e9fa22faca554971ef2921791"),
    "cauchy-atomic": ("a206a6b9df210ac7376d23d0cb51040f0c0bd4c9858253eba46cf5e89c837b16",
                      "1e1b08adc30cc62159ad520233ecd030a5b332bfaf411ad312fd2c059162ae68"),
    "symstable-gamma": ("c85ccb1a10138dab5889d3fad8bbc5fddc34d2ec2dcd5db448fb72756e27a530",
                        "b0c48b1fada93eefcb696adb724d26ac67c336352043ba3ba1afa63573bc450c"),
    "poisson-gamma": ("7d98437bca4a356285bc6c5c2f78b0c8813e7ef5f022fef5714f7f8403b46c14",
                      "db1c060b0dfcc9657d4410258e4f3cacba7d231048e1235d3d879bad06f9da88"),
    "delta-gamma": ("510dc403a5c9e24880910b8b425e1662a327bf4cfabf1aaf4bc7b301c9956693",
                    "91e53da22e7c20b3e13fab6e74c31e504c410be170b7eb4c079b5e040c829f0a"),
    "lss-sim-basis": ("9f18cb9e991707556fc599467687c59507de75e1e5d23265bd5f2c71fa5f71da",
                      "9f18cb9e991707556fc599467687c59507de75e1e5d23265bd5f2c71fa5f71da"),
    "lss-sim-vg": ("b162efc773cf116014a966333f11cb136e37e10b4cb34f770d068ad7feae6fd9",
                   "d0be110d68f92c76d0cf2d8f6c398ac628d0f945e48707e11951bc250c1578f3"),
    "basis-sim": ("d2640902530a8d34fa0950779ad415e3f41bcd7bc384ced2ba62292ec15dd38c",),
}


@pytest.mark.parametrize("case", list(_DIGESTS))
def test_every_sampler_route_writes_its_frozen_bytes(tmp_path, case):
    out = tmp_path / "out.csv"
    flags = ["--seed", 7, "--dt", 0.1, "--horizon", 100, "--n-paths", 2, "--out", out]
    if case == "basis-sim":
        argv = ["basis-sim", "--model", BASIS, "--seed", 7, "--out", out]
    elif case.startswith("lss-sim-"):
        argv = ["lss-sim", "--model", MODELS / f"{case[len('lss-sim-'):]}.json"] + flags
    else:
        base, clock = case.split("-")
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"schema": 1, "levy": _DIGEST_BASES[base],
                                     "subordinator": {"drift": 0.1, "jumps": _DIGEST_CLOCKS[clock]}}))
        argv = ["simulate", "--model", model] + flags
    assert _run(argv) == 0
    files = [out] if case == "basis-sim" else [tmp_path / f"out.p{k}.csv" for k in range(2)]
    assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files) == _DIGESTS[case]


@pytest.mark.parametrize("clock", ["gamma", "stable03", "stable05", "cpexp", "atomic"])
def test_a_written_path_peaks_at_48_bytes_per_step(tmp_path, clock):
    # the traced peak of the whole command, the path itself (8 bytes a
    # step) and its times column (8) included; the CSV text is streamed
    n = 100_000
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"schema": 1, "levy": GAUSS,
                                 "subordinator": {"drift": 0.1, "jumps": _DIGEST_CLOCKS[clock]}}))
    argv = ["simulate", "--model", model, "--seed", 3, "--dt", 0.01, "--horizon", n / 100, "--out", tmp_path / "p.csv"]
    assert _run(argv) == 0  # warm: lazy imports and caches are not the path's
    tracemalloc.start()
    try:
        assert _run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * n, f"{peak / n:.1f} bytes per step"


def test_a_cf_table_peaks_at_48_bytes_per_theta(tmp_path):
    n = 100_000
    argv = ["cf", "--model", VG, "--theta-steps", n, "--out", tmp_path / "cf.csv"]
    assert _run(argv) == 0
    tracemalloc.start()
    try:
        assert _run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * n, f"{peak / n:.1f} bytes per theta"


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


def test_out_that_is_a_directory_exits_4_and_leaves_no_temporary(tmp_path):
    out = tmp_path / "taken"
    out.mkdir()
    assert _run(["mix", "--model", VG, "--out", out]) == 4
    assert sorted(os.listdir(tmp_path)) == ["taken"] and os.listdir(out) == []


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


BASIS_DOC = json.loads((MODELS / "basis.json").read_text())


@pytest.mark.parametrize("command, doc, message", [
    ("mix", dict(json.loads(VG_TEXT), partition=[-1.0, 1.0]), "partition: no usable intervals"),
    ("basis-sim", json.loads(VG_TEXT), "seed_field: required for basis-sim"),
    ("basis-sim", dict(BASIS_DOC, seed_field={"cells": [dict(BASIS_DOC["seed_field"]["cells"][0], rect=[[0.0, 1.0]])]}),
     "seed_field.cells: basis-sim writes 2-D grids"),
    ("basis-sim", dict(BASIS_DOC, unions=[[0, 2]]), r"union index 2 is not a cell index in \[0, 2\)"),
], ids=["partition-all-straddling-0", "basis-sim-without-seed-field", "basis-sim-1d-rect",
        "union-index-past-the-cells"])
def test_a_model_its_command_cannot_use_exits_2(tmp_path, capsys, command, doc, message):
    model, out = tmp_path / "model.json", tmp_path / "x.out"
    model.write_text(json.dumps(doc))
    assert _run([command, "--model", model, "--out", out]) == 2
    assert re.match(f"error: {message}", capsys.readouterr().err)
    assert not out.exists()


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
    (["cf", "--theta-min", 1, "--theta-max", 1], "--theta-max"),
    (["simulate", "--horizon", 1], "--dt"),
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
