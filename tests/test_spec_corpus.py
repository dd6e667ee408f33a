"""Malformed model files: each one exits 2 with its exact message.

``MALFORMED`` takes every branch of the model-file parser once: a wrong
type, an unknown or missing field, a number that is not one, an unknown
family or kind, a bad atom or edge shape, a library refusal wrapped at its
section (domain, finite variation, overlap, mixed dimensions), and each
partition, unions and kernel error. A document is a dict written as JSON,
or the raw bytes of the file; ``{path}`` in a message stands for the file.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from levymix.cli import main

HERE = Path(__file__).parent

GAUSS = {"family": "gaussian", "params": {"mean": 0.0, "variance": 1.0}}
CLOCK = {"drift": 0.0, "jumps": {"kind": "gamma", "shape": 1.0, "rate": 1.0}}
CELL = {"rect": [[0.0, 1.0], [0.0, 1.0]], "drift": 1.0, "jumps": {"kind": "zero"}}
DROP = object()


def _with(base, **fields):
    """base with fields replaced; a field given DROP is removed."""
    out = {**base, **fields}
    return {k: v for k, v in out.items() if v is not DROP}


def _doc(**sections):
    return _with({"schema": 1, "levy": GAUSS, "subordinator": CLOCK}, **sections)


def _levy(**params):
    return _doc(levy={"family": "gaussian", "params": _with(GAUSS["params"], **params)})


def _jumps(**jumps):
    return _doc(subordinator={"drift": 0.0, "jumps": jumps})


def _cells(*cells):
    return _doc(seed_field={"cells": list(cells)})


def _cell(**fields):
    return _cells(_with(CELL, **fields))


_CASES = [
    # the document
    ("not-json", b"{", "{path}: not valid JSON (Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1))"),
    ("not-an-object", [], "model spec must be a JSON object"),
    ("unknown-top-field", _doc(extra=1), "extra: unknown field"),
    ("missing-schema", _doc(schema=DROP), "schema: missing required field"),
    ("wrong-schema", _doc(schema=2), "schema: expected 1, got 2"),
    ("bool-schema", _doc(schema=True), "schema: expected 1, got True"),
    ("float-schema", _doc(schema=1.0), "schema: expected 1, got 1.0"),
    ("missing-levy", _doc(levy=DROP), "levy: missing required field"),
    ("missing-subordinator", _doc(subordinator=DROP), "subordinator: missing required field"),
    # levy
    ("levy-not-object", _doc(levy=[]), "levy: expected an object"),
    ("levy-unknown-field", _doc(levy=_with(GAUSS, extra=1)), "levy.extra: unknown field"),
    ("levy-missing-family", _doc(levy=_with(GAUSS, family=DROP)), "levy.family: missing required field"),
    ("levy-unknown-family", _doc(levy=_with(GAUSS, family="normal")), "levy.family: unknown family 'normal'"),
    ("levy-missing-params", _doc(levy=_with(GAUSS, params=DROP)), "levy.params: missing required field"),
    ("levy-params-not-object", _doc(levy=_with(GAUSS, params=[0.0, 1.0])), "levy.params: expected an object"),
    ("levy-unknown-param", _levy(vriance=1.0), "levy.params.vriance: unknown field"),
    ("levy-missing-param", _levy(variance=DROP), "levy.params.variance: missing required field"),
    ("levy-param-string", _levy(mean="0"), "levy.params.mean: expected a number"),
    ("levy-param-bool", _levy(mean=True), "levy.params.mean: expected a number"),
    ("levy-param-nan", _levy(mean=float("nan")), "levy.params.mean: expected a finite number, got nan"),
    ("levy-domain", _levy(variance=-1.0), "levy: variance must be > 0 (use delta_law for a point mass)"),
    # subordinator
    ("clock-not-object", _doc(subordinator=1.0), "subordinator: expected an object"),
    ("clock-unknown-field", _doc(subordinator=_with(CLOCK, weight=1.0)), "subordinator.weight: unknown field"),
    ("clock-missing-drift", _doc(subordinator=_with(CLOCK, drift=DROP)), "subordinator.drift: missing required field"),
    ("clock-drift-string", _doc(subordinator=_with(CLOCK, drift="0")), "subordinator.drift: expected a number"),
    ("clock-missing-jumps", _doc(subordinator=_with(CLOCK, jumps=DROP)), "subordinator.jumps: missing required field"),
    ("clock-negative-drift", _doc(subordinator=_with(CLOCK, drift=-1.0)),
     "subordinator: subordinator drift must be >= 0"),
    ("clock-finite-variation", _jumps(kind="one_sided_stable", index=1.5, coeff=1.0),
     "subordinator: subordinator jumps must integrate (1 and x)"),
    ("clock-negative-jumps", _jumps(kind="atomic", atoms=[[-1.0, 1.0]]),
     "subordinator: subordinator jumps must live on (0, inf)"),
    # jumps
    ("jumps-not-object", _doc(subordinator=_with(CLOCK, jumps="gamma")), "subordinator.jumps: expected an object"),
    ("jumps-missing-kind", _jumps(shape=1.0, rate=1.0), "subordinator.jumps.kind: missing required field"),
    ("jumps-unknown-kind", _jumps(kind="beta"), "subordinator.jumps.kind: unknown measure kind 'beta'"),
    ("jumps-kind-list", _jumps(kind=["gamma"]), "subordinator.jumps.kind: unknown measure kind ['gamma']"),
    ("zero-unknown-field", _jumps(kind="zero", shape=1.0), "subordinator.jumps.shape: unknown field"),
    ("gamma-unknown-field", _jumps(kind="gamma", shape=1.0, scale=1.0), "subordinator.jumps.scale: unknown field"),
    ("gamma-missing-field", _jumps(kind="gamma", shape=1.0), "subordinator.jumps.rate: missing required field"),
    ("gamma-string", _jumps(kind="gamma", shape="1", rate=1.0), "subordinator.jumps.shape: expected a number"),
    ("gamma-domain", _jumps(kind="gamma", shape=-1.0, rate=1.0), "subordinator.jumps: shape must be > 0"),
    ("stable-domain", _jumps(kind="one_sided_stable", index=2.5, coeff=1.0),
     "subordinator.jumps: index must lie in (0, 2)"),
    ("stable-index-floor", _jumps(kind="one_sided_stable", index=5e-324, coeff=1.0),
     "subordinator.jumps: a stable index of 4.94e-324 is below 1e-299, the smallest with finite closed forms"),
    ("cpexp-domain", _jumps(kind="compound_exponential", rate=0.0, jump_rate=1.0),
     "subordinator.jumps: rate must be > 0"),
    ("cpexp-infinite", _jumps(kind="compound_exponential", rate=1.0, jump_rate=float("inf")),
     "subordinator.jumps.jump_rate: expected a finite number, got inf"),
    ("atomic-unknown-field", _jumps(kind="atomic", atoms=[[1.0, 1.0]], rate=1.0),
     "subordinator.jumps.rate: unknown field"),
    ("atomic-missing-atoms", _jumps(kind="atomic"), "subordinator.jumps.atoms: missing required field"),
    ("atoms-not-list", _jumps(kind="atomic", atoms={"1": 1.0}), "subordinator.jumps.atoms: expected a nonempty list"),
    ("atoms-empty", _jumps(kind="atomic", atoms=[]), "subordinator.jumps.atoms: expected a nonempty list"),
    ("atom-not-list", _jumps(kind="atomic", atoms=[1.0]), "subordinator.jumps.atoms[0]: expected [position, mass]"),
    ("atom-too-long", _jumps(kind="atomic", atoms=[[1.0, 1.0], [2.0, 1.0, 0.0]]),
     "subordinator.jumps.atoms[1]: expected [position, mass]"),
    ("atom-string", _jumps(kind="atomic", atoms=[[1.0, "1"]]), "subordinator.jumps.atoms[0][1]: expected a number"),
    ("atom-at-zero", _jumps(kind="atomic", atoms=[[0.0, 1.0]]), "subordinator.jumps: atom positions must be nonzero"),
    ("atom-negative-mass", _jumps(kind="atomic", atoms=[[1.0, -1.0]]),
     "subordinator.jumps: atom masses must be positive"),
    # seed_field
    ("field-not-object", _doc(seed_field=[CELL]), "seed_field: expected an object"),
    ("field-unknown-field", _doc(seed_field={"cells": [CELL], "unions": []}), "seed_field.unions: unknown field"),
    ("field-missing-cells", _doc(seed_field={}), "seed_field.cells: missing required field"),
    ("cells-not-list", _doc(seed_field={"cells": CELL}), "seed_field.cells: expected a nonempty list"),
    ("cells-empty", _cells(), "seed_field.cells: expected a nonempty list"),
    ("cell-not-object", _cells(CELL, [[0.0, 1.0]]), "seed_field.cells[1]: expected an object"),
    ("cell-unknown-field", _cell(kind="zero"), "seed_field.cells[0].kind: unknown field"),
    ("cell-missing-rect", _cell(rect=DROP), "seed_field.cells[0].rect: missing required field"),
    ("rect-three-edges", _cell(rect=[[0.0, 1.0]] * 3),
     "seed_field.cells[0].rect: expected [[lo, hi]] or [[lo, hi], [lo, hi]]"),
    ("rect-not-list", _cell(rect="unit"), "seed_field.cells[0].rect: expected [[lo, hi]] or [[lo, hi], [lo, hi]]"),
    ("edge-bad-shape", _cell(rect=[[0.0, 1.0], [0.0]]), "seed_field.cells[0].rect[1]: expected [lo, hi]"),
    ("edge-string", _cell(rect=[[0.0, 1.0], ["0", 1.0]]), "seed_field.cells[0].rect[1][0]: expected a number"),
    ("weight-string", _cell(weight="2"), "seed_field.cells[0].weight: expected a number"),
    ("cell-missing-drift", _cell(drift=DROP), "seed_field.cells[0].drift: missing required field"),
    ("cell-missing-jumps", _cell(jumps=DROP), "seed_field.cells[0].jumps: missing required field"),
    ("cell-jumps-kind", _cell(jumps={"kind": "beta"}), "seed_field.cells[0].jumps.kind: unknown measure kind 'beta'"),
    ("cell-degenerate-edge", _cell(rect=[[1.0, 0.0]]), "seed_field.cells[0]: degenerate cell edge (1.0, 0.0)"),
    ("cell-zero-weight", _cell(weight=0.0), "seed_field.cells[0]: cell weight must be > 0"),
    ("cell-negative-drift", _cell(drift=-1.0), "seed_field.cells[0]: subordinator drift must be >= 0"),
    ("cells-overlap", _cells(CELL, _with(CELL, rect=[[0.5, 1.5], [0.5, 1.5]])),
     "seed_field: cell rectangles must be disjoint"),
    ("cells-mixed-dimensions", _cells(CELL, _with(CELL, rect=[[2.0, 3.0]])),
     "seed_field: all cells must share one dimension"),
    # kernel
    ("kernel-not-object", _doc(kernel="exp"), "kernel: expected an object"),
    ("kernel-missing-kind", _doc(kernel={"alpha": 0.5}), "kernel.kind: missing required field"),
    ("kernel-unknown-kind", _doc(kernel={"kind": "gauss"}), "kernel.kind: unknown kernel kind 'gauss'"),
    ("exp-unknown-field", _doc(kernel={"kind": "exp", "alpha": 0.5}), "kernel.alpha: unknown field"),
    ("gamma-kernel-unknown-field", _doc(kernel={"kind": "gamma_kernel", "alpha": 0.5, "beta": 1.0}),
     "kernel.beta: unknown field"),
    ("gamma-kernel-missing-alpha", _doc(kernel={"kind": "gamma_kernel"}), "kernel.alpha: missing required field"),
    ("gamma-kernel-alpha-string", _doc(kernel={"kind": "gamma_kernel", "alpha": "0.5"}),
     "kernel.alpha: expected a number"),
    ("gamma-kernel-domain", _doc(kernel={"kind": "gamma_kernel", "alpha": -2.0}),
     "kernel: kernel exponent must be > -1"),
    # partition and unions
    ("partition-not-list", _doc(partition=1.0), "partition: expected a list of at least two edges"),
    ("partition-one-edge", _doc(partition=[1.0]), "partition: expected a list of at least two edges"),
    ("partition-string", _doc(partition=[0.5, "1"]), "partition[1]: expected a number"),
    ("partition-unordered", _doc(partition=[1.0, 0.5]), "partition: edges must be strictly increasing"),
    ("unions-not-list", _doc(unions={"0": [0]}), "unions: expected a list of index lists"),
    ("union-empty", _doc(unions=[[0], []]), "unions[1]: expected a nonempty list of cell indices"),
    ("union-float-index", _doc(unions=[[0, 1.0]]), "unions[0]: expected a nonempty list of cell indices"),
    ("union-bool-index", _doc(unions=[[True]]), "unions[0]: expected a nonempty list of cell indices"),
]

MALFORMED = [pytest.param(doc, message, id=name) for name, doc, message in _CASES]


def _write(path, doc):
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return path


@pytest.mark.parametrize("doc, message", MALFORMED)
def test_malformed_model_exits_2_with_its_message(tmp_path, capsys, doc, message):
    model = _write(tmp_path / "m.json", doc)
    out = tmp_path / "x.csv"
    assert main(["cf", "--model", str(model), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: " + message.format(path=model) + "\n"
    assert not out.exists()


# Each of these ended in a traceback: a family that is not a string reached
# a dict lookup, and the decoder's RecursionError and the file's
# UnicodeDecodeError escaped the JSON check.
ONCE_UNCAUGHT = [
    pytest.param(_doc(levy=_with(GAUSS, family=["gaussian"])), "levy.family: unknown family ['gaussian']",
                 id="family-list"),
    pytest.param(b"[" * 100000 + b"]" * 100000, "{path}: not valid JSON (maximum recursion depth exceeded",
                 id="nested-too-deep"),
    pytest.param(b"\xff\xfe" + json.dumps(_doc()).encode(),
                 "{path}: not valid JSON ('utf-8' codec can't decode byte 0xff in position 0",
                 id="not-utf-8"),
]


@pytest.mark.parametrize("doc, prefix", ONCE_UNCAUGHT)
def test_model_file_that_ended_in_a_traceback_exits_2(tmp_path, capsys, doc, prefix):
    model = _write(tmp_path / "m.json", doc)
    assert main(["cf", "--model", str(model), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: " + prefix.format(path=model))


# The module's own entry point, run once per file in one interpreter: every
# file exits 2, and no stderr holds a traceback.
_DRIVER = """
import runpy, sys
out, models, codes = sys.argv[1], sys.argv[2:], []
for model in models:
    sys.argv = ["levymix", "cf", "--model", model, "--out", out]
    try:
        runpy.run_module("levymix.cli", run_name="__main__")
    except SystemExit as exc:
        codes.append(exc.code)
print(codes)
"""


def test_malformed_corpus_runs_through_the_module_without_traceback(tmp_path):
    docs = [p.values[0] for p in MALFORMED + ONCE_UNCAUGHT]
    models = [str(_write(tmp_path / f"m{i}.json", doc)) for i, doc in enumerate(docs)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _DRIVER, str(tmp_path / "x.csv"), *models],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout.strip() == str([2] * len(models))
    assert proc.stderr.count("error: ") == len(models)
