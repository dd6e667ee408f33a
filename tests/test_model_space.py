"""Schema-valid models: each one ends in a result or a documented exit code.

A model draws every levy family and every jumps kind the model file
accepts, each parameter from across its valid range: positive scales
log-uniform over [1e-8, 1e8], stable indices from [1e-3, bound) or
log-uniform over [1e-299, 1e-3], where the closed forms must neither
overflow on a finite answer nor warn. Each subcommand
runs its share of models at tiny sizes through ``cli.main`` in this
process and must exit 0, 2, 3 or 4, with no exception escaping and no
RuntimeWarning. The sizes stay far under the 1e7 step budget: at most 200
steps, 5 theta points, 2 paths. On a clock without drift, ``mix`` and
``subordinate`` answer the same question, the mass table of the mixed
measure, and must exit alike with identical tables. The malformed side of
the same space is ``test_spec_corpus.py``.
"""
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levymix.cli import main
from levymix.recover import FAMILIES

_SCALE = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
_SIGNED = st.tuples(st.sampled_from((-1.0, 1.0)), _SCALE).map(lambda p: p[0] * p[1])
_REAL = st.one_of(st.just(0.0), _SIGNED)


def _index(hi):
    return st.one_of(st.floats(1e-3, hi, exclude_max=True), st.floats(-299.0, -3.0).map(lambda e: 10.0**e))


_LEVY = st.one_of(
    st.fixed_dictionaries({"family": st.just("gaussian"), "params": st.fixed_dictionaries(
        {"mean": _REAL, "variance": _SCALE})}),
    st.fixed_dictionaries({"family": st.just("gamma"), "params": st.fixed_dictionaries(
        {"shape": _SCALE, "rate": _SCALE})}),
    st.fixed_dictionaries({"family": st.just("poisson"), "params": st.fixed_dictionaries(
        {"rate": _SCALE, "jump_size": _SIGNED})}),
    st.fixed_dictionaries({"family": st.just("delta"), "params": st.fixed_dictionaries({"drift": _REAL})}),
    st.fixed_dictionaries({"family": st.just("symmetric_stable"), "params": st.fixed_dictionaries(
        {"alpha": _index(2.0), "scale": _SCALE})}),
    st.fixed_dictionaries({"family": st.just("cauchy"), "params": st.fixed_dictionaries({"scale": _SCALE})}),
    st.fixed_dictionaries({"family": st.just("one_sided_stable"), "params": st.fixed_dictionaries(
        {"alpha": _index(1.0), "coeff": _SCALE})}),
)

_JUMPS = st.one_of(
    st.just({"kind": "zero"}),
    st.fixed_dictionaries({"kind": st.just("gamma"), "shape": _SCALE, "rate": _SCALE}),
    st.fixed_dictionaries({"kind": st.just("one_sided_stable"), "index": _index(2.0), "coeff": _SCALE}),
    st.fixed_dictionaries({"kind": st.just("compound_exponential"), "rate": _SCALE, "jump_rate": _SCALE}),
    st.fixed_dictionaries({"kind": st.just("atomic"), "atoms": st.lists(
        st.tuples(_SCALE, _SCALE).map(list), min_size=1, max_size=3)}),
)

_CLOCK = st.fixed_dictionaries({"drift": st.one_of(st.just(0.0), _SCALE), "jumps": _JUMPS})

_KERNEL = st.one_of(
    st.just({"kind": "exp"}),
    st.fixed_dictionaries({"kind": st.just("gamma_kernel"), "alpha": st.floats(-1.0, 4.0, exclude_min=True)}),
)

_FIELD = st.lists(_CLOCK, min_size=1, max_size=2).map(
    lambda clocks: {"cells": [{"rect": [[k, k + 1.0], [0.0, 1.0]], **c} for k, c in enumerate(clocks)]}
)

_COMMANDS = {
    "cf": ["--theta-steps", "5"],
    "subordinate": [],
    "mix": [],
    "simulate": ["--dt", "0.1", "--horizon", "2", "--seed", "1", "--n-paths", "2"],
    "lss-sim": ["--dt", "0.5", "--horizon", "2", "--burn-in", "30", "--seed", "2"],
    "recover": ["--dt", "0.1", "--horizon", "20", "--seed", "3", "--family"],
    "basis-sim": ["--seed", "4"],
}
_MODEL = st.fixed_dictionaries(
    {"schema": st.just(1), "levy": _LEVY, "subordinator": _CLOCK, "seed_field": _FIELD},
    optional={"kernel": _KERNEL},
)


@pytest.mark.parametrize("cmd", sorted(_COMMANDS))
@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(model=_MODEL, family=st.sampled_from(sorted(FAMILIES)))
def test_schema_valid_model_ends_in_a_result_or_a_documented_exit(cmd, model, family):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "m.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(model, fh)
        argv = [cmd, "--model", path, "--out", out, *_COMMANDS[cmd]] + ([family] if cmd == "recover" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        assert code in (0, 2, 3, 4)
        assert (code == 0) == (os.listdir(tmp) != ["m.json"])


def _mix_and_subordinate(model):
    """(exit code, mass table or None) of mix and of subordinate on model."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(model, fh)
        for cmd, key in (("mix", "mixed_mass"), ("subordinate", "nu_bar")):
            out = os.path.join(tmp, f"{cmd}.json")
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main([cmd, "--model", path, "--out", out])
            if code == 0:
                with open(out) as fh:
                    runs.append((code, json.load(fh)[key]))
            else:
                runs.append((code, None))
    return runs


_FINE_POISSON_CLOCKS = [
    {"kind": "gamma", "shape": 2.0, "rate": 3.0},
    {"kind": "atomic", "atoms": [[0.5, 0.6], [2.0, 0.3]]},
    {"kind": "compound_exponential", "rate": 2.0, "jump_rate": 1.5},
]


@pytest.mark.parametrize("jumps", _FINE_POISSON_CLOCKS, ids=lambda jumps: jumps["kind"])
@pytest.mark.parametrize("jump_size", [1e-5, -2e-6, 1e-8])
def test_mix_and_subordinate_agree_on_a_fine_poisson_base(jump_size, jumps):
    # 1e5 to 1e8 counts inside |x| <= 1: the drift term takes the closed form
    model = {"schema": 1, "levy": {"family": "poisson", "params": {"rate": 0.5, "jump_size": jump_size}},
             "subordinator": {"drift": 0.0, "jumps": jumps}}
    mix, subordinate = _mix_and_subordinate(model)
    assert mix[0] == 0 and mix == subordinate


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(model=st.fixed_dictionaries({"schema": st.just(1), "levy": _LEVY, "subordinator": st.fixed_dictionaries(
    {"drift": st.just(0.0), "jumps": _JUMPS})}))
def test_mix_and_subordinate_agree_on_a_clock_without_drift(model):
    mix, subordinate = _mix_and_subordinate(model)
    assert mix == subordinate
