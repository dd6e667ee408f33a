"""Spans around levymix's module boundaries, installed from outside.

The tracer wraps the public functions of each levymix module and a few
named internals, and installs each wrapper on every module attribute that
holds the original, so calls through ``from .core import char_exponent``
bindings are seen as well as calls through ``core.char_exponent``. Spans
(name, start, end, parent) stay in memory in flat arrays and are written
out by ``save`` when the run ends.

A span's self time is its duration minus the durations of its direct
children; the call stack is single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "core", "quadrature", "mixing", "subordinate", "simulate", "recover")

# Internals that carry a per-layer metric, beside every public function.
EXTRA_FUNCTIONS = {
    "cli": ("_csv", "_to_json", "_atomic_write"),
}
METHODS = {
    "subordinate": (
        ("JumpMixEvaluator", "char_integral"),
        ("JumpMixEvaluator", "_grid"),
        ("JumpMixEvaluator", "_pushforward_integral"),
        ("SeedField", "__post_init__"),
    ),
}

# Spans whose durations add up to one metric; a span nested inside another
# span of its group is not counted again.
GROUPS = {
    "cli.write": ("cli._csv", "cli._to_json", "cli._atomic_write"),
    "core.exponent": ("core.char_exponent", "core.laplace_exponent"),
}

# metric -> group (or single span name) whose outermost durations it sums
TIME_METRICS = {
    "cli.parse_s": "cli.load_model_spec",
    "cli.write_s": "cli.write",
    "cli.cf_s": "cli.cmd_cf",
    "cli.subordinate_s": "cli.cmd_subordinate",
    "cli.mix_s": "cli.cmd_mix",
    "cli.simulate_s": "cli.cmd_simulate",
    "cli.lss_sim_s": "cli.cmd_lss_sim",
    "cli.basis_sim_s": "cli.cmd_basis_sim",
    "cli.recover_s": "cli.cmd_recover",
    "core.exponent_s": "core.exponent",
    "mixing.phi_mix_mass_s": "mixing.phi_mix_mass",
    "mixing.integrate_rho_s": "mixing.integrate_rho",
    "subordinate.triplet_s": "subordinate.subordinate_triplet",
    "subordinate.char_integral_s": "subordinate.JumpMixEvaluator.char_integral",
    "subordinate.pushforward_s": "subordinate.JumpMixEvaluator._pushforward_integral",
    "subordinate.seed_field_s": "subordinate.SeedField.__post_init__",
    "simulate.sample_s": "simulate.sample_subordinated",
    "simulate.lss_s": "simulate.sample_lss",
    "simulate.basis_s": "simulate.sample_basis_grid",
    "recover.ecf_s": "recover.empirical_cf",
    "recover.curve_s": "recover.psi_curve",
    "recover.fit_s": "recover.fit_subordinator",
}
CALL_METRICS = {
    "core.char_exponent_calls": "core.char_exponent",
    "core.laplace_exponent_calls": "core.laplace_exponent",
    "quadrature.quad_calls": "quadrature.integrate_interval",
    "mixing.phi_mix_mass_calls": "mixing.phi_mix_mass",
    "mixing.integrate_rho_calls": "mixing.integrate_rho",
    "subordinate.char_integral_calls": "subordinate.JumpMixEvaluator.char_integral",
}
# layer-wide time: every span of the layer not nested in another of its spans
LAYER_TIME_METRICS = {"quadrature.quad_s": "quadrature"}
# counters filled by hooks on the results of single calls
COUNT_METRICS = (
    "cli.bytes_written",
    "cli.files_written",
    "subordinate.grid_build_s",
    "simulate.increments",
    "simulate.paths",
    "recover.ecf_terms",
    "recover.trim_points",
    "recover.starts_converged",
)


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = list(TIME_METRICS) + list(CALL_METRICS) + list(LAYER_TIME_METRICS) + list(COUNT_METRICS)
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.spans", "trace.overhead_pct"]
    return names


def _as_numpy(arr, dtype):
    # a copy, so the array('...') buffer is not held and can still grow
    return np.frombuffer(arr, dtype=dtype).copy()


def _paths_of(result):
    return result if isinstance(result, list) else [result]


def _hooks(counters):
    """Hooks keyed by span name: (before(args) -> token, after(token, args, result, seconds))."""

    def add(key, value):
        counters[key] = counters.get(key, 0) + value

    def written(_, args, result, seconds):
        add("cli.bytes_written", len(args[1].encode()))
        add("cli.files_written", 1)

    def paths(_, args, result, seconds):
        for p in _paths_of(result):
            add("simulate.paths", 1)
            add("simulate.increments", p.grid.n_steps)

    def grid(token, args, result, seconds):
        if args[0]._grid_cache is not token:
            add("subordinate.grid_build_s", seconds)

    return {
        "cli._atomic_write": (None, written),
        "simulate.sample_subordinated": (None, paths),
        "simulate.sample_lss": (None, paths),
        "subordinate.JumpMixEvaluator._grid": (lambda args: args[0]._grid_cache, grid),
        "recover.empirical_cf": (None, lambda _, a, r, s: add("recover.ecf_terms", r.theta_grid.size * r.n_obs)),
        "recover.trim_cf": (None, lambda _, a, r, s: add("recover.trim_points", r.theta_grid.size)),
        "recover.fit_subordinator": (None, lambda _, a, r, s: add("recover.starts_converged", r.n_starts_converged)),
    }


class Tracer:
    """Wraps levymix's module boundaries and records one span per call."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self.layer_of = []
        self.group_of = []
        self.groups = {}
        self.name_ids = {}
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer_group = array("b")
        self.outer_layer = array("b")
        self.stack = []
        self.group_depth = []
        self.layer_depth = {layer: 0 for layer in LAYERS}
        self.rounds = []  # (first span, last span + 1, counters)
        self.counters = {}
        self.hooks = _hooks(self.counters)
        self.patches = []  # (owner, attribute, original, wrapper)

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items()) if (n == prefix or n.startswith(prefix + ".")) and m]

    def _register(self, name, layer):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        group = next((g for g, members in GROUPS.items() if name in members), name)
        gid = self.groups.setdefault(group, len(self.groups))
        if gid == len(self.group_depth):
            self.group_depth.append(0)
        self.group_of.append(gid)
        self.name_ids[name] = nid
        return nid

    def _wrap(self, name, layer, fn):
        nid = self._register(name, layer)
        gid = self.group_of[nid]
        before, after = self.hooks.get(name, (None, None))
        tracer = self
        stack, group_depth, layer_depth = self.stack, self.group_depth, self.layer_depth
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(tracer.nid)
            tracer.nid.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.outer_group.append(group_depth[gid] == 0)
            tracer.outer_layer.append(layer_depth[layer] == 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            token = before(args) if before else None
            stack.append(idx)
            group_depth[gid] += 1
            layer_depth[layer] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                layer_depth[layer] -= 1
                group_depth[gid] -= 1
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after:
                after(token, args, result, t1 - t0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _build_patches(self):
        modules = self._modules()
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            targets = [
                a for a, v in vars(mod).items()
                if inspect.isfunction(v) and v.__module__ == mod.__name__ and not a.startswith("_")
            ]
            targets += EXTRA_FUNCTIONS.get(layer, ())
            for attr in targets:
                fn = getattr(mod, attr)
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self.patches.append((m, key, fn, wrapper))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self.patches.append((cls, meth, fn, self._wrap(f"{layer}.{cls_name}.{meth}", layer, fn)))

    def install(self):
        """Put the wrappers in place; the first call builds them."""
        if not self.patches:
            self._build_patches()
        for owner, key, _, wrapper in self.patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, fn, _ in self.patches:
            setattr(owner, key, fn)

    # -- rounds and metrics ------------------------------------------------

    def begin_round(self):
        self.counters.clear()
        self._round_start = len(self.nid)

    def end_round(self):
        self.rounds.append((self._round_start, len(self.nid), dict(self.counters)))

    def round_metrics(self):
        """One dict of per-layer metrics per traced round."""
        nid = _as_numpy(self.nid, np.int32)
        dur = _as_numpy(self.end, float) - _as_numpy(self.start, float)
        parent = _as_numpy(self.parent, np.int32)
        outer_group = _as_numpy(self.outer_group, np.int8).astype(bool)
        outer_layer = _as_numpy(self.outer_layer, np.int8).astype(bool)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nid.size)
        self_time = dur - child_time
        n_names = len(self.names)
        layer_idx = np.array([LAYERS.index(l) for l in self.layer_of] or [0])
        group_idx = np.array(self.group_of or [0])
        out = []
        for lo, hi, counters in self.rounds:
            ids = nid[lo:hi]
            calls = np.bincount(ids, minlength=n_names)
            by_group = np.bincount(group_idx[ids], weights=dur[lo:hi] * outer_group[lo:hi], minlength=len(self.groups))
            by_layer_outer = np.bincount(layer_idx[ids], weights=dur[lo:hi] * outer_layer[lo:hi], minlength=len(LAYERS))
            by_layer_self = np.bincount(layer_idx[ids], weights=self_time[lo:hi], minlength=len(LAYERS))
            m = {}
            for metric, group in TIME_METRICS.items():
                gid = self.groups.get(group)
                m[metric] = float(by_group[gid]) if gid is not None else 0.0
            for metric, name in CALL_METRICS.items():
                m[metric] = int(calls[self.name_ids[name]]) if name in self.name_ids else 0
            for metric, layer in LAYER_TIME_METRICS.items():
                m[metric] = float(by_layer_outer[LAYERS.index(layer)])
            for metric in COUNT_METRICS:
                m[metric] = counters.get(metric, 0)
            for i, layer in enumerate(LAYERS):
                m[f"{layer}.self_s"] = float(by_layer_self[i])
            m["trace.spans"] = int(hi - lo)
            out.append(m)
        return out

    def save(self, path):
        """Write every span and the round boundaries to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name_id=_as_numpy(self.nid, np.int32),
            start=_as_numpy(self.start, float),
            end=_as_numpy(self.end, float),
            parent=_as_numpy(self.parent, np.int32),
            rounds=np.array([(lo, hi) for lo, hi, _ in self.rounds], dtype=np.int64).reshape(-1, 2),
        )
