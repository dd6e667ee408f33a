"""The three benchmark workloads and the checks on their outputs.

A workload is a fixed sequence of operations (a round): levymix CLI
commands run in-process through ``cli.main([...])`` and a few library
calls. The benchmark's seed decides the generated inputs (partitions,
theta grids, the CLI ``--seed``); the program sees only model files, flags
and library arguments. Every output is checked against ``reference.py``,
which does not import levymix, or against a property the method must have.

Library calls go through module attributes (``subordinate.cf_from_triplet``)
at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import time

import numpy as np

import reference as ref

# ---------------------------------------------------------------------------
# Models. Each is a plain description (see reference.py) turned into a CLI
# model file or library objects by the helpers below.

VG = {"base": ("gaussian",), "drift": 0.0, "clock": ("gamma", 2.0, 3.0)}
CAUCHY_GAMMA = {"base": ("cauchy", 1.0), "drift": 0.0, "clock": ("gamma", 2.0, 3.0)}
DELTA_GAMMA = {"base": ("delta", 1.5), "drift": 0.2, "clock": ("gamma", 2.0, 3.0)}
# the make-up of tests/models/poisson_atom.json
POISSON_ATOMIC = {"base": ("poisson", 1.0, 1.0), "drift": 0.0, "clock": ("atomic", ((1.0, 1.0),))}
CAUCHY_HALF = {"base": ("cauchy", 1.0), "drift": 0.0, "clock": ("stable", 0.5, 0.5)}
DELTA_CPEXP = {"base": ("delta", 1.5), "drift": 0.2, "clock": ("cpexp", 2.0, 1.5)}
# the only clock without an exact sampler: it takes the epsilon-truncation route
GAUSS_STABLE03 = {"base": ("gaussian",), "drift": 0.0, "clock": ("stable", 0.3, 1.0)}
GAUSS_CPEXP = {"base": ("gaussian",), "drift": 0.2, "clock": ("cpexp", 2.0, 1.5)}
GAUSS_HALF = {"base": ("gaussian",), "drift": 0.0, "clock": ("stable", 0.5, 0.5)}


def levy_spec(base):
    kind = base[0]
    if kind == "gaussian":
        return {"family": "gaussian", "params": {"mean": 0.0, "variance": 1.0}}
    if kind == "cauchy":
        return {"family": "cauchy", "params": {"scale": base[1]}}
    if kind == "delta":
        return {"family": "delta", "params": {"drift": base[1]}}
    if kind == "poisson":
        return {"family": "poisson", "params": {"rate": base[1], "jump_size": base[2]}}
    raise ValueError(kind)


def jumps_spec(clock):
    kind = clock[0]
    if kind == "gamma":
        return {"kind": "gamma", "shape": clock[1], "rate": clock[2]}
    if kind == "stable":
        return {"kind": "one_sided_stable", "index": clock[1], "coeff": clock[2]}
    if kind == "cpexp":
        return {"kind": "compound_exponential", "rate": clock[1], "jump_rate": clock[2]}
    if kind == "atomic":
        return {"kind": "atomic", "atoms": [list(a) for a in clock[1]]}
    raise ValueError(kind)


def model_spec(model, **extra):
    doc = {
        "schema": 1,
        "levy": levy_spec(model["base"]),
        "subordinator": {"drift": model["drift"], "jumps": jumps_spec(model["clock"])},
    }
    doc.update(extra)
    return doc


def library_objects(lm, model):
    """(base law, subordinator pair) built through the public constructors."""
    core = lm.core
    base = model["base"]
    if base[0] == "gaussian":
        law = core.gaussian_law(0.0, 1.0)
    elif base[0] == "cauchy":
        law = core.cauchy_law(base[1])
    elif base[0] == "delta":
        law = core.delta_law(base[1])
    else:
        law = core.poisson_law(base[1], base[2])
    clock = model["clock"]
    if clock[0] == "gamma":
        jumps = core.GammaMeasure(clock[1], clock[2])
    elif clock[0] == "stable":
        jumps = core.OneSidedStableMeasure(clock[1], clock[2])
    elif clock[0] == "cpexp":
        jumps = core.CompoundExponentialMeasure(clock[1], clock[2])
    else:
        jumps = core.AtomicMeasure(tuple(tuple(a) for a in clock[1]))
    return law, core.SubordinatorPair(model["drift"], jumps)


# ---------------------------------------------------------------------------
# Operations and the round runner.


class OpFailed(Exception):
    """A CLI command returned a nonzero exit code."""


class Op:
    """One timed operation.

    ``run`` is timed and returns the operation's value; ``digest`` (untimed)
    reduces the value or the files written to bytes, so rounds can be
    compared for determinism.
    """

    def __init__(self, name, run, digest):
        self.name = name
        self.run = run
        self.digest = digest


def file_digest(*patterns):
    def digest(_value):
        h = hashlib.sha256()
        for pattern in patterns:
            for path in sorted(glob.glob(pattern)):
                h.update(os.path.basename(path).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    return digest


def value_digest(value):
    # arrays by their bytes: numpy's repr rounds to 8 digits
    data = value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """Base class: generated inputs, the round's operations and the checks."""

    name = ""

    def __init__(self, lm, seed, workdir, scale=1.0):
        self.lm = lm
        self.seed = int(seed)
        self.workdir = workdir
        self.scale = scale
        self.rng = np.random.default_rng([self.seed % 2**63, 0xBE7C])
        # statistical scores and estimates from the last check, for sweeps
        self.scores = {}
        os.makedirs(workdir, exist_ok=True)
        self.ops = self.build()

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write_model(self, name, doc):
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def size(self, n, minimum=1):
        return max(minimum, int(round(n * self.scale)))

    def cli_op(self, name, argv, outputs, digest=None):
        cli = self.lm.cli

        def run():
            code = cli.main(argv)
            if code != 0:
                raise OpFailed(f"levymix {argv[0]} exited with {code}")

        return Op(name, run, digest or file_digest(*outputs))

    def build(self):
        raise NotImplementedError

    def check(self, values):
        """Failure messages for the last round's outputs (empty if all pass).

        ``values`` maps each operation that succeeded to its return value.
        """
        raise NotImplementedError


def run_round(ops):
    """Run every operation once. Returns (seconds, values, digests, failed)."""
    total = 0.0
    values, digests, failed = {}, {}, []
    for op in ops:
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            total += time.perf_counter() - t0
            failed.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        total += time.perf_counter() - t0
        values[op.name] = value
        digests[op.name] = op.digest(value)
    return total, values, digests, failed


# ---------------------------------------------------------------------------
# calculus: cf, subordinate, mix and the triplet route on four models.

CALC_MODELS = {
    "vg": VG,
    "cauchy-gamma": CAUCHY_GAMMA,
    "delta-gamma": DELTA_GAMMA,
    "poisson-atomic": POISSON_ATOMIC,
}
CF_STEPS = 4001
PARTITION_SIDE = 12  # intervals on each side of 0
POISSON_ATOMS = 12
TRIPLET_THETAS = 31

# Tolerances: the cf table is a closed form evaluated twice (1e-12); the
# triplet route carries the release tolerance of the two-route agreement
# (1e-6); masses are quadratures to 1e-10 absolute, checked relatively so a
# 1e-6 relative error in any one mass is caught.
CF_TOL = 1e-12
TRIPLET_TOL = 1e-6
MASS_REL_TOL = 1e-8
MASS_ABS_TOL = 1e-13
GAMMA_BAR_TOL = 1e-9


def within(scores, key, share):
    """Record the share of a tolerance used (for the seed sweep); True if at most 1."""
    scores[key] = max(scores.get(key, 0.0), share)
    return share <= 1.0


class Calculus(Workload):
    name = "calculus"

    def partition(self, key):
        rng = self.rng
        if key == "poisson-atomic":
            k = np.arange(self.size(POISSON_ATOMS, 2) + 1)
            return [float(v) for v in k + rng.uniform(0.05, 0.95, k.size)]
        n = self.size(PARTITION_SIDE, 2)
        base = np.geomspace(0.05, 6.0, n + 1)
        jitter = np.exp(rng.uniform(-0.3, 0.3, (2, n + 1)) * np.log(base[1] / base[0]))
        pos = np.sort(base * jitter[0])
        neg = -np.sort(base * jitter[1])[::-1]
        return [float(v) for v in np.concatenate([neg, pos])]

    def build(self):
        lm = self.lm
        rng = self.rng
        steps = self.size(CF_STEPS, 3)
        self.theta_lo = -10.0 - float(rng.uniform(0.0, 0.5))
        self.theta_hi = 10.0 + float(rng.uniform(0.0, 0.5))
        self.cf_theta = np.linspace(self.theta_lo, self.theta_hi, steps)
        n_tri = self.size(TRIPLET_THETAS, 2)
        # |theta| >= 0.25 keeps the heavy-tail cut at its 1200 floor, so one
        # grid build serves the whole list
        self.tri_theta = rng.choice([-1.0, 1.0], n_tri) * rng.uniform(0.25, 10.0, n_tri)
        self.parts = {}
        ops = []
        for key, model in CALC_MODELS.items():
            part = self.partition(key)
            self.parts[key] = part
            spec = self.write_model(f"{key}.json", model_spec(model, partition=part))
            cf_out, sub_out, mix_out = (self.path(f"{key}.{x}") for x in ("cf.csv", "sub.json", "mix.json"))
            ops.append(self.cli_op(f"cf:{key}", [
                "cf", "--model", spec, "--out", cf_out,
                "--theta-min", repr(self.theta_lo), "--theta-max", repr(self.theta_hi),
                "--theta-steps", str(steps)], [cf_out]))
            ops.append(self.cli_op(f"subordinate:{key}", ["subordinate", "--model", spec, "--out", sub_out], [sub_out]))
            ops.append(self.cli_op(f"mix:{key}", ["mix", "--model", spec, "--out", mix_out], [mix_out]))
            base, pair = library_objects(lm, model)
            ops.append(Op(f"triplet:{key}", self.triplet_route(base, pair), value_digest))
        return ops

    def triplet_route(self, base, pair):
        subordinate = self.lm.subordinate
        thetas = [float(t) for t in self.tri_theta]

        def run():
            st = subordinate.subordinate_triplet(base, pair)
            return np.array([subordinate.cf_from_triplet(st, t) for t in thetas])

        return run

    def usable_intervals(self, edges):
        return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if not lo < 0.0 <= hi]

    def reference_mass(self, model, lo, hi):
        if model is CAUCHY_GAMMA:
            _, a, lam = model["clock"]
            return ref.cauchy_gamma_mass(a, lam, model["base"][1], lo, hi)
        return ref.interval_mass(model, lo, hi)

    def check_masses(self, key, table, errors, scores):
        model = CALC_MODELS[key]
        expected = self.usable_intervals(self.parts[key])
        got = [(row["lo"], row["hi"]) for row in table]
        if got != expected:
            errors.append(f"{key}: mass table intervals {got[:3]}... differ from the partition")
            return
        for row in table:
            want = self.reference_mass(model, row["lo"], row["hi"])
            if not within(scores, "mass", abs(row["mass"] - want) / (MASS_REL_TOL * abs(want) + MASS_ABS_TOL)):
                errors.append(f"{key}: mass on ({row['lo']}, {row['hi']}] is {row['mass']!r}, reference {want!r}")

    def check(self, values):
        errors, scores = [], {}
        for key, model in CALC_MODELS.items():
            if f"cf:{key}" in values:
                header, data = read_csv(self.path(f"{key}.cf.csv"))
                want = ref.log_cf(model, data[:, 0])
                gap = np.abs(data[:, 1] + 1j * data[:, 2] - want) / np.maximum(1.0, np.abs(want))
                if header != ["theta", "re", "im"] or data.shape[0] != self.cf_theta.size:
                    errors.append(f"{key}: cf table has header {header} and {data.shape[0]} rows")
                elif not np.array_equal(data[:, 0], self.cf_theta):
                    errors.append(f"{key}: cf table theta column differs from the requested grid")
                elif not within(scores, "cf", gap.max() / CF_TOL):
                    errors.append(f"{key}: cf table off the closed form by {gap.max():.3e}")
            if f"subordinate:{key}" in values:
                report = read_json(self.path(f"{key}.sub.json"))
                gb = ref.gamma_bar(model)
                b_bar = (1.0 if model["base"][0] == "gaussian" else 0.0) * model["drift"]
                if not within(scores, "gamma_bar", abs(report["gamma_bar"] - gb) / (GAMMA_BAR_TOL * max(1.0, abs(gb)))):
                    errors.append(f"{key}: gamma_bar {report['gamma_bar']!r}, reference {gb!r}")
                if report["b_bar"] != b_bar:
                    errors.append(f"{key}: b_bar {report['b_bar']!r}, expected {b_bar!r}")
                self.check_masses(key, report["nu_bar"], errors, scores)
            if f"mix:{key}" in values:
                self.check_masses(key, read_json(self.path(f"{key}.mix.json"))["mixed_mass"], errors, scores)
            if f"triplet:{key}" in values:
                gap = np.abs(values[f"triplet:{key}"] - ref.log_cf(model, self.tri_theta))
                if not within(scores, "triplet", gap.max() / TRIPLET_TOL):
                    errors.append(f"{key}: triplet route off the closed form by {gap.max():.3e}")
        self.scores = scores
        return errors


# ---------------------------------------------------------------------------
# sampling: long paths, many short paths, a moving average and a cell field.

LONG_STEPS = 100_000
LONG_DT = 0.01
# Creating a file is the noisiest operation on a shared machine (1000
# atomic writes took 0.08-0.86 s there), so the short paths are few enough
# that file creation stays a small part of the round.
SHORT_PATHS = 200
SHORT_STEPS = 100
SHORT_DT = 0.1
LSS_STEPS = 20_000
LSS_DT = 0.05
LSS_BURN_IN = 25.0
FIELD_SIDE = 32  # FIELD_SIDE**2 equal cells
FIELD_CELL = 0.5

# theta points where each law is visibly away from 1 (|CF - 1| >= 0.05)
THETA_VG_STEP = (10.0, 30.0, 100.0, 300.0, 1000.0)
THETA_STABLE_STEP = (3.0, 10.0, 20.0, 30.0, 50.0)
THETA_CAUCHY_STEP = (0.1, 1.0, 10.0, 100.0)
THETA_CAUCHY_END = (0.0005, 0.001, 0.003, 0.01)
THETA_LSS_STEP = (1.0, 3.0, 10.0, 30.0)
THETA_CELL = (0.5, 1.0, 2.0, 4.0, 8.0)


def ecf_check(name, samples, theta, cf, scores, errors):
    score = ref.ecf_score(samples, theta, cf)
    scores[name] = score
    if not score <= ref.Z_BOUND:
        errors.append(f"{name}: ECF is {score:.2f} standard deviations off the closed form (bound {ref.Z_BOUND})")


class Sampling(Workload):
    name = "sampling"

    def build(self):
        seed = str(self.seed)
        self.long_steps = self.size(LONG_STEPS, 100)
        self.short_paths = self.size(SHORT_PATHS, 20)
        self.lss_steps = self.size(LSS_STEPS, 100)
        self.field_side = self.size(FIELD_SIDE, 4)
        if self.field_side % 2:
            self.field_side += 1
        ops = []
        for key, model in (("vg", VG), ("stable03", GAUSS_STABLE03)):
            spec = self.write_model(f"{key}.json", model_spec(model))
            out = self.path(f"{key}.path.csv")
            ops.append(self.cli_op(f"simulate:{key}", [
                "simulate", "--model", spec, "--out", out, "--seed", seed,
                "--dt", repr(LONG_DT), "--horizon", repr(LONG_DT * self.long_steps)], [out]))
        spec = self.write_model("cauchy-half.json", model_spec(CAUCHY_HALF))
        out = self.path("short.csv")
        ops.append(self.cli_op("simulate:cauchy-half", [
            "simulate", "--model", spec, "--out", out, "--seed", seed,
            "--dt", repr(SHORT_DT), "--horizon", repr(SHORT_DT * SHORT_STEPS),
            "--n-paths", str(self.short_paths)], [self.path("short.p*.csv")]))
        spec = self.write_model("delta-cpexp.json", model_spec(DELTA_CPEXP, kernel={"kind": "exp"}))
        out = self.path("lss.csv")
        ops.append(self.cli_op("lss-sim:delta-cpexp", [
            "lss-sim", "--model", spec, "--out", out, "--seed", seed,
            "--dt", repr(LSS_DT), "--horizon", repr(LSS_DT * self.lss_steps),
            "--burn-in", repr(LSS_BURN_IN)], [out]))
        spec = self.write_model("field.json", self.field_spec())
        out = self.path("field.csv")
        ops.append(self.cli_op("basis-sim:field", [
            "basis-sim", "--model", spec, "--out", out, "--seed", seed], [out]))
        return ops

    def field_spec(self):
        """FIELD_SIDE**2 equal square cells, row by row, each with the vg
        clock as its seed; unions pair cell 2k with its right neighbour."""
        side, h = self.field_side, FIELD_CELL
        cells = []
        for row in range(side):
            for col in range(side):
                cells.append({
                    "rect": [[col * h, (col + 1) * h], [row * h, (row + 1) * h]],
                    "drift": VG["drift"],
                    "jumps": jumps_spec(VG["clock"]),
                })
        self.n_cells = len(cells)
        unions = [[k, k + 1] for k in range(0, len(cells), 2)]
        return {
            "schema": 1,
            "levy": levy_spec(VG["base"]),
            "subordinator": {"drift": 0.0, "jumps": {"kind": "zero"}},
            "seed_field": {"cells": cells},
            "unions": unions,
        }

    def check_path_file(self, path, dt, steps, errors):
        header, data = read_csv(path)
        times = dt * np.arange(steps + 1)
        if header != ["t", "value"] or data.shape[0] != steps + 1:
            errors.append(f"{os.path.basename(path)}: header {header}, {data.shape[0]} rows, want {steps + 1}")
            return None
        if not np.allclose(data[:, 0], times, rtol=1e-15, atol=1e-12):
            errors.append(f"{os.path.basename(path)}: time column is not the grid")
            return None
        return data[:, 1]

    def check(self, values):
        errors, scores = [], {}
        for key, model, theta in (("vg", VG, THETA_VG_STEP), ("stable03", GAUSS_STABLE03, THETA_STABLE_STEP)):
            if f"simulate:{key}" not in values:
                continue
            vals = self.check_path_file(self.path(f"{key}.path.csv"), LONG_DT, self.long_steps, errors)
            if vals is not None:
                cf = np.exp(LONG_DT * ref.log_cf(model, theta))
                ecf_check(f"{key} increments", np.diff(vals), theta, cf, scores, errors)
        if "simulate:cauchy-half" in values:
            files = sorted(glob.glob(self.path("short.p*.csv")))
            want = [self.path(f"short.p{k}.csv") for k in range(self.short_paths)]
            if sorted(want) != files:
                errors.append(f"simulate --n-paths wrote {len(files)} files, want {self.short_paths}")
            else:
                incs, ends = [], []
                for path in want:
                    vals = self.check_path_file(path, SHORT_DT, SHORT_STEPS, errors)
                    if vals is None:
                        break
                    incs.append(np.diff(vals))
                    ends.append(vals[-1])
                else:
                    cf = np.exp(SHORT_DT * ref.log_cf(CAUCHY_HALF, THETA_CAUCHY_STEP))
                    ecf_check("cauchy-half increments", np.concatenate(incs), THETA_CAUCHY_STEP, cf, scores, errors)
                    cf = np.exp(SHORT_DT * SHORT_STEPS * ref.log_cf(CAUCHY_HALF, THETA_CAUCHY_END))
                    ecf_check("cauchy-half path ends", np.array(ends), THETA_CAUCHY_END, cf, scores, errors)
        if "lss-sim:delta-cpexp" in values:
            y = self.check_path_file(self.path("lss.csv"), LSS_DT, self.lss_steps, errors)
            if y is not None:
                # the kernel is 0 at 0, so e^dt y[i+1] - y[i] is the i-th driving increment
                driving = math.exp(LSS_DT) * y[1:] - y[:-1]
                cf = np.exp(LSS_DT * ref.log_cf(DELTA_CPEXP, THETA_LSS_STEP))
                ecf_check("lss driving increments", driving, THETA_LSS_STEP, cf, scores, errors)
        if "basis-sim:field" in values:
            self.check_field(errors, scores)
        self.scores = scores
        return errors

    def check_field(self, errors, scores):
        header, data = read_csv(self.path("field.csv"))
        n = self.n_cells
        if header != ["x0", "y0", "x1", "y1", "value"] or data.shape[0] != n + n // 2:
            errors.append(f"basis-sim: header {header}, {data.shape[0]} rows, want {n + n // 2}")
            return
        cells, unions = data[:n], data[n:]
        side, h = self.field_side, FIELD_CELL
        k = np.arange(n)
        rects = np.column_stack([(k % side) * h, (k // side) * h, (k % side + 1) * h, (k // side + 1) * h])
        if not np.array_equal(cells[:, :4], rects):
            errors.append("basis-sim: cell rectangles differ from the field")
            return
        for j, row in enumerate(unions):
            a, b = cells[2 * j], cells[2 * j + 1]
            box = [min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])]
            if list(row[:4]) != box or row[4] != math.fsum((a[4], b[4])):
                errors.append(f"basis-sim: union row {j} is {list(row)}, cells sum to {math.fsum((a[4], b[4]))!r}")
                break
        cf = np.exp(h * h * ref.log_cf(VG, THETA_CELL))
        ecf_check("field cells", cells[:, 4], THETA_CELL, cf, scores, errors)


# ---------------------------------------------------------------------------
# recovery: recover at 2e5 observations, and the noiseless library fit.

RECOVER_STEPS = 200_000
RECOVER_PAIRS = {
    # key: (model, family, true (beta0, params...))
    "vg-gamma": (VG, "gamma", (0.0, 2.0, 3.0)),
    "cpexp": (GAUSS_CPEXP, "compound_exponential", (0.2, 2.0, 1.5)),
    "half-stable": (GAUSS_HALF, "one_sided_stable", (0.0, 0.5, 0.5)),
}
# Largest |estimate - truth| accepted per (beta0, params...): the bias plus
# 8 standard deviations of the estimate over seeds 1-40 (bench/sweep.py; the
# figures are in README.md). The largest deviation seen there was 3.7 sd.
RECOVER_BOUNDS = {
    "vg-gamma": (0.07, 0.7, 0.85),
    "cpexp": (0.07, 0.45, 0.32),
    "half-stable": (0.14, 0.025, 0.045),
}
NOISELESS_REL_TOL = 1e-6
NOISELESS_OBJECTIVE = 1e-12


class Recovery(Workload):
    name = "recovery"

    def build(self):
        lm = self.lm
        seed = str(self.seed)
        self.steps = self.size(RECOVER_STEPS, 1000)
        ops = []
        for key, (model, family, _) in RECOVER_PAIRS.items():
            spec = self.write_model(f"{key}.json", model_spec(model))
            out = self.path(f"{key}.fit.json")
            ops.append(self.cli_op(f"recover:{key}", [
                "recover", "--model", spec, "--out", out, "--seed", seed, "--family", family,
                "--dt", "1.0", "--horizon", repr(float(self.steps))], [out], self.report_digest(out)))
        for key, (model, family, _) in RECOVER_PAIRS.items():
            base, pair = library_objects(lm, model)
            ops.append(Op(f"noiseless:{key}", self.noiseless_fit(base, pair, family), value_digest))
        return ops

    @staticmethod
    def report_digest(path):
        # wall_time_s makes two equal runs differ in bytes; compare the rest
        def digest(_value):
            report = read_json(path)
            report.pop("wall_time_s", None)
            return value_digest(sorted(report.items()))

        return digest

    def noiseless_fit(self, base, pair, family):
        recover, subordinate = self.lm.recover, self.lm.subordinate
        # default options, as the acceptance gate's noiseless fit uses; a
        # seed here would only move the simplex starts and so the work done
        options = recover.FitOptions()

        def run():
            cf = recover.analytic_cf(lambda t: subordinate.compose_cf(base, pair, t), recover.default_theta_grid())
            curve = recover.psi_curve(base, cf)
            return recover.fit_subordinator(curve, family, options)

        return run

    def check(self, values):
        errors, scores = [], {}
        for key, (_, family, truth) in RECOVER_PAIRS.items():
            if f"recover:{key}" in values:
                report = read_json(self.path(f"{key}.fit.json"))
                est = (report["beta0"], *report["params"])
                scores[key] = est
                if report["family"] != family or report["n_obs"] != self.steps or report["seed"] != self.seed:
                    errors.append(f"recover {key}: report header {report['family']}, {report['n_obs']}, {report['seed']}")
                if not report["n_starts_converged"] >= 1:
                    errors.append(f"recover {key}: no start converged")
                # the spread shrinks as 1/sqrt(observations)
                bounds = [b / math.sqrt(min(self.scale, 1.0)) for b in RECOVER_BOUNDS[key]]
                off = [abs(e - t) for e, t in zip(est, truth)]
                if len(est) != len(truth) or any(not o <= b for o, b in zip(off, bounds)):
                    errors.append(f"recover {key}: estimate {est} off the truth {truth} by more than {bounds}")
            if f"noiseless:{key}" in values:
                fit = values[f"noiseless:{key}"]
                est = (fit.beta0_hat, *fit.params)
                rel = max(abs(e - t) / abs(t) if t else abs(e) for e, t in zip(est, truth))
                if not (len(est) == len(truth) and rel < NOISELESS_REL_TOL and fit.objective < NOISELESS_OBJECTIVE):
                    errors.append(f"noiseless {key}: relative error {rel:.2e}, objective {fit.objective:.2e}")
        self.scores = scores
        return errors


WORKLOADS = {w.name: w for w in (Calculus, Sampling, Recovery)}
