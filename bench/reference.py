"""Closed forms and statistical checks the benchmark compares levymix against.

Nothing here imports levymix: every value is derived from the model's
definition with the standard library, numpy and scipy.special only, so a
fault in the program cannot leak into its own reference.

A model is described by a plain dict (see ``workloads.py``):

    {"base": ("gaussian",) | ("cauchy", scale) | ("delta", speed)
             | ("poisson", rate, jump),
     "drift": clock drift,
     "clock": ("gamma", a, lam) | ("stable", index, coeff)
              | ("cpexp", rate, jump_rate) | ("atomic", ((pos, mass), ...))}
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


def base_exponent(base, theta):
    """Log-CF of the base law at time one, vectorized over theta."""
    theta = np.asarray(theta, dtype=float)
    kind = base[0]
    if kind == "gaussian":
        return (-0.5 * theta * theta).astype(complex)
    if kind == "cauchy":
        return (-base[1] * np.abs(theta)).astype(complex)
    if kind == "delta":
        return 1j * base[1] * theta
    if kind == "poisson":
        rate, jump = base[1], base[2]
        return rate * (np.exp(1j * theta * jump) - 1.0)
    raise ValueError(f"unknown base {kind!r}")


def clock_laplace(drift, clock, z):
    """Laplace exponent log E exp(z T_1) of the clock for Re z <= 0."""
    z = np.asarray(z, dtype=complex)
    kind = clock[0]
    if kind == "gamma":
        a, lam = clock[1], clock[2]
        jump = -a * np.log(1.0 - z / lam)
    elif kind == "stable":
        index, coeff = clock[1], clock[2]
        jump = coeff * special.gamma(-index) * (-z) ** index
    elif kind == "cpexp":
        rate, eta = clock[1], clock[2]
        jump = rate * z / (eta - z)
    elif kind == "atomic":
        jump = sum(m * (np.exp(z * p) - 1.0) for p, m in clock[1])
    else:
        raise ValueError(f"unknown clock {kind!r}")
    return drift * z + jump


def log_cf(model, theta):
    """Log-CF of the subordinated law at time one."""
    return clock_laplace(model["drift"], model["clock"], base_exponent(model["base"], theta))


# ---------------------------------------------------------------------------
# Interval masses of the subordinated jump measure and its drift.


def _exp1_diff(u_lo, u_hi):
    upper = 0.0 if math.isinf(u_hi) else float(special.exp1(u_hi))
    return float(special.exp1(u_lo)) - upper


def interval_mass(model, lo, hi):
    """Jump-measure mass on (lo, hi] for the models with a closed form.

    vg: a [E1(sqrt(2 lam) lo) - E1(sqrt(2 lam) hi)] on the positive side,
    mirrored on the negative side. delta-gamma: the gamma density pushed
    forward by x = speed * s. poisson on an atomic clock: the mixture of
    Poisson pmfs at the lattice points inside the interval.
    """
    base, clock = model["base"], model["clock"]
    if lo < 0.0:
        lo, hi = -hi, -lo
        if base[0] in ("delta", "poisson"):
            return 0.0
    if base[0] == "gaussian" and clock[0] == "gamma" and model["drift"] == 0.0:
        a, lam = clock[1], clock[2]
        k = math.sqrt(2.0 * lam)
        return a * _exp1_diff(k * lo, k * hi)
    if base[0] == "delta" and clock[0] == "gamma":
        a, lam = clock[1], clock[2]
        speed = base[1]
        return a * _exp1_diff(lam * lo / speed, lam * hi / speed)
    if base[0] == "poisson" and clock[0] == "atomic" and model["drift"] == 0.0:
        rate, jump = base[1], base[2]
        total = 0.0
        k_lo = math.floor(lo / jump) + 1
        k_hi = math.floor(hi / jump)
        for k in range(max(k_lo, 1), k_hi + 1):
            for p, m in clock[1]:
                mean = rate * p
                total += m * math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0))
        return total
    raise ValueError("no closed-form mass for this model")


def cauchy_gamma_mass(a, lam, scale, lo, hi):
    """Mass on (lo, hi] of the Cauchy base mixed by a gamma clock density.

    The integral of a s^-1 e^{-lam s} [atan(hi/(c s)) - atan(lo/(c s))]/pi
    over s > 0, by scipy's adaptive quadrature in u = log s.
    """

    def f(u):
        s = math.exp(u)
        cs = scale * s
        return a * math.exp(-lam * s) * (math.atan(hi / cs) - math.atan(lo / cs)) / math.pi

    lo_u = math.log(1e-14)
    hi_u = math.log(60.0 / lam)
    pts = [math.log(max(abs(lo), 1e-12) / scale), math.log(max(abs(hi), 1e-12) / scale)]
    pts = sorted(p for p in pts if lo_u < p < hi_u)
    # Below s = 1e-14 the Cauchy power puts at most c s / min(|lo|, |hi|) on
    # the interval, so the dropped part is under a c 1e-14 / min(|lo|, |hi|).
    value, _ = integrate.quad(f, lo_u, hi_u, points=pts, epsabs=1e-13, epsrel=1e-11, limit=400)
    return value


def gamma_bar(model):
    """Drift of the subordinated triplet under the standard truncation.

    Zero for the symmetric bases; for a delta base with a gamma clock,
    speed * drift plus the mixed truncated mean a speed (1 - e^{-lam/speed})/lam;
    for a Poisson base on an atomic clock, the atoms' mixture of the Poisson
    mean over the jumps of size at most 1.
    """
    base, clock = model["base"], model["clock"]
    if base[0] in ("gaussian", "cauchy"):
        return 0.0
    if base[0] == "poisson" and clock[0] == "atomic" and model["drift"] == 0.0:
        rate, jump = base[1], base[2]
        total = 0.0
        for p, m in clock[1]:
            mean = rate * p
            for k in range(1, int(math.floor(1.0 / abs(jump))) + 1):
                total += m * k * jump * math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0))
        return total
    if base[0] == "delta" and clock[0] == "gamma":
        a, lam = clock[1], clock[2]
        speed = base[1]
        return speed * model["drift"] + speed * a * (1.0 - math.exp(-lam / speed)) / lam
    raise ValueError("no closed-form drift for this model")


# ---------------------------------------------------------------------------
# Statistical check of a sample against a characteristic function.

# A sample passes when every |ECF - CF| is within Z_BOUND of its standard
# deviation sqrt((1 - |CF|^2) / n). With at most one component carrying the
# whole variance this is a two-sided 6-sigma normal tail, P < 2e-9 per
# theta; the seed sweep in README.md shows the largest score seen.
Z_BOUND = 6.0


def ecf(samples, theta):
    """Empirical CF of the samples on theta, in blocks to bound memory."""
    x = np.asarray(samples, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.size, dtype=complex)
    step = max(1, 2_000_000 // max(theta.size, 1))
    for lo in range(0, x.size, step):
        out += np.exp(1j * np.outer(theta, x[lo : lo + step])).sum(axis=1)
    return out / x.size


def ecf_score(samples, theta, cf):
    """Largest |ECF - CF| over theta in units of its standard deviation."""
    n = np.asarray(samples).size
    cf = np.asarray(cf, dtype=complex)
    sd = np.sqrt(np.maximum(1.0 - np.abs(cf) ** 2, 1e-6) / n)
    return float(np.max(np.abs(ecf(samples, theta) - cf) / sd))
