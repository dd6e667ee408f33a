"""Quadrature rules.

One adaptive rule for integrals against a jump-measure density: QUADPACK's
Gauss-Kronrod 7/15 pair (Piessens et al. 1983) on every panel and every
target of a block at once, bisecting only the panels that still need it.
Beside it, the same K15/G7 pair as a fixed rule on given panels (tabulated
cells, and the rule an adaptive integral certified), and an ordered
weighted sum for measures with nodes of their own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

# Panels one integral may hold: the memory bound of its evaluation blocks.
_MAX_PANELS = 2000
_START_PANELS = 8

# QUADPACK qk15 on [-1, 1]: the Kronrod nodes from the edge inward, their K15
# weights, and the 7-point Gauss weights on every second node.
_XK_HALF = (0.99145537112081264, 0.94910791234275852, 0.86486442335976907, 0.74153118559939444,
            0.58608723546769113, 0.40584515137739717, 0.20778495500789847, 0.0)
_WK_HALF = (0.022935322010529225, 0.063092092629978553, 0.10479001032225018, 0.14065325971552592,
            0.16900472663926790, 0.19035057806478541, 0.20443294007529889, 0.20948214108472783)
_WG_HALF = (0.0, 0.12948496616886969, 0.0, 0.27970539148927667, 0.0, 0.38183005050511894,
            0.0, 0.41795918367346939)
_XK = np.concatenate([-np.array(_XK_HALF[:7]), _XK_HALF[::-1]])
_W = np.array([[*half[:7], *half[::-1]] for half in (_WK_HALF, _WG_HALF)])
# A jump closer to a panel edge than the outermost node is invisible to both
# rules, so each panel also samples f at its edges and compares those values
# with the degree-14 interpolant through its nodes; a jump in the unsampled
# margin shows as that difference and costs at most it times the margin.
_TO_EDGES = np.array([[math.prod((x - m) / (xj - m) for m in _XK if m != xj) for xj in _XK]
                      for x in (-1.0, 1.0)])
_NODES = np.concatenate([_XK, [-1.0, 1.0]])


def _kronrod_panels(f, lo, hi):
    """K15 integrals and error estimates on the panels [lo_i, hi_i], as two
    (n_panels, k) arrays, and the trailing shape of f's block.  The error is
    QUADPACK's (|K15 - G7| scaled by the integral of |f - mean|, floored at
    roundoff) plus the bound for a jump in the edge margins."""
    half = 0.5 * (hi - lo)[:, None]
    block = np.asarray(f((0.5 * (lo + hi)[:, None] + half * _NODES).ravel()))
    fx = block.reshape(lo.size, _NODES.size, -1)
    inner = fx[:, :15]
    kron, gauss = (_W @ inner).transpose(1, 0, 2) * half
    spread = _W[0] @ np.abs(inner - 0.5 * kron[:, None] / half[:, None]) * half
    size = _W[0] @ np.abs(inner) * half
    diff = np.abs(kron - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(diff > 0.0, spread * np.minimum(1.0, (200.0 * diff / spread) ** 1.5), 0.0)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * size)
    jump = np.abs(fx[:, 15:] - _TO_EDGES @ inner).sum(axis=1)
    return kron, err + (1.0 - _XK[-1]) * half * jump, block.shape[1:]


def integrate_adaptive(f, lo, hi, *, tol):
    """Integral of f over the finite interval [lo, hi] to absolute tolerance tol.

    f maps an (n,) array of nodes to an (n,) or (n, k) block, real or
    complex; the k columns are targets integrated together on shared panels.
    Every panel whose error on some target exceeds the panel's share (its
    fraction of the width) of max(tol, 1e-9 |value|) is bisected, until none
    does.  Returns (value, abs_error_estimate, edges): the first two with the
    block's trailing shape, edges the final panels' edges in increasing
    order, on which kronrod_nodes gives the rule that reached tol.  At the
    panel cap, raises QuadratureFailure unless the error is within tol.
    """
    edges = np.linspace(lo, hi, _START_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    val, err, shape = _kronrod_panels(f, a, b)
    while True:
        value, total_err = val.sum(axis=0), err.sum(axis=0)
        share = (b - a)[:, None] / (hi - lo) * np.maximum(tol, 1e-9 * np.abs(value))
        split = (err > share).any(axis=1)
        if not split.any():
            break
        if a.size + split.sum() > _MAX_PANELS:
            if not within(value, total_err, tol):
                raise QuadratureFailure(
                    f"integral on [{lo:.4g}, {hi:.4g}] reached error {total_err.max():.3e} "
                    f"> tol {tol:.3e} at {a.size} panels"
                )
            break
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[~split], a[split], mid]), np.concatenate([b[~split], mid, b[split]])
        new_val, new_err, _ = _kronrod_panels(f, a[-2 * mid.size:], b[-2 * mid.size:])
        val, err = np.concatenate([val[~split], new_val]), np.concatenate([err[~split], new_err])
    if not np.isfinite(total_err).all():
        raise QuadratureFailure(f"non-finite integrand on [{lo:.4g}, {hi:.4g}]")
    return value.reshape(shape), total_err.reshape(shape), np.append(np.sort(a), hi)


def within(value, err, tol):
    """Whether a quadrature result at tolerance tol is accepted: every error
    estimate in err at most max(100 tol, 1e-6 |value|), entry by entry."""
    return bool(np.all(err <= np.maximum(100.0 * tol, 1e-6 * np.abs(value))))


def rule_sum(f, nodes, weights, check_weights):
    """(value, abs_error_estimate) of a fixed rule: the sum of weights *
    f(nodes) in node order, so that an atom sum is exact to the last bit, for
    f mapping the (n,) nodes to an (n,) or (n, k) block.  The error is the
    gap to the check rule on the same nodes (the embedded Gauss rule of a
    Kronrod rule; atoms check against themselves) plus 1e-15 sum |w f|,
    each summed row after row (np.add.accumulate) from a zero row, as a
    loop over the rows would, so that an empty rule sums to 0: each
    column's result is the same whatever the width of its block."""
    fx = np.asarray(f(nodes))
    terms = (fx.T * weights).T
    value, check, size = (np.add.accumulate(np.concatenate([np.zeros((1, *fx.shape[1:]), rows.dtype), rows]))[-1]
                          for rows in (terms, (fx.T * check_weights).T, np.abs(terms)))
    return value, np.abs(value - check) + 1e-15 * size


def kronrod_nodes(edges):
    """Composite K15 nodes, K15 weights and embedded G7 weights over consecutive [e_i, e_{i+1}]."""
    edges = np.asarray(edges, dtype=float)[:, None]
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * _XK).ravel(), (half * _W[0]).ravel(), (half * _W[1]).ravel()
