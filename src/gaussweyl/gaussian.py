"""Gaussian measures, Gauss-Hermite quadrature and Wiener-coordinate sampling.

Measures never materialize a Banach space: a sample IS its finite list of
coordinates ell_{e_1}..ell_{e_n}, extended lazily.  Every computation in the
calculus factors through finitely many coordinates, so nothing more is needed.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

MAX_GH_ORDER = 256
DEFAULT_QUAD_BUDGET = 10**8
# Rows of the tensor grid per block: caps the memory of a tensor quadrature
# (points, weights and the integrand's intermediates) whatever n^m is.
TENSOR_BLOCK = 2**18

# Dedicated sub-stream key for the tail remainder in exact-law sampling of
# ell_a minus its projection (see stochproj); keeps coordinate keys clean.
REMAINDER_KEY = 2**32 - 1


def quad_budget() -> int:
    """Point budget for tensor quadrature; env GAUSSWEYL_QUAD_MAX overrides."""
    raw = os.environ.get("GAUSSWEYL_QUAD_MAX")
    if raw is None:
        return DEFAULT_QUAD_BUDGET
    try:
        return int(float(raw))
    except ValueError as exc:
        raise ValueError(f"GAUSSWEYL_QUAD_MAX is not a number: {raw!r}") from exc


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights integrating exactly against mu_{R,s} up to degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray
    variance: float
    order: int


@functools.lru_cache(maxsize=MAX_GH_ORDER)
def _unit_gh_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes for e^{-t^2} and weights normalized to sum to 1,
    as read-only arrays shared by every caller (numpy's companion-matrix
    solve costs milliseconds per order, and ladders revisit the same orders)."""
    t, w = np.polynomial.hermite.hermgauss(n)
    w = w / w.sum()
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gh_rule(n: int, s: float) -> QuadratureRule:
    """Gauss-Hermite rule for the measure mu_{R,s}.

    Nodes and weights of the e^{-t^2} rule (numpy's hermgauss, cached per
    order) are rescaled by x = sqrt(2 s) t; weights are normalized to sum to
    1 and are read-only.

    Parameters
    ----------
    n : int
        Order, 1 <= n <= 256.
    s : float
        Variance of the target Gaussian measure.

    Returns
    -------
    QuadratureRule
    """
    if not 1 <= n <= MAX_GH_ORDER:
        raise ValueError(f"quadrature order {n} outside [1, {MAX_GH_ORDER}]")
    if not s > 0:
        raise ValueError("variance must be positive")
    t, w = _unit_gh_rule(n)
    return QuadratureRule(nodes=math.sqrt(2.0 * s) * t, weights=w, variance=s, order=n)


def gl_panel_rule(lo: float, hi: float, panels: int, nodes: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [lo, hi] against plain Lebesgue
    measure (weights sum to hi - lo; variance field is 0 as a marker).

    Used where the integrand has edges or oscillation that a single global
    rule would smear: panel boundaries can be placed on the features.
    """
    if hi <= lo:
        raise ValueError("need hi > lo")
    if panels < 1 or nodes < 1:
        raise ValueError("panels and nodes must be >= 1")
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return QuadratureRule(nodes=xs, weights=ws, variance=0.0, order=panels * nodes)


def _check_tensor_budget(order: int, m: int) -> None:
    """Refuse a tensor grid of order^m points above `quad_budget()`."""
    npts = order**m
    if npts > quad_budget():
        raise ValueError(f"tensor quadrature budget exceeded: {order}^{m} = {npts} points")


def _tensor_blocks(rule: QuadratureRule, m: int, rows: int):
    """The tensor grid of `rule` on R^m in blocks of at most `rows` rows, in the
    C order of one meshgrid over m axes (the first axis varies slowest).

    Yields (points, weights): an (r, m) array of nodes and the r products of
    their weights, multiplied left to right."""
    n = rule.order
    size = n**m
    for start in range(0, size, rows):
        flat = np.arange(start, min(start + rows, size))
        points = np.empty((flat.size, m))
        weights = np.ones(flat.size)
        for axis in range(m):
            digit = flat // n ** (m - 1 - axis) % n
            points[:, axis] = rule.nodes[digit]
            weights = weights * rule.weights[digit]
        yield points, weights


def integrate_tensor(f, rule: QuadratureRule, m: int) -> complex:
    """Tensor-product quadrature of f against mu_{R^m, s}.

    f is called on (r, m) arrays of points, r <= TENSOR_BLOCK, and must
    broadcast to a length-r vector (constants are accepted); the sum runs
    block by block, so memory is bounded by the block, not by n^m.

    Raises
    ------
    ValueError
        If n^m exceeds the point budget (GAUSSWEYL_QUAD_MAX, default 1e8).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_tensor_budget(rule.order, m)
    total = 0.0j
    for pts, wts in _tensor_blocks(rule, m, TENSOR_BLOCK):
        total += complex(np.sum(np.asarray(f(pts)) * wts))
    return total


def c_ps(p: float, s: float) -> float:
    """C_{p,s} = sqrt(2s) pi^{-1/(2p)} Gamma((p+1)/2)^{1/p}, the L^p(mu_{B,s})
    norm of ell_b for |b| = 1."""
    return (
        math.sqrt(2.0 * s)
        * math.pi ** (-1.0 / (2.0 * p))
        * math.gamma((p + 1.0) / 2.0) ** (1.0 / p)
    )


def coordinate_stream(stream: int, coord_key: int) -> np.random.Generator:
    """Philox generator keyed by (stream, coordinate); counter-based, so every
    (stream, coordinate) pair is an independent reproducible stream."""
    return np.random.Generator(
        np.random.Philox(key=np.array([stream, coord_key], dtype=np.uint64))
    )


class QuadratureConvergenceError(RuntimeError):
    """Raised when the adaptive order ladder hits its cap without stabilizing."""


# The order ladder's default orders and acceptance tolerances; reports quote
# this block as their quadrature policy.
LADDER_POLICY = {"start": 48, "step": 16, "cap": 192, "rtol": 1e-9, "atol": 1e-10}


def ladder(value_at_order, start: int = LADDER_POLICY["start"], step: int = LADDER_POLICY["step"],
           cap: int = LADDER_POLICY["cap"]):
    """Raise quadrature order until two successive orders agree.

    Acceptance: |v(n+step) - v(n)| <= max(atol, rtol |v(n+step)|) with the
    LADDER_POLICY tolerances.  Returns (value, order_used); raises
    QuadratureConvergenceError past the cap, and before any evaluation when
    start >= cap leaves no second order to compare.
    """
    n = min(start, cap)
    if n == cap:
        raise QuadratureConvergenceError(
            f"order ladder starts at its cap {cap}: no second order to compare"
        )
    prev = value_at_order(n)
    while n < cap:
        n = min(n + step, cap)
        cur = value_at_order(n)
        delta = float(np.max(np.abs(np.asarray(cur) - np.asarray(prev))))
        scale = float(np.max(np.abs(np.asarray(cur))))
        if delta <= max(LADDER_POLICY["atol"], LADDER_POLICY["rtol"] * scale):
            return cur, n
        prev = cur
    raise QuadratureConvergenceError(
        f"order ladder did not stabilize by order {cap}"
    )
