"""Partial heat operators on cylindrical symbols and the anti-Wick quadratic
form built from them.

Heat acts on a phase-space pair (x_j, xi_j) jointly: convolution with the
2-D Gaussian N(0, t I).  On the Gaussian-mixture families this is closed
form (nu -> nu/(1+2 nu t) with an amplitude 1/(1+2 nu t) per heated pair);
on anything else but a box it falls back to Gauss-Hermite convolution.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .basis import CalcContext
from .gaussian import TENSOR_BLOCK, _check_tensor_budget, _tensor_blocks, gh_rule, ladder
from .quadform import quadratic_form
from .symbols import SymbolDescriptor, custom_symbol, eval_ddot, mixture_symbol

MAX_TS_PAIRS = 16


def _validate_pairs(J, d: int) -> frozenset:
    J = frozenset(int(j) for j in J)
    if any(j < 1 or j > d for j in J):
        raise ValueError(f"pair indices must lie in 1..{d}, got {sorted(J)}")
    return J


def heat_apply(sym: SymbolDescriptor, J, t: float) -> SymbolDescriptor:
    """H̃_{D_J, t}: the symbol with heat of variance t on each pair
    (x_j, xi_j), j in J; J = empty set gives sym itself.

    Gaussian mixtures heat in closed form; any other symbol but a box is
    convolved by quadrature when evaluated.  Boxes are refused.
    """
    if sym.family == "box":
        raise ValueError("heat_apply refuses box symbols: no heat law for boxes is implemented")
    if not t > 0:
        raise ValueError(f"heat variance must be > 0, got {t!r}")
    pairs, t = _validate_pairs(J, sym.d), float(t)
    if not pairs:
        return sym
    if sym.mixture_terms is not None:
        terms = []
        for amp, stored in sym.mixture_terms:
            nus = dict(stored)
            for j in pairs:
                nu = nus.get(j, 0.0)
                if nu:
                    amp /= 1.0 + 2.0 * nu * t
                    nus[j] = nu / (1.0 + 2.0 * nu * t)
            terms.append((amp, nus))
        return mixture_symbol(terms, sym.d)

    def evaluator(xb, xib):
        return heat_convolution_eval(sym, pairs, t, xb, xib)

    return custom_symbol(evaluator, sym.d)


def heat_convolution_eval(sym, J, t, x, xi):
    """Generic heated evaluator: 2|J|-dimensional Gaussian convolution of the
    base evaluator by tensor Gauss-Hermite quadrature (the slow dual route to
    the closed forms).  The shifts run in blocks of the tensor grid, each
    block with every point in one call of the base evaluator.  Each shot
    refuses n^(2|J|) shifts above `QUAD_BUDGET`, as `integrate_tensor` does."""
    J = sorted(_validate_pairs(J, sym.d))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if not J:
        return eval_ddot(sym, x, xi)
    cols = np.array(J) - 1
    npts = x.shape[0]

    def value_at(n: int):
        _check_tensor_budget(n, 2 * len(J))
        acc = np.zeros(npts, dtype=complex)
        blocks = _tensor_blocks(gh_rule(n, t), 2 * len(J), max(1, TENSOR_BLOCK // npts))
        for shifts, wts in blocks:
            xs = np.repeat(x[None], len(wts), axis=0)
            xis = np.repeat(xi[None], len(wts), axis=0)
            xs[:, :, cols] -= shifts[:, None, 0::2]
            xis[:, :, cols] -= shifts[:, None, 1::2]
            vals = eval_ddot(sym, xs.reshape(-1, sym.d), xis.reshape(-1, sym.d))
            acc += wts @ np.asarray(vals, dtype=complex).reshape(len(wts), npts)
        return acc

    vals, _ = ladder(value_at, start=32, step=16, cap=96)
    return vals.real if np.allclose(vals.imag, 0.0) else vals


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def ts_operators(sym: SymbolDescriptor, J, lam):
    """The signed heat terms of T̃_{J,h} S̃_{Λ\\J, h} applied to sym, where
    T̃_J = prod_{j in J} (I − H̃_{D_j, h/2}) and S̃_E = prod_{j in E} H̃_{D_j, h/2}.

    Expanding the product gives, for each K ⊆ J, the sign (−1)^{|K|} and heat
    on K ∪ (Λ\\J); returns [(sign, heated pair set)] in subset order.
    """
    J = _validate_pairs(J, sym.d)
    lam = _validate_pairs(lam, sym.d)
    if not J <= lam:
        raise ValueError("J must be a subset of Lambda")
    if len(J) > MAX_TS_PAIRS:
        raise ValueError(f"|J| = {len(J)} exceeds the expansion cap {MAX_TS_PAIRS}")
    rest = lam - J
    out = []
    for K in _subsets(J):
        sign = -1 if len(K) % 2 else 1
        out.append((sign, K | rest))
    return out


def decomposition_residual(sym: SymbolDescriptor, lam, ctx: CalcContext, grid) -> float:
    """max over the grid of |F − sum_{J ⊆ Λ} T̃_J S̃_{Λ\\J} F|.

    The sum telescopes to the identity, so the residual is pure roundoff
    (contract: <= 1e-10).  grid is a pair (x, xi) of (npoints, d) arrays.
    The sum has 3^|Λ| heated terms, so |Λ| > MAX_TS_PAIRS is refused before
    any term is evaluated.
    """
    lam = _validate_pairs(lam, sym.d)
    if len(lam) > MAX_TS_PAIRS:
        raise ValueError(
            f"--lam names {len(lam)} pairs; the expansion cap is {MAX_TS_PAIRS} "
            "(the residual sums 3^|Lambda| heated terms)"
        )
    x, xi = grid
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    target = np.asarray(eval_ddot(sym, x, xi, ctx), dtype=complex)
    acc = np.zeros_like(target)
    for J in _subsets(lam):
        for sign, pairs in ts_operators(sym, J, lam):
            heated = heat_apply(sym, pairs, ctx.h / 2.0)
            acc = acc + sign * np.asarray(eval_ddot(heated, x, xi, ctx), dtype=complex)
    return float(np.max(np.abs(target - acc)))


def antiwick_form(sym: SymbolDescriptor, f: dict, g: dict, ctx: CalcContext) -> complex:
    """Q^AW(F)(f, g): the Weyl form of the symbol heated at t = h/2 on every
    pair.  Nonnegative symbols give nonnegative forms (f = g)."""
    if sym.family == "box":
        raise ValueError("the anti-Wick form needs a smooth symbol")
    return quadratic_form(heat_apply(sym, range(1, sym.d + 1), ctx.h / 2.0), f, g, ctx)

