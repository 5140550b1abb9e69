"""Partial heat operators on cylindrical symbols and the anti-Wick quadratic
form built from them.

Heat acts on a phase-space pair (x_j, xi_j) jointly: convolution with the
2-D Gaussian N(0, t I).  On the Gaussian-mixture families this is closed
form (nu -> nu/(1+2 nu t) with an amplitude 1/(1+2 nu t) per heated pair),
on interval indicators it is a product of Gaussian CDF differences, and on
anything else it falls back to Gauss-Hermite convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import CalcContext
from .gaussian import TENSOR_BLOCK, _check_tensor_budget, _tensor_blocks, gh_rule, ladder
from .quadform import HermiteExpansion, quadratic_form
from .symbols import SymbolDescriptor, custom_symbol, eval_ddot, mixture_symbol

MAX_TS_PAIRS = 16

_erf = np.vectorize(math.erf, otypes=[float])


def _validate_pairs(J, d: int) -> frozenset:
    J = frozenset(int(j) for j in J)
    if any(j < 1 or j > d for j in J):
        raise ValueError(f"pair indices must lie in 1..{d}, got {sorted(J)}")
    return J


@dataclass(frozen=True)
class HeatedSymbol:
    """A symbol with heat of variance t applied to the pairs in heated_pairs.

    For mixture-representable bases the heated evaluator is closed form;
    for boxes it is a product of Gaussian CDF differences; for custom bases
    it is Gaussian convolution by quadrature.
    """

    base: SymbolDescriptor
    heated_pairs: frozenset
    t: float

    @property
    def d(self) -> int:
        return self.base.d

    def descriptor(self, ctx: CalcContext | None = None) -> SymbolDescriptor:
        """The concrete heated symbol, ready for evaluation and matrix work."""
        if not self.heated_pairs:
            return self.base
        mix = self.base.gauss_mixture()
        if mix is not None:
            terms = []
            for c, nus in mix:
                amp = float(c)
                heated = dict(nus)
                for j in self.heated_pairs:
                    nu = nus.get(j, 0.0)
                    if nu:
                        amp /= 1.0 + 2.0 * nu * self.t
                        heated[j] = nu / (1.0 + 2.0 * nu * self.t)
                terms.append((amp, heated))
            return mixture_symbol(terms, self.base.d)
        if self.base.family == "box":
            if ctx is None:
                raise ValueError("heated box symbols need a CalcContext (x-side length is 2 pi h a)")
            xlen = 2.0 * math.pi * ctx.h * self.base.a
            ylen = self.base.a
            t = self.t

            def cdf_diff(u, length):
                scale = 1.0 / math.sqrt(2.0 * t)
                upper = (
                    np.ones_like(u)
                    if math.isinf(length)
                    else 0.5 * (1.0 + _erf((length - u) * scale))
                )
                lower = 0.5 * (1.0 + _erf((0.0 - u) * scale))
                return upper - lower

            def evaluator(xb, xib):
                return cdf_diff(np.asarray(xb)[..., 0], xlen) * cdf_diff(
                    np.asarray(xib)[..., 0], ylen
                )

            return custom_symbol(evaluator, d=1, smooth=True, bounded=True)
        base, pairs, t, d = self.base, self.heated_pairs, self.t, self.base.d

        def evaluator(xb, xib):
            return heat_convolution_eval(base, pairs, t, xb, xib, ctx)

        return custom_symbol(evaluator, d=d, smooth=base.smooth, bounded=base.bounded)

    def eval(self, x, xi, ctx: CalcContext | None = None):
        return eval_ddot(self.descriptor(ctx), x, xi, ctx)


def heat_apply(sym: SymbolDescriptor, J, t: float) -> HeatedSymbol:
    """H̃_{D_J, t}: heat of variance t on each pair (x_j, xi_j), j in J.

    J = empty set is the identity (still wrapped, for uniform handling).
    """
    if not t > 0:
        raise ValueError(f"heat variance must be > 0, got {t!r}")
    return HeatedSymbol(base=sym, heated_pairs=_validate_pairs(J, sym.d), t=float(t))


def heat_convolution_eval(sym, J, t, x, xi, ctx=None):
    """Generic heated evaluator: 2|J|-dimensional Gaussian convolution of the
    base evaluator by tensor Gauss-Hermite quadrature (the slow dual route to
    the closed forms).  The shifts run in blocks of the tensor grid, each
    block with every point in one call of the base evaluator.  Each shot
    refuses n^(2|J|) shifts above `quad_budget()`, as `integrate_tensor` does."""
    J = sorted(_validate_pairs(J, sym.d))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if not J:
        return eval_ddot(sym, x, xi, ctx)
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
            vals = eval_ddot(sym, xs.reshape(-1, sym.d), xis.reshape(-1, sym.d), ctx)
            acc += wts @ np.asarray(vals, dtype=complex).reshape(len(wts), npts)
        return acc

    vals, _ = ladder(value_at, start=32, step=16, cap=96)
    return vals.real if np.allclose(vals.imag, 0.0) else vals


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def ts_operators(sym: SymbolDescriptor, J, lam, ctx: CalcContext):
    """The signed heat terms of T̃_{J,h} S̃_{Λ\\J, h} applied to sym, where
    T̃_J = prod_{j in J} (I − H̃_{D_j, h/2}) and S̃_E = prod_{j in E} H̃_{D_j, h/2}.

    Expanding the product gives, for each K ⊆ J, the sign (−1)^{|K|} and heat
    on K ∪ (Λ\\J); returns [(sign, HeatedSymbol)] in subset order.
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
        out.append((sign, HeatedSymbol(base=sym, heated_pairs=K | rest, t=ctx.h / 2.0)))
    return out


def decomposition_residual(sym: SymbolDescriptor, lam, ctx: CalcContext, grid) -> float:
    """max over the grid of |F − sum_{J ⊆ Λ} T̃_J S̃_{Λ\\J} F|.

    The sum telescopes to the identity, so the residual is pure roundoff
    (contract: <= 1e-10).  grid is a pair (x, xi) of (npoints, d) arrays.
    """
    lam = _validate_pairs(lam, sym.d)
    x, xi = grid
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    target = np.asarray(eval_ddot(sym, x, xi, ctx), dtype=complex)
    acc = np.zeros_like(target)
    for J in _subsets(lam):
        for sign, hs in ts_operators(sym, J, lam, ctx):
            acc = acc + sign * np.asarray(hs.eval(x, xi, ctx), dtype=complex)
    return float(np.max(np.abs(target - acc)))


def antiwick_form(
    sym: SymbolDescriptor,
    f: HermiteExpansion,
    g: HermiteExpansion,
    ctx: CalcContext,
) -> complex:
    """Q^AW(F)(f, g): the Weyl form of the symbol heated at t = h/2 on every
    pair.  Nonnegative symbols give nonnegative forms (f = g)."""
    if not sym.smooth:
        raise ValueError("the anti-Wick form needs a smooth symbol")
    heated = heat_apply(sym, range(1, sym.d + 1), ctx.h / 2.0)
    return quadratic_form(heated.descriptor(ctx), f, g, ctx)

