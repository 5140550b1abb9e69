"""The defining-integral route of operator matrix elements, kept as a dual
route for the tests.

It is the tensor Gauss-Hermite ladder of the library's custom-symbol route,
with each per-pair Wigner factor W(psi_a, psi_b)(x, xi) taken from its
defining integral on an inner Gauss-Hermite rule (`wigner_on_rule`) instead
of the closed Laguerre form.  Unlike `oracles`, it is built from the
library's own quadrature pieces; what makes it independent is the Wigner
factor, which never touches the Laguerre recurrence.
"""

from __future__ import annotations

import numpy as np

from gaussweyl.basis import hermite_eval
from gaussweyl import gaussian
from gaussweyl.gaussian import LADDER_POLICY, MAX_GH_ORDER, gh_rule, integrate_tensor, ladder
from gaussweyl.symbols import eval_ddot
from gaussweyl.wigner import wigner_on_rule


def _shot(sym, alpha, beta, ctx, n: int) -> complex:
    d = sym.d
    rule = gh_rule(n, ctx.h / 2.0)

    def f(pts):
        x = pts[:, :d]
        xi = pts[:, d:]
        vals = np.asarray(eval_ddot(sym, x, xi, ctx), dtype=complex)
        for i in range(1, d + 1):
            a_i, b_i = alpha[i - 1], beta[i - 1]
            if a_i or b_i:
                # e^{xi^2/h} amplifies the inner rule's error at the outer
                # nodes, so the inner order grows with the outer one
                inner = gh_rule(max(64, 2 * (max(a_i, b_i) + 1) + 16, 2 * n), ctx.h / 2.0)
                w = wigner_on_rule(
                    lambda t: hermite_eval(a_i, t, ctx),
                    lambda t: hermite_eval(b_i, t, ctx),
                    x[:, i - 1],
                    xi[:, i - 1],
                    ctx,
                    inner,
                )
                vals = vals * w
        return vals

    return complex(integrate_tensor(f, rule, 2 * d))


def element(sym, alpha, beta, ctx):
    """(I_{alpha beta}(F), accepted outer order) on the order ladder over all
    2d coordinates of the symbol's pairs, for degree tuples alpha and beta.
    The outer cap is halved, so the inner rule at twice the outer order
    stays within gh_rule's orders."""
    alpha, beta = ((*t, *[0] * (sym.d - len(t))) for t in (alpha, beta))
    maxdeg = max(*alpha[: sym.d], *beta[: sym.d])
    cap = min(LADDER_POLICY["cap"], int(gaussian.QUAD_BUDGET ** (1.0 / (2 * sym.d))), MAX_GH_ORDER // 2)
    start = min(2 * (maxdeg + 1) + 16, cap)
    return ladder(lambda n: _shot(sym, alpha, beta, ctx, n), start=start, cap=cap)
