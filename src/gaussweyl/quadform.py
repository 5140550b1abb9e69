"""Operator matrix elements, quadratic forms and Hermitian eigensolving.

The central object is the matrix element

    I_{alpha beta}(F) = int F(x, xi) prod_j W(psi_{alpha_j}, psi_{beta_j})(x_j, xi_j)
                        dmu_{R^{2d}, h/2}(x, xi),

the (alpha, beta) entry of the operator with symbol F in the Hermite basis.
Coordinates beyond the symbol's base dimension d integrate to delta factors,
so entries with alpha_j != beta_j for some j > d vanish identically; per-pair
radial symbols kill every off-diagonal entry the same way.
"""

from __future__ import annotations

import math

import numpy as np

from . import gaussian
from .basis import CalcContext, TruncationSet
from .gaussian import LADDER_POLICY, gh_rule, integrate_tensor, ladder
from .symbols import eval_ddot
from .wigner import _box_matrix, wigner_closed

# States of a dense section; a diagonal section keeps one degree row and one
# real value per state, so it takes a larger cap.
MAX_MATRIX_SIZE = 4096
MAX_DIAGONAL_SIZE = 1 << 18


# ---------------------------------------------------------------------------
# Matrix elements.  A basis element psi_alpha is its degree tuple alpha
# (pair 1 first, trailing zeros implicit: (1,) and (1, 0) name the same
# element), and a finite expansion sum_alpha c_alpha psi_alpha is the dict
# {alpha: c_alpha}.
# ---------------------------------------------------------------------------

ROUTE_CLOSED = "closed: Gaussian-mixture diagonal law"
ROUTE_BOX = "box panels"
ROUTE_QUARTER = "closed: quarter-plane 2F1 recurrence"
ROUTE_LADDER = "tensor ladder"


def section_route(sym) -> str:
    """The route that computes matrix elements of `sym`: the closed diagonal
    law for Gaussian mixtures, for finite boxes one checked panel sweep of
    the classical table over [0, lambda a) x [0, a/lambda) (degrees <= 1024),
    the closed quarter plane for box(inf) (degrees <= 4096), and the tensor
    Gauss-Hermite ladder otherwise."""
    if sym.family == "box":
        return ROUTE_QUARTER if math.isinf(sym.a) else ROUTE_BOX
    if sym.mixture_terms is not None:
        return ROUTE_CLOSED
    return ROUTE_LADDER


def _finite_rate(u: float, nu: float, h: float) -> float:
    """u = nu h of a Gaussian rate nu; a u that overflows is a usage error."""
    if not math.isfinite(u):
        raise ValueError(f"nu h must be finite, got the Gaussian rate nu = {nu!r} and --h {h!r}")
    return u


def _mixture_diagonal(terms, degrees: np.ndarray, h: float) -> np.ndarray:
    """I_aa = sum_k c_k prod_j (1 - nu_kj h)^{a_j} / (1 + nu_kj h)^{a_j + 1}
    for the stored mixture sum_k c_k prod_j e^{-nu_kj r_j^2} (`mixture_terms`),
    one row a of `degrees` per basis element; pairs beyond its columns have
    degree 0.  The ratio
    (1 - u)/(1 + u) has modulus <= 1, so its powers cannot overflow; an
    overflowing u itself is refused."""
    out = np.zeros(len(degrees))
    for c, pairs in terms:
        term = np.full(len(degrees), c)
        for j, nu in pairs:
            u = _finite_rate(nu * h, nu, h)
            a = degrees[:, j - 1] if j <= degrees.shape[1] else 0
            term *= ((1.0 - u) / (1.0 + u)) ** a / (1.0 + u)
        out += term
    return out


def _tensor_shot(sym, alpha, beta, ctx, n: int) -> complex:
    d = sym.d
    rule = gh_rule(n, ctx.h / 2.0)

    def f(pts):
        x = pts[:, :d]
        xi = pts[:, d:]
        vals = np.asarray(eval_ddot(sym, x, xi, ctx), dtype=complex)
        for i in range(d):
            if alpha[i] or beta[i]:
                vals = vals * wigner_closed(alpha[i], beta[i], x[:, i], xi[:, i], ctx)
        return vals

    return complex(integrate_tensor(f, rule, 2 * d))


def _tensor_element(sym, alpha, beta, ctx):
    """(I_{alpha beta}, accepted order) on the tensor Gauss-Hermite ladder
    over the symbol's 2d coordinates; alpha and beta are degree rows of
    length >= sym.d, and entries beyond sym.d are not read."""
    maxdeg = max(*alpha[: sym.d], *beta[: sym.d])
    cap = min(LADDER_POLICY["cap"], int(gaussian.QUAD_BUDGET ** (1.0 / (2 * sym.d))))
    start = min(2 * (maxdeg + 1) + 16, cap)
    return ladder(lambda n: _tensor_shot(sym, alpha, beta, ctx, n), start=start, cap=cap)


def _refuse_dense(size: int) -> None:
    if size > MAX_MATRIX_SIZE:
        raise ValueError(f"truncation has {size} elements; the dense-matrix cap is {MAX_MATRIX_SIZE}")


def _entries(sym, rows, cols, ctx: CalcContext):
    """(I_{alpha beta} for alpha in rows, beta in cols; largest ladder order).
    rows and cols are sequences of degree tuples, or the (size, dims) array
    `TruncationSet.degrees`; each is zero-padded to the width of the longest
    row and the symbol's d, and a negative degree is refused.
    Entries whose degrees differ beyond sym.d are zero (delta factors).
    Boxes read one `_box_matrix` of their rectangle in (u, v) = (x, xi)/lambda,
    lambda = sqrt(2 pi h); the closed route fills its diagonal law where row
    and column match, and the tensor ladder runs entry by entry."""
    _refuse_dense(max(len(rows), len(cols)))
    d = sym.d
    width = max([d, *map(len, rows), *map(len, cols)])
    R, C = (np.array([[*t, *[0] * (width - len(t))] for t in idxs], dtype=int)
            .reshape(len(idxs), width) for idxs in (rows, cols))
    if R.min(initial=0) < 0 or C.min(initial=0) < 0:
        raise ValueError("degrees must be nonnegative")
    route = section_route(sym)
    if route in (ROUTE_BOX, ROUTE_QUARTER):
        top = max(R[:, 0].max(initial=0), C[:, 0].max(initial=0))
        lam = math.sqrt(2.0 * math.pi * ctx.h)
        table, order, _ = _box_matrix(int(top), lam * sym.a, sym.a / lam)
        out = table[np.ix_(R[:, 0], C[:, 0])]
        out[np.any(R[:, None, d:] != C[None, :, d:], axis=2)] = 0.0
        return out, order
    if route == ROUTE_CLOSED:
        diagonal = _mixture_diagonal(sym.mixture_terms, R, ctx.h).astype(complex)
        match = np.all(R[:, None, :] == C[None, :, :], axis=2)
        return np.where(match, diagonal[:, None], 0.0j), 0
    out = np.zeros((len(R), len(C)), dtype=complex)
    max_order = 0
    for p, a in enumerate(R.tolist()):
        for q, b in enumerate(C.tolist()):
            if a[d:] != b[d:]:
                continue  # a delta factor beyond the symbol's pairs
            out[p, q], order = _tensor_element(sym, a, b, ctx)
            max_order = max(max_order, order)
    return out, max_order


def matrix_element(sym, alpha, beta, ctx: CalcContext):
    """I_{alpha beta}(F): the (alpha, beta) matrix entry of the operator with
    symbol `sym`, by the route section_route(sym); alpha and beta are degree
    tuples.

    Entries with alpha_j != beta_j at a coordinate beyond the symbol's base
    dimension vanish identically and are returned as exact zeros.
    """
    table, _ = _entries(sym, [alpha], [beta], ctx)
    return complex(table[0, 0])


def assemble_matrix(sym, truncation: TruncationSet, ctx: CalcContext) -> tuple[np.ndarray, dict]:
    """(section, meta): all I_{alpha beta} over a graded truncation set, and
    the one provenance record reports print (symbol, h, route, orders).

    Gaussian mixtures give a diagonal section, a real 1-D array evaluated by
    the closed law in one pass over the truncation's degree array, up to
    MAX_DIAGONAL_SIZE states; no dense matrix is built (`opmatrix` spells its
    rows from the diagonal).  Other sections are dense complex 2-D arrays, up
    to MAX_MATRIX_SIZE states, from the entry builder `_entries`: finite boxes
    from one checked sweep of the classical table, box(inf) from the closed
    quarter plane, custom symbols entry by entry on the tensor ladder.
    """
    size = truncation.size
    route = section_route(sym)
    if route == ROUTE_CLOSED:
        if size > MAX_DIAGONAL_SIZE:
            raise ValueError(
                f"truncation has {size} elements; the diagonal-section cap is {MAX_DIAGONAL_SIZE}"
            )
        section = _mixture_diagonal(sym.mixture_terms, truncation.degrees, ctx.h)
        max_order, structural = 0, size * (size - 1) // 2
    else:
        _refuse_dense(size)  # before the degree array is built
        degrees = truncation.degrees
        (section, max_order), structural = _entries(sym, degrees, degrees, ctx), 0
    try:
        text = sym.text()
    except ValueError:
        text = f"<{sym.family}>"
    meta = {
        "symbol": text,
        "h": ctx.h,
        "N": truncation.max_degree,
        "d": truncation.dims,
        "basis_size": size,
        "route": route,
        "quadrature_order": max_order,
        "structural_zeros": structural,
    }
    return section, meta


def quadratic_form(sym, f: dict, g: dict, ctx: CalcContext) -> complex:
    """<Op(F) f, g> = sum_{alpha,beta} c_alpha conj(c'_beta) I_{alpha beta}
    for expansions f = {alpha: c_alpha} and g = {beta: c'_beta}."""
    table, _ = _entries(sym, [a for a, _ in f.items()], [b for b, _ in g.items()], ctx)
    fc = np.array([c for _, c in f.items()], dtype=complex)
    gc = np.array([c for _, c in g.items()], dtype=complex)
    return complex(np.sum(np.multiply.outer(fc, np.conj(gc)) * table))


def eig_hermitian(section: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian operator section; a diagonal
    (1-D) section gives its sorted values.

    Raises if a dense section's Hermiticity defect exceeds 1e-8 relative to
    the norm.
    """
    if section.ndim == 1:
        return np.sort(section)
    defect = float(np.linalg.norm(section - section.conj().T)) / max(1.0, float(np.linalg.norm(section)))
    if defect > 1e-8:
        raise ValueError(f"matrix is not Hermitian (relative defect {defect:.3e})")
    return np.linalg.eigvalsh(0.5 * (section + section.conj().T))

