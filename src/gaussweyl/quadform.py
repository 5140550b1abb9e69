"""Operator matrix elements, quadratic forms, and the rotation identities.

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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import CalcContext, MultiIndex, TruncationSet, hermite_eval
from .gaussian import LADDER_POLICY, gh_rule, integrate_tensor, ladder, quad_budget
from .symbols import SymbolDescriptor, custom_symbol, eval_ddot
from .wigner import MAX_FLANDRIN_N, _classical_rect_doubled, wigner_closed, wigner_on_rule

MAX_MATRIX_SIZE = 4096


def _as_index(a) -> MultiIndex:
    return a if isinstance(a, MultiIndex) else MultiIndex.from_tuple(tuple(a))


# ---------------------------------------------------------------------------
# Polynomials in one (x, xi) pair, with an exact rotation derivative.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly2:
    """Polynomial in a single phase-space pair: sum of c * x^i xi^j terms.

    Carries the rotation derivative rot = x d/dxi - xi d/dx in closed form,
    which keeps the integration-by-parts checks free of finite differencing.
    """

    terms: tuple[tuple[tuple[int, int], complex], ...]

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], complex]) -> "Poly2":
        items = tuple(
            sorted(((ij, complex(c)) for ij, c in d.items() if c != 0))
        )
        return cls(terms=items)

    def eval(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(np.broadcast(x, xi).shape, dtype=complex)
        for (i, j), c in self.terms:
            out = out + c * x**i * xi**j
        return out

    def __call__(self, xblock, xiblock):
        # evaluator form used by custom symbols: blocks of shape (npoints, 1)
        return self.eval(np.asarray(xblock)[..., 0], np.asarray(xiblock)[..., 0])

    def rot(self) -> "Poly2":
        """x d/dxi - xi d/dx, exactly."""
        acc: dict[tuple[int, int], complex] = {}
        for (i, j), c in self.terms:
            if j:
                key = (i + 1, j - 1)
                acc[key] = acc.get(key, 0.0) + c * j
            if i:
                key = (i - 1, j + 1)
                acc[key] = acc.get(key, 0.0) - c * i
        return Poly2.from_dict(acc)

    def rot_power(self, n: int) -> "Poly2":
        p = self
        for _ in range(n):
            p = p.rot()
        return p

    def degree(self) -> int:
        return max((i + j for (i, j), _ in self.terms), default=0)


def poly_symbol(poly: Poly2) -> SymbolDescriptor:
    """A d=1 custom symbol whose evaluator is a Poly2 (unbounded)."""
    return custom_symbol(poly, d=1, smooth=True, bounded=False)


# ---------------------------------------------------------------------------
# Hermite expansions and operator matrices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermiteExpansion:
    """Finite expansion sum_alpha c_alpha psi_alpha in the Hermite basis."""

    coeffs: tuple[tuple[MultiIndex, complex], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "HermiteExpansion":
        if isinstance(pairs, dict):
            pairs = pairs.items()
        seen: dict[MultiIndex, complex] = {}
        for idx, c in pairs:
            idx = _as_index(idx)
            seen[idx] = seen.get(idx, 0.0) + complex(c)
        items = tuple(sorted(seen.items(), key=lambda kv: (kv[0].total(), kv[0].as_tuple(kv[0].max_coordinate() or 1))))
        return cls(coeffs=items)

    @classmethod
    def single(cls, idx, c: complex = 1.0) -> "HermiteExpansion":
        return cls.from_pairs([(idx, c)])

    def items(self):
        return self.coeffs

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for _, c in self.coeffs))

    def dims(self) -> int:
        return max((idx.max_coordinate() for idx, _ in self.coeffs), default=0)


@dataclass
class OperatorMatrix:
    """Assembled matrix of I_{alpha beta} over a truncation set, with the
    bookkeeping needed to reproduce it (symbol text, h, route, orders).

    A diagonal section carries `diagonal` and builds the dense `entries`
    only when they are read; other sections carry `dense`."""

    truncation: TruncationSet
    symbol_text: str
    h: float
    d: int
    meta: dict = field(default_factory=dict)
    diagonal: np.ndarray | None = None
    dense: np.ndarray | None = field(default=None, repr=False)

    @property
    def entries(self) -> np.ndarray:
        if self.dense is None:
            self.dense = np.diag(self.diagonal)
        return self.dense

    @property
    def size(self) -> int:
        return self.truncation.size


# ---------------------------------------------------------------------------
# Matrix elements.
# ---------------------------------------------------------------------------

ROUTE_CLOSED = "closed: Gaussian-mixture diagonal law"
ROUTE_BOX = "box panels"
ROUTE_LADDER = "tensor ladder"


def section_route(sym, wigner_route: str = "closed") -> str:
    """The route that computes matrix elements of `sym`: the closed diagonal
    law for Gaussian mixtures (closed Wigner route only), for boxes one
    doubled panel sweep of the classical table over [0, lambda a) x
    [0, a/lambda) (degrees <= 128), and the tensor Gauss-Hermite ladder
    otherwise."""
    if sym.family == "box":
        return ROUTE_BOX
    if wigner_route == "closed" and sym.gauss_mixture() is not None:
        return ROUTE_CLOSED
    return ROUTE_LADDER


def _mixture_diagonal(mix, degrees: np.ndarray, h: float) -> np.ndarray:
    """I_aa = sum_k c_k prod_j (1 - nu_kj h)^{a_j} / (1 + nu_kj h)^{a_j + 1}
    for the mixture sum_k c_k prod_j e^{-nu_kj r_j^2}, one row a of `degrees`
    per basis element; pairs beyond its columns have degree 0.  The ratio
    (1 - u)/(1 + u) has modulus <= 1, so its powers cannot overflow."""
    out = np.zeros(len(degrees))
    for c, nus in mix:
        term = np.full(len(degrees), float(c))
        for j, nu in nus.items():
            u = nu * h
            a = degrees[:, j - 1] if j <= degrees.shape[1] else 0
            term *= ((1.0 - u) / (1.0 + u)) ** a / (1.0 + u)
        out += term
    return out


def _tensor_shot(sym, alpha, beta, ctx, n: int, wigner_route: str) -> complex:
    d = sym.d
    rule = gh_rule(n, ctx.h / 2.0)

    def f(pts):
        x = pts[:, :d]
        xi = pts[:, d:]
        vals = np.asarray(eval_ddot(sym, x, xi, ctx), dtype=complex)
        for i in range(1, d + 1):
            a_i, b_i = alpha.degree(i), beta.degree(i)
            if a_i or b_i:
                if wigner_route == "closed":
                    w = wigner_closed(a_i, b_i, x[:, i - 1], xi[:, i - 1], ctx)
                else:
                    inner = gh_rule(max(64, 2 * (max(a_i, b_i) + 1) + 16), ctx.h / 2.0)
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


def _tensor_element(sym, alpha, beta, ctx, wigner_route="closed"):
    maxdeg = max(
        [alpha.degree(i) for i in range(1, sym.d + 1)]
        + [beta.degree(i) for i in range(1, sym.d + 1)]
        + [0]
    )
    cap = min(LADDER_POLICY["cap"], int(quad_budget() ** (1.0 / (2 * sym.d))))
    start = min(2 * (maxdeg + 1) + 16, cap)
    return ladder(
        lambda n: _tensor_shot(sym, alpha, beta, ctx, n, wigner_route),
        start=start,
        cap=cap,
    )


def _box_table(sym, N: int, ctx: CalcContext, wigner_route: str = "closed"):
    """The one-pair section of box(a), 0 <= j,k <= N, and the points per axis
    of its accepted rule.  (x, xi) = lambda (u, v), lambda = sqrt(2 pi h),
    turns W(psi_j, psi_k) e^{-r^2/h} dx dxi / (pi h) into W_cl(phi_j, phi_k)
    du dv and the box into the rectangle [0, lambda a) x [0, a/lambda)."""
    if wigner_route != "closed":
        raise ValueError("box matrix elements support only the closed Wigner route")
    if N > MAX_FLANDRIN_N:
        raise ValueError(f"box sections need Hermite degree <= {MAX_FLANDRIN_N}, got {N}")
    lam = math.sqrt(2.0 * math.pi * ctx.h)
    table, points, _ = _classical_rect_doubled(N, lam * sym.a, sym.a / lam)
    return table, max(points)


def _entries(sym, rows, cols, ctx: CalcContext, wigner_route="closed", hermitian=False):
    """(I_{alpha beta} for alpha in rows, beta in cols; largest ladder order;
    structural zeros).  Entries whose degrees differ beyond sym.d are zero
    (delta factors).  Boxes read one `_box_table`, the closed route fills its
    diagonal law where row and column match, and the tensor ladder skips (and
    counts) the off-diagonal entries of per-pair radial symbols; with
    `hermitian` (rows == cols) it computes the upper triangle only."""
    rows = [_as_index(a) for a in rows]
    cols = [_as_index(b) for b in cols]
    d = sym.d
    width = max([d] + [idx.max_coordinate() for idx in rows + cols])
    R, C = (np.array([[idx.degree(i) for i in range(1, width + 1)] for idx in idxs], dtype=int)
            .reshape(len(idxs), width) for idxs in (rows, cols))
    route = section_route(sym, wigner_route)
    if route == ROUTE_BOX:
        top = max(R[:, 0].max(initial=0), C[:, 0].max(initial=0))
        table, order = _box_table(sym, int(top), ctx, wigner_route)
        out = table[np.ix_(R[:, 0], C[:, 0])]
        out[np.any(R[:, None, d:] != C[None, :, d:], axis=2)] = 0.0
        return out, order, 0
    if route == ROUTE_CLOSED:
        diagonal = _mixture_diagonal(sym.gauss_mixture(), R, ctx.h).astype(complex)
        match = np.all(R[:, None, :] == C[None, :, :], axis=2)
        return np.where(match, diagonal[:, None], 0.0j), 0, 0
    pairwise_radial = sym.is_pairwise_radial()
    row_tails = [tuple(t) for t in R[:, d:].tolist()]
    col_tails = [tuple(t) for t in C[:, d:].tolist()]
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    max_order = structural = 0
    for p, a in enumerate(rows):
        for q in range(p if hermitian else 0, len(cols)):
            b = cols[q]
            if pairwise_radial and a != b:
                structural += 1
                continue
            if row_tails[p] != col_tails[q]:
                continue  # a delta factor beyond the symbol's pairs
            out[p, q], order = _tensor_element(sym, a, b, ctx, wigner_route)
            max_order = max(max_order, order)
            if hermitian and q > p:
                out[q, p] = np.conjugate(out[p, q])
    return out, max_order, structural


def matrix_element(sym, alpha, beta, ctx: CalcContext, wigner_route="closed"):
    """I_{alpha beta}(F): the (alpha, beta) matrix entry of the operator with
    symbol `sym`.

    Entries with alpha_j != beta_j at a coordinate beyond the symbol's base
    dimension vanish identically and are returned as exact zeros.  The route
    is section_route(sym, wigner_route); on the tensor ladder,
    wigner_route="quadrature" computes the per-pair Wigner factors from the
    defining integral instead of the closed form.
    """
    table, _, _ = _entries(sym, [alpha], [beta], ctx, wigner_route)
    return complex(table[0, 0])


def assemble_matrix(
    sym,
    truncation: TruncationSet,
    ctx: CalcContext,
    wigner_route="closed",
) -> OperatorMatrix:
    """All I_{alpha beta} over a graded truncation set.

    Gaussian mixtures on the closed Wigner route give a diagonal section,
    evaluated by the closed law in one pass over the truncation's degree
    array; no dense matrix is built until `entries` is read.  Other sections
    are dense, from the entry builder `_entries`: boxes from one sweep of
    the classical table, custom symbols and the quadrature Wigner route
    entry by entry, non-custom symbols filling the lower triangle by
    Hermitian symmetry.
    """
    if truncation.size > MAX_MATRIX_SIZE:
        raise ValueError(
            f"truncation has {truncation.size} elements; the dense-matrix cap is {MAX_MATRIX_SIZE}"
        )
    size = truncation.size
    route = section_route(sym, wigner_route)
    diagonal = dense = None
    if route == ROUTE_CLOSED:
        diagonal = _mixture_diagonal(sym.gauss_mixture(), truncation.degrees, ctx.h).astype(complex)
        max_order, structural = 0, size * (size - 1) // 2
    else:
        idxs = truncation.indices()
        dense, max_order, structural = _entries(sym, idxs, idxs, ctx, wigner_route,
                                                hermitian=sym.family != "custom")
    try:
        text = sym.text()
    except ValueError:
        text = f"<{sym.family}>"
    meta = {
        "route": route,
        "wigner_route": wigner_route,
        "max_order": max_order,
        "structural_zeros": structural,
        "pairwise_radial": sym.is_pairwise_radial(),
    }
    return OperatorMatrix(truncation=truncation, symbol_text=text, h=ctx.h, d=sym.d, meta=meta,
                          diagonal=diagonal, dense=dense)


def quadratic_form(sym, f: HermiteExpansion, g: HermiteExpansion, ctx: CalcContext, wigner_route="closed") -> complex:
    """<Op(F) f, g> = sum_{alpha,beta} c_alpha conj(c'_beta) I_{alpha beta}."""
    table, _, _ = _entries(sym, [a for a, _ in f.items()], [b for b, _ in g.items()], ctx, wigner_route)
    fc = np.array([c for _, c in f.items()], dtype=complex)
    gc = np.array([c for _, c in g.items()], dtype=complex)
    return complex(np.sum(np.multiply.outer(fc, np.conj(gc)) * table))


def eig_hermitian(matrix) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (OperatorMatrix or array);
    a diagonal-only OperatorMatrix gives its sorted real diagonal.

    Raises if the Hermiticity defect exceeds 1e-8 relative to the norm.
    """
    diagonal = isinstance(matrix, OperatorMatrix) and matrix.diagonal is not None
    if diagonal:
        A = np.asarray(matrix.diagonal, dtype=complex)
    else:
        A = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("expected a square matrix")
    # on a diagonal, A - A^H is 2i Im(A)
    skew = 2.0 * A.imag if diagonal else A - A.conj().T
    defect = float(np.linalg.norm(skew)) / max(1.0, float(np.linalg.norm(A)))
    if defect > 1e-8:
        raise ValueError(f"matrix is not Hermitian (relative defect {defect:.3e})")
    return np.sort(A.real) if diagonal else np.linalg.eigvalsh(0.5 * (A + A.conj().T))


# ---------------------------------------------------------------------------
# Integration-by-parts (rotation) identities.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IppResult:
    lhs: complex
    rhs: complex
    residual: float
    method: str
    fd_warning: bool = False

    def __iter__(self):
        return iter((self.lhs, self.rhs, self.residual))


def _fd_rot(F, n: int, step: float = 1e-4):
    """Finite-difference rot^n of a callable F(x, xi); noisy for n >= 2."""

    def rot_one(G):
        def rG(x, xi):
            dxi = (G(x, xi + step) - G(x, xi - step)) / (2.0 * step)
            dx = (G(x + step, xi) - G(x - step, xi)) / (2.0 * step)
            return x * dxi - xi * dx

        return rG

    G = F
    for _ in range(n):
        G = rot_one(G)
    return G


def _poly1_eval(P, t):
    if P is None:
        return np.ones_like(np.asarray(t, dtype=float))
    if callable(P):
        return np.asarray(P(t))
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for m, c in enumerate(P):
        out = out + c * t**m
    return out


def ipp_check(F, n: int, s: int, eps: int, P, ctx: CalcContext) -> IppResult:
    """Two-sided check of the rotation integration-by-parts identity

        (-s i eps)^n int F (x + i eps xi)^s P(r^2) e^{-r^2/h} dx dxi
          = int (rot^n F) (x + i eps xi)^s P(r^2) e^{-r^2/h} dx dxi

    over plain Lebesgue measure.  F is a Poly2 (exact rotation) or a callable
    (finite differences, flagged when the residual is untrustworthy).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    h = ctx.h

    if isinstance(F, Poly2):
        Feval = F.eval
        roteval = F.rot_power(n).eval
        method = "analytic"
        extra_deg = F.degree()
    else:
        Feval = F
        roteval = _fd_rot(F, n)
        method = "finite-difference"
        extra_deg = 6

    pdeg = 0 if (P is None or callable(P)) else 2 * (len(P) - 1)

    def shot(order: int):
        r = gh_rule(order, h / 2.0)

        def integrand(which):
            def f(pts):
                x, xi = pts[:, 0], pts[:, 1]
                base = (x + 1j * eps * xi) ** s * _poly1_eval(P, x * x + xi * xi)
                return np.asarray(which(x, xi), dtype=complex) * base

            return f

        lhs_i = integrate_tensor(integrand(Feval), r, 2)
        rhs_i = integrate_tensor(integrand(roteval), r, 2)
        # un-normalize: dmu = e^{-r^2/h} dx dxi / (pi h)
        return (math.pi * h) * np.array([lhs_i, rhs_i])

    start = 2 * (s + extra_deg + pdeg + 2) + 16
    both, _ = ladder(shot, start=min(start, LADDER_POLICY["cap"]))
    lhs = (-s * 1j * eps) ** n * both[0]
    rhs = both[1]
    residual = abs(lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    fd_warning = method == "finite-difference" and residual > 1e-6 * scale
    if fd_warning:
        warnings.warn(
            "finite-difference rotation is unstable here; supply a Poly2 for an exact check",
            RuntimeWarning,
            stacklevel=2,
        )
    return IppResult(lhs=complex(lhs), rhs=complex(rhs), residual=float(residual), method=method, fd_warning=fd_warning)


def rotation_reduction(sym, alpha, beta, coord: int, n: int, ctx: CalcContext):
    """I_{alpha beta} via the transported rotation derivative at `coord`:

        I_{alpha beta}(F) = i^n / (beta_j - alpha_j)^n *
                            int (rot_j^n F) prod W dmu.

    Requires alpha_j != beta_j.  Symbols radial in that pair rotate to zero,
    so the entry is returned as an exact 0.
    """
    alpha = _as_index(alpha)
    beta = _as_index(beta)
    aj, bj = alpha.degree(coord), beta.degree(coord)
    if aj == bj:
        raise ValueError("rotation reduction needs alpha != beta at the chosen coordinate")
    if coord > sym.d:
        return 0.0j  # the symbol does not see this pair; delta factor kills it
    if sym.is_pairwise_radial():
        return 0.0j  # rot_j F = 0 for symbols radial in the pair
    if sym.family == "box":
        raise ValueError("rotation reduction needs a smooth symbol")
    if isinstance(sym.evaluator, Poly2):
        if sym.d != 1 or coord != 1:
            raise ValueError("Poly2 symbols are one-pair symbols")
        rot_sym = poly_symbol(sym.evaluator.rot_power(n))
    else:
        if sym.d != 1 or coord != 1:
            raise ValueError("finite-difference rotation is only supported for d=1")
        fd = _fd_rot(lambda x, xi: sym.evaluator(x[..., None], xi[..., None]), n)
        rot_sym = custom_symbol(lambda xb, xib: fd(xb[..., 0], xib[..., 0]), d=1)
    val, _ = _tensor_element(rot_sym, alpha, beta, ctx)
    return (1j**n / (bj - aj) ** n) * val


# ---------------------------------------------------------------------------
# Reproducibility metadata.
# ---------------------------------------------------------------------------


def matrix_metadata(om: OperatorMatrix) -> dict:
    """JSON-sidecar payload: everything needed to reproduce the matrix."""
    return {
        "symbol": om.symbol_text,
        "h": om.h,
        "N": om.truncation.max_degree,
        "d": om.truncation.dims,
        "symbol_d": om.d,
        "basis_size": om.size,
        "route": om.meta.get("route"),
        "wigner_route": om.meta.get("wigner_route", "closed"),
        "quadrature_order": om.meta.get("max_order", 0),
        "structural_zeros": om.meta.get("structural_zeros", 0),
    }
