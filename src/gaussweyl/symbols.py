"""Cylindrical symbol families, the parseable symbol mini-language, and
symbol-class (epsilon-sequence) metadata.

A symbol is always handled through its finite-dimensional reduction: an
evaluator on R^{2d}.  Reading coordinates off a Hilbert-space point or off a
sample's ell-values both delegate to the same evaluator, so the three views of
a cylindrical symbol collapse here to one function.  Directions enter only
through their norm (rotate e_1 onto the direction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Callable, Sequence

import numpy as np

from .basis import CalcContext


class SymbolSyntaxError(ValueError):
    """Malformed symbol text; carries the 1-based column of the offense."""

    def __init__(self, column: int, message: str):
        super().__init__(f"syntax error at column {column}: {message}")
        self.column = column


class SymbolDomainError(ValueError):
    """Well-formed text with an out-of-domain parameter value."""

    def __init__(self, param: str, message: str):
        super().__init__(f"invalid value for '{param}': {message}")
        self.param = param


# sup_u |H_n(u)| e^{-u^2} for the physicists' Hermite polynomials; used for
# the analytic derivative bounds sup|d^n/dt^n e^{-nu t^2}| = nu^{n/2} * H_SUP[n].
_H_SUP = {0: 1.0, 1: math.sqrt(2.0) * math.exp(-0.5), 2: 2.0}


def _hermite_weighted_sup(n: int) -> float:
    if n in _H_SUP:
        return _H_SUP[n]
    u = np.linspace(-math.sqrt(2.0 * n) - 3.0, math.sqrt(2.0 * n) + 3.0, 400_001)
    # H_{k+1} = 2u H_k - 2k H_{k-1}, run on e^{-u^2} H_k so nothing overflows
    prev, cur = np.zeros_like(u), np.exp(-(u**2))
    for k in range(n):
        prev, cur = cur, 2.0 * u * cur - 2.0 * k * prev
    _H_SUP[n] = float(np.max(np.abs(cur)))
    return _H_SUP[n]


def _gauss_deriv_sup(nu: float, n: int) -> float:
    """sup over t of |d^n/dt^n e^{-nu t^2}|."""
    return nu ** (n / 2.0) * _hermite_weighted_sup(n)


@dataclass(frozen=True)
class PhiSpec:
    """Radial profile Phi on R+: one, exp(nu), or a polynomial in e^{-t}."""

    kind: str  # "one" | "exp" | "polyexp"
    nu: float = 0.0
    coeffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("one", "exp", "polyexp"):
            raise ValueError(f"unknown phi kind {self.kind!r}")
        if self.kind == "exp" and not self.nu > 0:
            raise SymbolDomainError("nu", f"must be > 0, got {self.nu!r}")
        if self.kind == "polyexp" and not self.coeffs:
            raise SymbolDomainError("polyexp", "needs at least one coefficient")

    def exp_terms(self) -> list[tuple[float, float]]:
        """Phi(t) = sum of c * e^{-nu t} terms, as (c, nu) pairs; every closed
        form below is one sum over them."""
        if self.kind == "one":
            return [(1.0, 0.0)]
        if self.kind == "exp":
            return [(1.0, self.nu)]
        return [(c, float(i)) for i, c in enumerate(self.coeffs)]

    def value(self, t):
        t = np.asarray(t, dtype=float)
        acc = np.zeros_like(t)
        for c, nu in self.exp_terms():
            acc += c * np.exp(-nu * t)
        return acc

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        acc = np.zeros_like(t)
        for c, nu in self.exp_terms():
            if nu:
                acc -= nu * c * np.exp(-nu * t)
        return acc

    def is_increasing(self) -> bool:
        """Phi' >= 0 on R+ (the positivity hypothesis H2)."""
        if self.kind == "exp":
            return False  # strictly decreasing for nu > 0
        t = np.linspace(0.0, 60.0, 4001)
        return bool(np.all(self.derivative(t) >= -1e-14))

    def laplace_mean(self, h: float, d: int = 1) -> float:
        """(1/h^d) int_0^inf Phi(t) t^{d-1}/(d-1)! e^{-t/h} dt, in closed form:
        sum of c / (1 + nu h)^d.  For d = 1 it is the one-pair operator lower
        bound; for d pairs, the bound of the profile Phi(r_1^2 + ... + r_d^2)."""
        return sum(c / (1.0 + nu * h) ** d for c, nu in self.exp_terms())

    def text(self) -> str:
        if self.kind == "one":
            return "one"
        if self.kind == "exp":
            return f"exp:nu={self.nu!r}"
        return "polyexp:" + ",".join(repr(c) for c in self.coeffs)


@dataclass(frozen=True)
class SymbolDescriptor:
    """A cylindrical symbol: family tag, base dimension d, and the reduced
    evaluator on R^{2d} (accessed via eval_ddot)."""

    family: str  # constant | gaussian | radial | tensor_radial | box | mixture | custom
    d: int
    c: float = 0.0
    nu: float = 0.0
    anorm: float = 0.0
    # radial and tensor_radial: Phi_1(|block_1|^2) Phi_2(|block_2|^2) ...;
    # radial is the one-part case
    parts: tuple[tuple[PhiSpec, int], ...] = ()
    a: float = 0.0
    # mixture: sum_k c_k prod_j e^{-nu_{k,j} r_j^2}, stored as
    # ((c_k, ((pair, nu), ...)), ...); the closed form heat flows live in.
    mixture_terms: tuple[tuple[float, tuple[tuple[int, float], ...]], ...] = ()
    evaluator: Callable | None = field(default=None, compare=False)
    smooth: bool = True
    bounded: bool = True

    def text(self) -> str:
        """Canonical printer; round-trips through parse_symbol."""
        if self.family == "constant":
            return f"const:c={self.c!r}"
        if self.family == "gaussian":
            return f"gaussian:nu={self.nu!r},anorm={self.anorm!r}"
        if self.family == "radial":
            ((phi, _),) = self.parts
            return f"radial:phi={phi.text()},d={self.d}"
        if self.family == "tensor_radial":
            body = ";".join(f"({p.text()},{dj})" for p, dj in self.parts)
            return f"tensorradial:{body}"
        if self.family == "box":
            return f"box:a={'inf' if math.isinf(self.a) else repr(self.a)}"
        raise ValueError(f"family {self.family!r} has no grammar form")

    def gauss_mixture(self) -> list[tuple[float, dict[int, float]]] | None:
        """Represent the evaluator as sum_k c_k prod_j e^{-nu_{k,j} r_j^2}
        (r_j^2 = x_j^2 + xi_j^2), when the family admits it; None otherwise.

        This is the closed-form backbone for heat flows and for the structural
        off-diagonal vanishing of per-pair-radial symbols.
        """
        if self.family == "constant":
            return [(self.c, {})]
        if self.family == "gaussian":
            return [(1.0, {1: self.nu * self.anorm**2})]
        if self.family in ("radial", "tensor_radial"):
            offset = 0
            per_block = []
            for spec, dj in self.parts:
                pairs = range(offset + 1, offset + dj + 1)
                per_block.append(
                    [(c, {j: nu for j in pairs} if nu else {}) for c, nu in spec.exp_terms()]
                )
                offset += dj
            terms = []
            for combo in iter_product(*per_block):
                coeff = 1.0
                nus: dict[int, float] = {}
                for c, block_nus in combo:
                    coeff *= c
                    nus.update(block_nus)
                terms.append((coeff, nus))
            return terms
        if self.family == "mixture":
            return [(c, dict(pairs)) for c, pairs in self.mixture_terms]
        return None

    def is_pairwise_radial(self) -> bool:
        """True when the evaluator depends on each pair only through
        x_j^2 + xi_j^2, so off-diagonal matrix elements vanish structurally."""
        return self.gauss_mixture() is not None


def const_symbol(c: float) -> SymbolDescriptor:
    return SymbolDescriptor(family="constant", d=1, c=c)


def gaussian_symbol(nu: float, anorm: float) -> SymbolDescriptor:
    if not nu > 0:
        raise SymbolDomainError("nu", f"must be > 0, got {nu!r}")
    if not anorm > 0:
        raise SymbolDomainError("anorm", f"must be > 0, got {anorm!r}")
    return SymbolDescriptor(family="gaussian", d=1, nu=nu, anorm=anorm)


def radial_symbol(phi: PhiSpec, d: int) -> SymbolDescriptor:
    if d < 1:
        raise SymbolDomainError("d", f"must be >= 1, got {d!r}")
    return SymbolDescriptor(family="radial", d=d, parts=((phi, d),))


def tensor_radial_symbol(parts: Sequence[tuple[PhiSpec, int]]) -> SymbolDescriptor:
    if not parts:
        raise SymbolDomainError("tensorradial", "needs at least one part")
    for _, dj in parts:
        if dj < 1:
            raise SymbolDomainError("d", f"must be >= 1, got {dj!r}")
    return SymbolDescriptor(
        family="tensor_radial", d=sum(dj for _, dj in parts), parts=tuple(parts)
    )


def box_symbol(a: float) -> SymbolDescriptor:
    if not (a > 0):  # also rejects nan
        raise SymbolDomainError("a", f"must be > 0 (or inf), got {a!r}")
    return SymbolDescriptor(family="box", d=1, a=a, smooth=False, bounded=True)


def custom_symbol(evaluator: Callable, d: int, smooth: bool = True, bounded: bool = False) -> SymbolDescriptor:
    """Wrap a raw evaluator f(x, xi) on R^{2d}; not part of the grammar."""
    return SymbolDescriptor(
        family="custom", d=d, evaluator=evaluator, smooth=smooth, bounded=bounded
    )


def mixture_symbol(terms: Sequence[tuple[float, dict[int, float]]], d: int) -> SymbolDescriptor:
    """sum_k c_k prod_j e^{-nu_{k,j} (x_j^2 + xi_j^2)}; what heat flows return."""
    if d < 1:
        raise SymbolDomainError("d", f"must be >= 1, got {d!r}")
    packed = []
    for c, nus in terms:
        if any(j < 1 or j > d for j in nus):
            raise SymbolDomainError("pair", f"pair indices must lie in 1..{d}")
        if any(nu < 0 for nu in nus.values()):
            raise SymbolDomainError("nu", "mixture rates must be >= 0")
        packed.append((float(c), tuple(sorted((j, float(nu)) for j, nu in nus.items() if nu))))
    return SymbolDescriptor(family="mixture", d=d, mixture_terms=tuple(packed))


def eval_ddot(sym: SymbolDescriptor, x, xi, ctx: CalcContext | None = None):
    """Evaluate the reduced symbol F-double-dot on R^{2d}.

    x, xi: arrays of shape (d,) or (npoints, d).  The box family couples its
    x-side length to h and therefore requires ctx.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if x.shape != xi.shape or x.shape[-1] != sym.d:
        raise ValueError(
            f"coordinate blocks must both have shape (..., {sym.d}); got {x.shape} and {xi.shape}"
        )
    squeeze = x.shape[0] == 1 and np.ndim(x) == 2

    if sym.family in ("radial", "tensor_radial"):
        out = np.ones(x.shape[0])
        offset = 0
        for spec, dj in sym.parts:
            blk = slice(offset, offset + dj)
            out = out * spec.value(np.sum(x[:, blk] ** 2 + xi[:, blk] ** 2, axis=1))
            offset += dj
    elif sym.family == "box":
        if ctx is None:
            raise ValueError("box symbols need a CalcContext (x-side length is 2 pi h a)")
        xs = 2.0 * math.pi * ctx.h * sym.a  # [0, 2 pi h a) on the x side
        out = (
            (x[:, 0] >= 0.0)
            & (x[:, 0] < xs)
            & (xi[:, 0] >= 0.0)
            & (xi[:, 0] < sym.a)
        ).astype(float)
    elif sym.family in ("constant", "gaussian", "mixture"):
        out = np.zeros(x.shape[0])
        for c, nus in sym.gauss_mixture():
            term = np.full(x.shape[0], float(c))
            for j, nu in nus.items():
                term = term * np.exp(-nu * (x[:, j - 1] ** 2 + xi[:, j - 1] ** 2))
            out = out + term
    elif sym.family == "custom":
        out = np.asarray(sym.evaluator(x, xi), dtype=complex)
        if np.allclose(out.imag, 0.0):
            out = out.real
    else:
        raise ValueError(f"unknown family {sym.family!r}")
    return float(out[0]) if squeeze and np.ndim(out) == 1 and out.shape[0] == 1 else out


# ---------------------------------------------------------------------------
# Parser for the symbol mini-language.
# ---------------------------------------------------------------------------


def _parse_real(text: str, start: int, param: str, allow_inf: bool = False) -> float:
    tok = text[start:]
    if not tok:
        raise SymbolSyntaxError(start + 1, f"missing value for {param}")
    if allow_inf and tok == "inf":
        return math.inf
    try:
        return float(tok)
    except ValueError:
        raise SymbolSyntaxError(start + 1, f"expected a real number for {param}, got {tok!r}") from None


def _expect(text: str, pos: int, literal: str) -> int:
    if not text.startswith(literal, pos):
        raise SymbolSyntaxError(pos + 1, f"expected {literal!r}")
    return pos + len(literal)


def _parse_phispec(text: str, start: int, end: int) -> PhiSpec:
    body = text[start:end]
    if body == "one":
        return PhiSpec(kind="one")
    if body.startswith("exp:"):
        pos = start + 4
        pos = _expect(text, pos, "nu=")
        nu = _parse_real(text[:end], pos, "nu")
        if nu <= 0:
            raise SymbolDomainError("nu", f"must be > 0, got {nu!r}")
        return PhiSpec(kind="exp", nu=nu)
    if body.startswith("polyexp:"):
        coeff_text = body[len("polyexp:"):]
        if not coeff_text:
            raise SymbolSyntaxError(start + len("polyexp:") + 1, "missing coefficients")
        coeffs = []
        pos = start + len("polyexp:")
        for piece in coeff_text.split(","):
            if not piece:
                raise SymbolSyntaxError(pos + 1, "empty coefficient")
            try:
                coeffs.append(float(piece))
            except ValueError:
                raise SymbolSyntaxError(pos + 1, f"expected a real coefficient, got {piece!r}") from None
            pos += len(piece) + 1
        return PhiSpec(kind="polyexp", coeffs=tuple(coeffs))
    raise SymbolSyntaxError(start + 1, f"unknown phi spec {body!r}")


def parse_symbol(text: str) -> SymbolDescriptor:
    """Parse the symbol mini-language.

    Grammar:
        const:c=<r> | gaussian:nu=<r>,anorm=<r> | radial:phi=<phispec>,d=<n>
        | tensorradial:(<phispec>,<n>);(<phispec>,<n>)... | box:a=<r or inf>
        phispec := one | exp:nu=<r> | polyexp:c0,c1,...

    Syntax errors carry the 1-based column; domain errors name the parameter.
    """
    if not isinstance(text, str) or not text:
        raise SymbolSyntaxError(1, "empty symbol text")

    if text.startswith("const:"):
        pos = _expect(text, len("const:"), "c=")
        return const_symbol(_parse_real(text, pos, "c"))

    if text.startswith("gaussian:"):
        pos = _expect(text, len("gaussian:"), "nu=")
        comma = text.find(",", pos)
        if comma < 0:
            raise SymbolSyntaxError(len(text) + 1, "expected ',anorm=...'")
        nu = _parse_real(text[:comma], pos, "nu")
        pos = _expect(text, comma + 1, "anorm=")
        anorm = _parse_real(text, pos, "anorm")
        return gaussian_symbol(nu, anorm)

    if text.startswith("radial:"):
        pos = _expect(text, len("radial:"), "phi=")
        dsep = text.rfind(",d=")
        if dsep < pos:
            raise SymbolSyntaxError(len(text) + 1, "expected ',d=<n>'")
        phi = _parse_phispec(text, pos, dsep)
        dval = _parse_real(text, dsep + 3, "d")
        if dval != int(dval):
            raise SymbolSyntaxError(dsep + 4, "d must be an integer")
        return radial_symbol(phi, int(dval))

    if text.startswith("tensorradial:"):
        pos = len("tensorradial:")
        parts: list[tuple[PhiSpec, int]] = []
        while pos < len(text):
            pos = _expect(text, pos, "(")
            close = text.find(")", pos)
            if close < 0:
                raise SymbolSyntaxError(pos, "unclosed '('")
            dsep = text.rfind(",", pos, close)
            if dsep < 0:
                raise SymbolSyntaxError(close + 1, "expected '(phispec,d)'")
            phi = _parse_phispec(text, pos, dsep)
            dtext = text[dsep + 1 : close]
            try:
                dj = int(dtext)
            except ValueError:
                raise SymbolSyntaxError(dsep + 2, f"expected integer dimension, got {dtext!r}") from None
            parts.append((phi, dj))
            pos = close + 1
            if pos < len(text):
                pos = _expect(text, pos, ";")
        if not parts:
            raise SymbolSyntaxError(pos + 1, "expected at least one '(phispec,d)' part")
        return tensor_radial_symbol(parts)

    if text.startswith("box:"):
        pos = _expect(text, len("box:"), "a=")
        a = _parse_real(text, pos, "a", allow_inf=True)
        return box_symbol(a)

    raise SymbolSyntaxError(1, f"unknown symbol family in {text!r}")


# ---------------------------------------------------------------------------
# Symbol-class metadata.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolClassParams:
    """Calderon-Vaillancourt class data: the epsilon sequence, depth m, and the
    class-norm bound M with |d^a_x d^b_xi F| <= M prod_j eps_j^{a_j+b_j}."""

    eps: Callable[[int], float]
    m: int
    M: float
    summable: bool
    square_summable: bool
    method: str


def lemma_epsilon(j: int) -> float:
    """The built-in class sequence eps_j = j^{-2}."""
    if j < 1:
        raise ValueError("coordinate indices start at 1")
    return float(j) ** -2.0


def cv_class_params(sym: SymbolDescriptor, m: int) -> SymbolClassParams:
    """Class parameters for a smooth bounded symbol, with eps_j = j^{-2}.

    M is the sup over multi-index pairs (alpha, beta) of depth <= m supported
    on {1..d} of the j^{2(alpha_j+beta_j)}-weighted derivative sups.  For the
    Gaussian-mixture families the per-coordinate sups are analytic
    (sup |d^n e^{-nu t^2}| = nu^{n/2} sup|H_n| e^{-u^2}); multi-term mixtures
    use the triangle inequality, which can only overestimate M.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if not sym.smooth:
        raise ValueError("not in any S_m class: symbol is not smooth")
    if not sym.bounded:
        raise ValueError("not in any S_m class: symbol is unbounded")
    mix = sym.gauss_mixture()
    if mix is None:
        raise ValueError(f"no derivative bounds available for family {sym.family!r}")

    best = 0.0
    for coeff, nus in mix:
        # independent per-coordinate maximization; coordinates absent from the
        # term contribute their |e^{-0}| = 1 only at derivative order 0.
        term = abs(coeff)
        for j in range(1, sym.d + 1):
            nu = nus.get(j, 0.0)
            w = float(j) ** 2
            cands = []
            for a in range(m + 1):
                for b in range(m + 1):
                    if nu == 0.0 and (a or b):
                        continue
                    cands.append(
                        w ** (a + b) * _gauss_deriv_sup(nu, a) * _gauss_deriv_sup(nu, b)
                    )
            term *= max(cands)
        best += term
    method = "analytic" if len(mix) == 1 else "analytic-majorant"
    return SymbolClassParams(
        eps=lemma_epsilon,
        m=m,
        M=best,
        summable=True,
        square_summable=True,
        method=method,
    )
