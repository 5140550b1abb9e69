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
    # the grammar text of the symbol, set by the grammar families' constructors
    spelling: str | None = None
    # radial and tensor_radial: Phi_1(|block_1|^2) Phi_2(|block_2|^2) ...;
    # radial is the one-part case
    parts: tuple[tuple[PhiSpec, int], ...] = ()
    a: float = 0.0
    # every family but box and custom: sum_k c_k prod_j e^{-nu_{k,j} r_j^2},
    # stored when the symbol is built as ((c_k, ((pair, nu), ...)), ...),
    # pairs ascending and zero rates dropped; None for box and custom, which
    # admit no such form.  Evaluation, the closed diagonal law, heat flows,
    # the class norm and the positivity checks all read it.
    mixture_terms: tuple[tuple[float, tuple[tuple[int, float], ...]], ...] | None = None
    evaluator: Callable | None = field(default=None, compare=False)

    def text(self) -> str:
        """Canonical printer; round-trips through parse_symbol."""
        if self.spelling is None:
            raise ValueError(f"family {self.family!r} has no grammar form")
        return self.spelling


def _pack(terms, d: int) -> tuple:
    """The stored form of sum_k c_k prod_j e^{-nu_{k,j} r_j^2} on pairs 1..d."""
    packed = []
    for c, nus in terms:
        if any(j < 1 or j > d for j in nus):
            raise SymbolDomainError("pair", f"pair indices must lie in 1..{d}")
        if any(nu < 0 for nu in nus.values()):
            raise SymbolDomainError("nu", "mixture rates must be >= 0")
        packed.append((float(c), tuple(sorted((j, float(nu)) for j, nu in nus.items() if nu))))
    return tuple(packed)


def _expand(parts) -> list[tuple[float, dict[int, float]]]:
    """Phi_1(|block_1|^2) Phi_2(|block_2|^2) ... as one flat mixture: a term
    for each choice of one exp term per profile."""
    offset = 0
    per_block = []
    for spec, dj in parts:
        pairs = range(offset + 1, offset + dj + 1)
        per_block.append([(c, {j: nu for j in pairs} if nu else {}) for c, nu in spec.exp_terms()])
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


def const_symbol(c: float) -> SymbolDescriptor:
    return SymbolDescriptor(family="constant", d=1, spelling=f"const:c={c!r}", mixture_terms=_pack([(c, {})], 1))


def gaussian_symbol(nu: float, anorm: float) -> SymbolDescriptor:
    if not nu > 0:
        raise SymbolDomainError("nu", f"must be > 0, got {nu!r}")
    if not anorm > 0:
        raise SymbolDomainError("anorm", f"must be > 0, got {anorm!r}")
    if not math.isfinite(nu * (anorm * anorm)):  # the stored rate nu |a|^2
        raise SymbolDomainError("anorm", f"|a|^2 and nu |a|^2 must be finite, got nu={nu!r}, anorm={anorm!r}")
    return SymbolDescriptor(
        family="gaussian", d=1, spelling=f"gaussian:nu={nu!r},anorm={anorm!r}",
        mixture_terms=_pack([(1.0, {1: nu * anorm**2})], 1),
    )


def radial_symbol(phi: PhiSpec, d: int) -> SymbolDescriptor:
    if d < 1:
        raise SymbolDomainError("d", f"must be >= 1, got {d!r}")
    parts = ((phi, d),)
    return SymbolDescriptor(family="radial", d=d, spelling=f"radial:phi={phi.text()},d={d}", parts=parts,
                            mixture_terms=_pack(_expand(parts), d))


def tensor_radial_symbol(parts: Sequence[tuple[PhiSpec, int]]) -> SymbolDescriptor:
    if not parts:
        raise SymbolDomainError("tensorradial", "needs at least one part")
    for _, dj in parts:
        if dj < 1:
            raise SymbolDomainError("d", f"must be >= 1, got {dj!r}")
    parts = tuple(parts)
    d = sum(dj for _, dj in parts)
    spelling = "tensorradial:" + ";".join(f"({p.text()},{dj})" for p, dj in parts)
    return SymbolDescriptor(family="tensor_radial", d=d, spelling=spelling, parts=parts,
                            mixture_terms=_pack(_expand(parts), d))


def box_symbol(a: float) -> SymbolDescriptor:
    if not (a > 0):  # also rejects nan
        raise SymbolDomainError("a", f"must be > 0 (or inf), got {a!r}")
    return SymbolDescriptor(family="box", d=1, spelling=f"box:a={'inf' if math.isinf(a) else repr(a)}", a=a)


def custom_symbol(evaluator: Callable, d: int) -> SymbolDescriptor:
    """Wrap a raw evaluator f(x, xi) on R^{2d}; not part of the grammar."""
    return SymbolDescriptor(family="custom", d=d, evaluator=evaluator)


def mixture_symbol(terms: Sequence[tuple[float, dict[int, float]]], d: int) -> SymbolDescriptor:
    """sum_k c_k prod_j e^{-nu_{k,j} (x_j^2 + xi_j^2)}; what heat flows return."""
    if d < 1:
        raise SymbolDomainError("d", f"must be >= 1, got {d!r}")
    return SymbolDescriptor(family="mixture", d=d, mixture_terms=_pack(terms, d))


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

    if sym.family == "box":
        if ctx is None:
            raise ValueError("box symbols need a CalcContext (x-side length is 2 pi h a)")
        xs = 2.0 * math.pi * ctx.h * sym.a  # [0, 2 pi h a) on the x side
        out = (
            (x[:, 0] >= 0.0)
            & (x[:, 0] < xs)
            & (xi[:, 0] >= 0.0)
            & (xi[:, 0] < sym.a)
        ).astype(float)
    elif sym.family == "custom":
        out = np.asarray(sym.evaluator(x, xi), dtype=complex)
        if np.allclose(out.imag, 0.0):
            out = out.real
    else:
        out = np.zeros(x.shape[0])
        for c, pairs in sym.mixture_terms:
            term = np.full(x.shape[0], c)
            for j, nu in pairs:
                term = term * np.exp(-nu * (x[:, j - 1] ** 2 + xi[:, j - 1] ** 2))
            out = out + term
    return float(out[0]) if squeeze and np.ndim(out) == 1 and out.shape[0] == 1 else out


# ---------------------------------------------------------------------------
# Parser for the symbol mini-language.
# ---------------------------------------------------------------------------


def _finite(value: float, param: str, tok: str) -> float:
    """`value`, read from `tok`, if it is finite: the grammar takes no nan,
    inf or overflowing value except the literal `box:a=inf`."""
    if not math.isfinite(value):
        raise SymbolDomainError(param, f"must be finite, got {tok!r}")
    return value


def _parse_real(text: str, start: int, param: str, allow_inf: bool = False) -> float:
    tok = text[start:]
    if not tok:
        raise SymbolSyntaxError(start + 1, f"missing value for {param}")
    if allow_inf and tok == "inf":
        return math.inf
    try:
        value = float(tok)
    except ValueError:
        raise SymbolSyntaxError(start + 1, f"expected a real number for {param}, got {tok!r}") from None
    return _finite(value, param, tok)


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
        return PhiSpec(kind="exp", nu=_parse_real(text[:end], pos, "nu"))
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
                value = float(piece)
            except ValueError:
                raise SymbolSyntaxError(pos + 1, f"expected a real coefficient, got {piece!r}") from None
            coeffs.append(_finite(value, "polyexp", piece))
            pos += len(piece) + 1
        return PhiSpec(kind="polyexp", coeffs=tuple(coeffs))
    raise SymbolSyntaxError(start + 1, f"unknown phi spec {body!r}")


def parse_symbol(text: str) -> SymbolDescriptor:
    """Parse the symbol mini-language.

    Grammar:
        const:c=<r> | gaussian:nu=<r>,anorm=<r> | radial:phi=<phispec>,d=<n>
        | tensorradial:(<phispec>,<n>);(<phispec>,<n>)... | box:a=<r or inf>
          (parts joined by ';', no trailing ';')
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
                _expect(text, pos, "(")  # a ';' is followed by a part
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


def _quartic_product(c: float) -> float:
    """prod_{j >= 1} (1 + c/j^4) for c > 0: (cosh 2u - cos 2u)/(4 u^2) with
    u = pi (c/4)^{1/4}, spelled (sinh^2 u + sin^2 u)/(2 u^2) so that it does
    not cancel at small c.  An error in u moves it by 2u times as much, so du,
    found exactly, carries the roundings of u.  inf where the product passes
    the largest float (from u near 355), and at c = inf."""
    from fractions import Fraction  # only this closed form needs it

    u = math.pi * (c / 4.0) ** 0.25
    if u > 710.0:  # sinh overflows
        return math.inf
    pi = Fraction(math.pi) + Fraction(1.2246467991473532e-16)  # math.pi + (pi - math.pi)
    du = float((pi**4 * Fraction(c) / 4 - Fraction(u) ** 4) / (4 * Fraction(u) ** 3))  # Newton on u^4
    r, q = (math.sinh(u) + math.cosh(u) * du) / (u + du), math.sin(u) / u
    return 0.5 * (r * r + q * q)


def _eps_resolver(spec):
    """(sequence, name, sum_j eps_j^2, c -> prod_j (1 + c eps_j^2)) of an
    epsilon spec, one of the names j^-2, 2^-j and zero; the sum and the
    product are closed forms.  The one reader of such specs, so the class
    norm and the Garding bound always see the same sequence."""
    if spec == "j^-2":
        return (lambda j: float(j) ** -2.0), spec, math.pi**4 / 90.0, _quartic_product
    if spec == "2^-j":  # 4^-j is 0 from j = 538 on, so every later factor is exactly 1
        return (lambda j: 2.0**-j), spec, 1.0 / 3.0, lambda c: math.prod(1.0 + c * 4.0**-j for j in range(1, 538))
    if spec == "zero":
        return (lambda j: 0.0), spec, 0.0, lambda c: 1.0
    raise ValueError(f"unknown epsilon spec {spec!r}; --eps takes j^-2, 2^-j or zero")


def cv_class_params(sym: SymbolDescriptor, eps="j^-2") -> float:
    """Calderon-Vaillancourt class norm M of a smooth bounded symbol at depth
    2, with |d^a_x d^b_xi F| <= M prod_j eps_j^{a_j+b_j}, under the epsilon
    sequence `eps` (any spec the Garding bound accepts; default eps_j = j^{-2}).

    M is the sup over multi-index pairs (alpha, beta) of depth <= 2 supported
    on {1..d} of the (1/|eps_j|)^{alpha_j+beta_j}-weighted derivative sups.
    For a Gaussian-mixture term the sups factor by coordinate, and sup|d^n
    e^{-nu t^2}| is 1, sqrt(2 nu/e), 2 nu for n = 0, 1, 2: so the max over
    a, b <= 2 is max(1, 4 nu^2/eps_j^4), attained at a = b = 0 or 2.
    Multi-term mixtures use the triangle inequality, which can only
    overestimate M.  A symbol
    that varies in a coordinate with eps_j = 0 lies in no class: that raises
    SymbolDomainError naming the coordinate.
    """
    if sym.family == "box":
        raise ValueError("not in any S_m class: symbol is not smooth")
    if sym.mixture_terms is None:
        raise ValueError(f"no derivative bounds available for family {sym.family!r}")
    eps_fn = _eps_resolver(eps)[0]

    best = 0.0
    for coeff, pairs in sym.mixture_terms:
        # independent per-coordinate maximization; a coordinate absent from
        # the term contributes only its order-0 sup and weight, both 1, so
        # eps_j is never inverted for it.
        term = abs(coeff)
        for j, nu in pairs:
            e = abs(float(eps_fn(j)))
            if e == 0.0:
                raise SymbolDomainError(
                    "eps", f"eps_{j} = 0 but the symbol varies in coordinate {j}, "
                    "so it lies in no class S(M, eps)"
                )
            term *= max(1.0, (1.0 / e) ** 4 * (nu * 2.0) * (nu * 2.0))
        best += term
    return best
