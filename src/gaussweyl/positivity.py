"""Executable positivity experiments: the non-positivity witness, radial and
tensor-radial lower bounds, the Garding inequality, and the box-localization
(Flandrin) eigenvalue search.

The Flandrin pipeline works in h-free classical variables: the matrix

    M_jk(a) = int_{[0,a)^2} W_cl(phi_j, phi_k)(x, eta) dx deta

over the 2 pi-adapted Hermite functions.  The eta-substitution that produces
it from the Gaussian-variable quadratic form cancels every h, which is
asserted by rebuilding a section through the h-dependent bridge at two
different h values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import CalcContext, TruncationSet
from .gaussian import coordinate_stream, gh_rule, integrate_tensor, ladder
from .quadform import HermiteExpansion, _finite_rate, assemble_matrix, eig_hermitian, quadratic_form
from .symbols import _eps_resolver, cv_class_params, eval_ddot, gaussian_symbol
from .wigner import (
    _box_matrix,
    _bridge_sweep,
    _polar_desc,
    _polar_sweep,
    _quarter_plane,
    _quarter_plane_matrix,
    flandrin_domain_radius,
    wigner_closed,
)


# ---------------------------------------------------------------------------
# Non-positivity witness.
# ---------------------------------------------------------------------------


NONPOS_QUADRATURE_ROUTE = (
    "tensor Gauss-Hermite ladder of W(psi_1, psi_1) against e^{-nu |a|^2 r^2} dmu_{R^2,h/2}, "
    "the Gaussian folded into the measure"
)


def nonpos_witness(nu: float, anorm: float, ctx: CalcContext):
    """The sign-changing quadratic form behind the main counterexample.

    Returns (closed, quadrature) for Q(F)(l_a, l_a) with
    F = e^{-nu |a|^2 r^2} and l_a = |a| sqrt(h/2) psi_1 in the first
    coordinate.  `closed` is the operator section's closed diagonal law (the
    quadratic_form route):

        closed = (h|a|^2/2) (1 - h nu |a|^2) / (1 + h nu |a|^2)^2,

    negative exactly when h nu |a|^2 > 1.  `quadrature` is independent of
    that law (NONPOS_QUADRATURE_ROUTE): with u = h nu |a|^2,
    F dmu_{R^2,h/2} = dmu_{R^2,s} / (1 + u) for s = h / (2 (1 + u)), against
    which the closed-form W(psi_1, psi_1) is integrated by the order ladder.
    """
    h = ctx.h
    ell = HermiteExpansion.single((1,), anorm * math.sqrt(h / 2.0))
    closed = quadratic_form(gaussian_symbol(nu, anorm), ell, ell, ctx).real
    scale = 1.0 + _finite_rate(h * nu * anorm**2, nu * anorm**2, h)

    def shot(n: int) -> complex:
        rule = gh_rule(n, h / (2.0 * scale))
        return integrate_tensor(lambda p: wigner_closed(1, 1, p[:, 0], p[:, 1], ctx), rule, 2)

    w11, _ = ladder(shot)
    return closed, (h * anorm**2 / 2.0) * w11.real / scale


# ---------------------------------------------------------------------------
# Radial lower bounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialPositivity:
    bound: float
    min_eig: float
    ok: bool
    increasing: bool
    diagonal: np.ndarray = field(compare=False, default=None)
    quad_meta: dict = field(compare=False, default=None)

    def __iter__(self):
        return iter((self.bound, self.min_eig, self.ok))


def radial_positivity_check(sym, truncation: TruncationSet, ctx: CalcContext) -> RadialPositivity:
    """Compare the spectrum of a radial/tensor-radial operator section with
    the product lower bound prod_blocks (1/h^d) int Phi e^{-t/h}.

    The section is diagonal (radial symbols are Gaussian mixtures, so it
    comes from the closed law), and its diagonal is the spectrum.  The lower
    bound is a theorem only for nondecreasing profiles; `increasing` reports
    whether that hypothesis holds, and `ok` reports the raw comparison.
    """
    if sym.family not in ("radial", "tensor_radial"):
        raise ValueError("radial_positivity_check needs a radial or tensorradial symbol")
    bound = 1.0
    for phi, dj in sym.parts:
        bound *= phi.laplace_mean(ctx.h, dj)
    om = assemble_matrix(sym, truncation, ctx)
    diagonal = om.diagonal
    min_eig = float(np.min(diagonal))
    increasing = all(phi.is_increasing() for phi, _ in sym.parts)
    return RadialPositivity(
        bound=float(bound),
        min_eig=min_eig,
        ok=bool(min_eig >= bound - 1e-8),
        increasing=increasing,
        diagonal=diagonal,
        quad_meta=dict(om.meta),
    )


# ---------------------------------------------------------------------------
# Garding inequality.
# ---------------------------------------------------------------------------


_TAIL_REL = 3e-14


@dataclass(frozen=True)
class GardingReport:
    """Everything behind the bound -M sum(lambda) prod(1+lambda) with
    lambda_j = 81 pi h S_eps eps_j^2."""

    eps_desc: str
    h: float
    s_eps: float
    lam: tuple
    sum_lambda: float
    prod_one_plus_lambda: float
    M: float
    bound: float
    measured_min_eig: float | None = None
    margin: float | None = None
    quad_meta: dict = field(compare=False, default=None)

    def as_dict(self) -> dict:
        out = {
            "epsilon": self.eps_desc,
            "h": self.h,
            "S_eps": self.s_eps,
            "terms": len(self.lam),
            "lambda_head": list(self.lam[:32]),
            "sum_lambda": self.sum_lambda,
            "prod_one_plus_lambda": self.prod_one_plus_lambda,
            "M": self.M,
            "bound": self.bound,
        }
        if self.measured_min_eig is not None:
            out["measured_min_eig"] = self.measured_min_eig
            out["margin"] = self.margin
        return out


def garding_bound(eps_spec, h: float, M: float) -> GardingReport:
    """Accumulate lambda_j = 81 pi h S_eps eps_j^2 until the remaining tail
    is below 3e-14 relative, then form bound = -M sum(lambda) prod(1+lambda).

    Built-in specs ("j^-2", "2^-j", "zero") carry closed tail estimates;
    callables stop once terms stay below 1e-16 of the running sum, and a
    sequence that never gets there is rejected as not square-summable.
    """
    if not h > 0:
        raise ValueError("h must be > 0")
    if M < 0:
        raise ValueError("M must be >= 0")
    eps_fn, desc, tail_sq = _eps_resolver(eps_spec)
    e2s: list[float] = []
    total = 0.0
    quiet = 0
    j = 0
    while True:
        j += 1
        e = float(eps_fn(j))
        e2 = e * e
        e2s.append(e2)
        total += e2
        if tail_sq is not None:
            if tail_sq(j) <= _TAIL_REL * max(total, 1e-300):
                break
        else:
            quiet = quiet + 1 if e2 <= 1e-16 * max(total, 1e-300) else 0
            if quiet >= 25:
                break
        if j >= 10**6:
            raise ValueError("epsilon sequence does not appear square-summable")
    s_eps = max(1.0, max(e2s, default=0.0))
    factor = 81.0 * math.pi * h * s_eps
    lam = tuple(factor * e2 for e2 in e2s)
    sum_lambda = math.fsum(lam)
    prod = 1.0
    for lv in lam:
        prod *= 1.0 + lv
    bound = -M * sum_lambda * prod + 0.0
    return GardingReport(
        eps_desc=desc,
        h=h,
        s_eps=s_eps,
        lam=lam,
        sum_lambda=sum_lambda,
        prod_one_plus_lambda=prod,
        M=M,
        bound=bound,
    )


def _assert_nonneg(sym, ctx: CalcContext) -> None:
    if sym.family == "constant":
        if sym.c < 0:
            raise ValueError("symbol is negative")
        return
    if sym.family == "gaussian":
        return
    if sym.family in ("radial", "tensor_radial"):
        t = np.linspace(0.0, 80.0, 4001)
        for phi, _ in sym.parts:
            if np.min(phi.value(t)) < -1e-12:
                raise ValueError("radial profile takes negative values")
        return
    # mixture/custom: seeded point-cloud check
    pts = coordinate_stream(11, 11).normal(0.0, math.sqrt(3.0 * ctx.h), size=(2000, 2 * sym.d))
    vals = np.asarray(eval_ddot(sym, pts[:, : sym.d], pts[:, sym.d :], ctx))
    scale = max(1.0, float(np.max(np.abs(vals))))
    if float(np.min(np.real(vals))) < -1e-10 * scale:
        raise ValueError("symbol takes negative values on the test cloud")


def garding_verify(sym, truncation: TruncationSet, ctx: CalcContext, m: int = 2, eps="j^-2") -> GardingReport:
    """Measure the least eigenvalue of the operator section and compare with
    the Garding bound computed from the symbol-class norm (depth m) and the
    epsilon sequence eps (any spec garding_bound accepts; default j^{-2}).
    The class norm M and the lambda_j come from the same sequence.

    The class norm from cv_class_params can only overestimate, which loosens
    (never tightens) the bound, so a passing margin is meaningful.
    """
    _assert_nonneg(sym, ctx)
    params = cv_class_params(sym, m, eps)
    rep = garding_bound(eps, ctx.h, params.M)
    om = assemble_matrix(sym, truncation, ctx)
    min_eig = float(eig_hermitian(om)[0])
    return replace(
        rep, measured_min_eig=min_eig, margin=min_eig - rep.bound, quad_meta=dict(om.meta)
    )


# ---------------------------------------------------------------------------
# Flandrin search.
# ---------------------------------------------------------------------------


# The polar check of the closed quarter plane runs on the leading block of
# this degree: nested sections share their leading entries.
POLAR_CHECK_N = 128


def flandrin_matrix(a: float, N: int) -> np.ndarray:
    """M_jk(a) = int_{[0,a)^2} W_cl(phi_j, phi_k) dx deta, 0 <= j,k <= N: the
    square case of `_box_matrix`, so checked as a box section is."""
    return _box_matrix(N, a, a)[0]


@dataclass(frozen=True)
class FlandrinReport:
    a: float
    N: int
    quad: str
    top_eigenvalue: float
    excess: float
    convergence: tuple
    panel_agreement: float
    h_invariance_dev: float
    bridge_vs_table: float
    domain_radius: float

    def as_dict(self) -> dict:
        return {
            "a": "inf" if math.isinf(self.a) else self.a,
            "N": self.N,
            "quadrature": self.quad,
            "top_eigenvalue": self.top_eigenvalue,
            "excess": self.excess,
            "convergence": [[int(n), float(v)] for n, v in self.convergence],
            "panel_agreement": self.panel_agreement,
            "h_invariance_dev": self.h_invariance_dev,
            "bridge_vs_table": self.bridge_vs_table,
            "domain_radius": self.domain_radius,
        }


def flandrin_search(a: float, N: int) -> FlandrinReport:
    """Top eigenvalue of the box-localization matrix M(a) on the Hermite
    section of degree N, with an independent check of the matrix, an
    N-convergence table from nested sections (powers of two up to N, and N),
    and the two-h bridge check.

    At a = inf the matrix is the closed quarter plane, solved as the real
    symmetric R of `_quarter_plane`; the check is one polar sweep on the
    leading block n = min(N, POLAR_CHECK_N), compared entrywise.  For finite a
    it is the checked `_box_matrix` of the square.  The bridge (2-D panels), a
    further independent route on the section min(N, 8), is compared with the
    leading block of the closed matrix at a = inf, else of the matrix solved.

    An eigenvalue above 1 exhibits a state whose classical Wigner mass on
    [0,a)^2 exceeds its norm; the report carries the measured excess and its
    convergence rather than asserting a margin.
    """
    if not a > 0:
        raise ValueError(f"a must be > 0 (or inf), got {a!r}")
    if math.isinf(a):
        M = _quarter_plane(N)
        nb = min(N, POLAR_CHECK_N)
        L = flandrin_domain_radius(nb)
        polar, points = _polar_sweep(nb, a, a)
        table = _quarter_plane_matrix(nb)
        agreement = float(np.max(np.abs(polar - table)))
        quad_desc = f"closed: 2F1 recurrence; polar check on n <= {nb}: {_polar_desc(nb, a, a, points, False)}"
    else:
        L = min(a, flandrin_domain_radius(N))
        M, points, agreement = _box_matrix(N, a, a)
        table = M
        quad_desc = f"polar: {_polar_desc(N, a, a, points, True)}"
    sections = sorted({2**k for k in range(1, N.bit_length())} | {N})
    convergence = tuple(
        (n, float(np.max(np.linalg.eigvalsh(M[: n + 1, : n + 1])))) for n in sections
    )
    top = convergence[-1][1]

    # h-cancellation: rebuild a small section through the Gaussian bridge at
    # two h values and compare (with the leading block of `table` as a third route).
    nh = min(N, 8)
    mb1, _ = _bridge_sweep(nh, a, a, CalcContext(h=0.5))
    mb2, _ = _bridge_sweep(nh, a, a, CalcContext(h=2.0))
    mt = table[: nh + 1, : nh + 1]
    h_dev = float(np.max(np.abs(mb1 - mb2)))
    bridge_dev = float(max(np.max(np.abs(mb1 - mt)), np.max(np.abs(mb2 - mt))))

    return FlandrinReport(
        a=a,
        N=N,
        quad=quad_desc,
        top_eigenvalue=top,
        excess=top - 1.0,
        convergence=convergence,
        panel_agreement=agreement,
        h_invariance_dev=h_dev,
        bridge_vs_table=bridge_dev,
        domain_radius=L,
    )

