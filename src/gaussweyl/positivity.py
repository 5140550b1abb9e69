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

import numpy as np

from .basis import CalcContext, TruncationSet
from .gaussian import coordinate_stream, gh_rule, integrate_tensor, ladder
from .quadform import _finite_rate, assemble_matrix, eig_hermitian, quadratic_form
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
    ell = {(1,): anorm * math.sqrt(h / 2.0)}
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


def radial_positivity_check(sym, truncation: TruncationSet, ctx: CalcContext) -> tuple[dict, dict]:
    """Compare the spectrum of a radial/tensor-radial operator section with
    the product lower bound prod_blocks (1/h^d) int Phi e^{-t/h}.

    The section is diagonal (radial symbols are Gaussian mixtures, so it
    comes from the closed law), and its diagonal is the spectrum.  The lower
    bound is a theorem only for nondecreasing profiles;
    `hypothesis_satisfied` reports whether that hypothesis holds, and `ok`
    reports the raw comparison.

    Returns (results, the section's provenance record).
    """
    if not sym.parts:
        raise ValueError("radial needs a radial: or tensorradial: symbol")
    bound = 1.0
    for phi, dj in sym.parts:
        bound *= phi.laplace_mean(ctx.h, dj)
    diagonal, meta = assemble_matrix(sym, truncation, ctx)
    min_eig = float(np.min(diagonal))
    results = {
        "bound": float(bound),
        "min_eig": min_eig,
        "ok": bool(min_eig >= bound - 1e-8),
        "hypothesis_satisfied": all(phi.is_increasing() for phi, _ in sym.parts),
        "diagonal": [float(v) for v in diagonal],
    }
    return results, meta


# ---------------------------------------------------------------------------
# Garding inequality.
# ---------------------------------------------------------------------------


def garding_bound(eps_spec, h: float, M: float) -> dict:
    """bound = -M sum(lambda) prod(1 + lambda), 0 when M = 0, for lambda_j =
    81 pi h S_eps eps_j^2 under the spec ("j^-2", "2^-j" or "zero"), the sum
    and product in closed form.  Returns everything behind it (lambda_j to 32)."""
    if not h > 0:
        raise ValueError("h must be > 0")
    if M < 0:
        raise ValueError("M must be >= 0")
    eps_fn, desc, sum_sq, prod_fn = _eps_resolver(eps_spec)
    s_eps = max(1.0, eps_fn(1) ** 2)  # each sequence is largest at j = 1
    factor = 81.0 * math.pi * h * s_eps
    sum_lambda, prod = factor * sum_sq, prod_fn(factor)
    return {
        "epsilon": desc,
        "h": h,
        "S_eps": s_eps,
        "lambda_head": [factor * (eps_fn(j) * eps_fn(j)) for j in range(1, 33)],
        "sum_lambda": sum_lambda,
        "prod_one_plus_lambda": prod,
        "M": M,
        # a zero class norm bounds by 0 at every h, also where prod overflows
        "bound": (-M * sum_lambda * prod + 0.0) if M else 0.0,
    }


def _assert_nonneg(sym, ctx: CalcContext) -> None:
    """Refuse a symbol that takes negative values: radial profiles are checked
    on a grid, a mixture with nonnegative weights is nonnegative, and any
    other symbol is checked on a seeded point cloud."""
    if sym.parts:
        t = np.linspace(0.0, 80.0, 4001)
        for phi, _ in sym.parts:
            if np.min(phi.value(t)) < -1e-12:
                raise ValueError("radial profile takes negative values")
        return
    if sym.mixture_terms is not None and all(c >= 0 for c, _ in sym.mixture_terms):
        return
    pts = coordinate_stream(11, 11).normal(0.0, math.sqrt(3.0 * ctx.h), size=(2000, 2 * sym.d))
    vals = np.asarray(eval_ddot(sym, pts[:, : sym.d], pts[:, sym.d :], ctx))
    scale = max(1.0, float(np.max(np.abs(vals))))
    if float(np.min(np.real(vals))) < -1e-10 * scale:
        raise ValueError("symbol takes negative values on the test cloud")


def garding_verify(sym, truncation: TruncationSet, ctx: CalcContext, eps="j^-2") -> tuple[dict, dict]:
    """Measure the least eigenvalue of the operator section and compare with
    the Garding bound computed from the symbol-class norm (depth 2) and the
    epsilon sequence eps (any spec garding_bound accepts; default j^{-2}).
    The class norm M and the lambda_j come from the same sequence.

    The class norm from cv_class_params can only overestimate, which loosens
    (never tightens) the bound, so a passing margin is meaningful.  A bound
    that is not finite (M or the product overflows) is refused before the
    eigensolve, after the section has refused a rate nu h that overflows.

    Returns (the garding_bound dict with `measured_min_eig` and `margin`
    appended, the section's provenance record).
    """
    _assert_nonneg(sym, ctx)
    results = garding_bound(eps, ctx.h, cv_class_params(sym, eps))
    section, meta = assemble_matrix(sym, truncation, ctx)
    if not math.isfinite(results["bound"]):  # a margin against it would check nothing
        raise ValueError(
            f"the Garding bound -M sum(lambda) prod(1 + lambda) is not finite at --h {ctx.h!r}: "
            f"M = {results['M']!r}, prod(1 + lambda) = {results['prod_one_plus_lambda']!r}"
        )
    min_eig = float(eig_hermitian(section)[0])
    results["measured_min_eig"] = min_eig
    results["margin"] = min_eig - results["bound"]
    return results, meta


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


def flandrin_search(a: float, N: int) -> dict:
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
    [0,a)^2 exceeds its norm; the results carry the measured excess and its
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
    convergence = [
        [n, float(np.max(np.linalg.eigvalsh(M[: n + 1, : n + 1])))] for n in sections
    ]
    top = convergence[-1][1]

    # h-cancellation: rebuild a small section through the Gaussian bridge at
    # two h values and compare (with the leading block of `table` as a third route).
    nh = min(N, 8)
    mb1, _ = _bridge_sweep(nh, a, a, CalcContext(h=0.5))
    mb2, _ = _bridge_sweep(nh, a, a, CalcContext(h=2.0))
    mt = table[: nh + 1, : nh + 1]
    h_dev = float(np.max(np.abs(mb1 - mb2)))
    bridge_dev = float(max(np.max(np.abs(mb1 - mt)), np.max(np.abs(mb2 - mt))))

    return {
        "a": "inf" if math.isinf(a) else a,
        "N": N,
        "quadrature": quad_desc,
        "top_eigenvalue": top,
        "excess": top - 1.0,
        "convergence": convergence,
        "panel_agreement": agreement,
        "h_invariance_dev": h_dev,
        "bridge_vs_table": bridge_dev,
        "domain_radius": L,
    }

