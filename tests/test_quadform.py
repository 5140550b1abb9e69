"""Operator matrix elements: closed diagonal law, structural zeros, the
defining-integral dual route, and rotation integration-by-parts."""

import math
import subprocess
import sys
import time

import defining_integral
import numpy as np
import oracles
import pytest
from paper_checks import Poly2, ipp_check, poly_symbol, rotation_reduction

from gaussweyl import wigner
from gaussweyl.basis import CalcContext, TruncationSet
from gaussweyl.gaussian import QuadratureConvergenceError
from gaussweyl.heat import heat_apply
from gaussweyl.quadform import (
    MAX_DIAGONAL_SIZE,
    MAX_MATRIX_SIZE,
    ROUTE_BOX,
    ROUTE_CLOSED,
    ROUTE_LADDER,
    ROUTE_QUARTER,
    _tensor_element,
    assemble_matrix,
    eig_hermitian,
    matrix_element,
    quadratic_form,
)
from gaussweyl.symbols import (
    PhiSpec,
    box_symbol,
    const_symbol,
    custom_symbol,
    gaussian_symbol,
    mixture_symbol,
    radial_symbol,
    tensor_radial_symbol,
)


def diag_law(j: int, nu: float, h: float) -> float:
    """I_jj(e^{-nu r^2}) = (1 - nu h)^j / (1 + nu h)^{j+1}."""
    return (1.0 - nu * h) ** j / (1.0 + nu * h) ** (j + 1)


# (j, nu, h, value) with value from the closed law, cross-checked against
# adaptive 2-D quadrature when frozen.
FROZEN_DIAG = [
    (0, 1.0, 1.0, 0.5),
    (1, 2.0, 1.0, -1.0 / 9.0),
    (2, 2.0, 1.0, 1.0 / 27.0),
    (3, 0.5, 2.0, 0.0),
    (4, 0.7, 0.5, 0.03980930394210513),
]


@pytest.mark.parametrize("j,nu,h,want", FROZEN_DIAG)
def test_gaussian_diagonal_frozen(j, nu, h, want):
    ctx = CalcContext(h=h)
    sym = gaussian_symbol(nu, 1.0)
    got = matrix_element(sym, (j,), (j,), ctx)
    assert abs(got - want) <= 1e-11
    assert abs(diag_law(j, nu, h) - want) <= 1e-15
    assert abs(got.imag) <= 1e-13


def test_gaussian_offdiagonal_vanishes():
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(1.0, 1.0)
    for a, b in [((0,), (1,)), ((0,), (2,)), ((1,), (3,))]:
        got = matrix_element(sym, a, b, ctx)
        assert abs(got) <= 1e-12


def test_anorm_enters_through_norm_only():
    # direction norm |a| rescales nu: I(e^{-nu |a|^2 r^2}) at anorm=1
    ctx = CalcContext(h=1.0)
    got = matrix_element(gaussian_symbol(0.5, 2.0), (1,), (1,), ctx)
    assert abs(got - diag_law(1, 0.5 * 4.0, 1.0)) <= 1e-11


def test_coordinates_beyond_symbol_dimension():
    """Pairs the symbol does not see integrate to delta factors."""
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(2.0, 1.0)  # d = 1
    a = (1, 0, 2)
    same = matrix_element(sym, a, a, ctx)
    assert abs(same - diag_law(1, 2.0, 1.0)) <= 1e-11
    crossed = matrix_element(sym, (1, 0, 2), (1, 0, 1), ctx)
    assert crossed == 0.0j  # exact structural zero, no quadrature


def test_radial_matrix_is_diagonal_with_laplace_means():
    """For radial Phi(sum r_j^2) in d=2 the diagonal is a 2-fold product of
    per-pair means; checked against the separable exp closed form."""
    ctx = CalcContext(h=0.5)
    phi = PhiSpec(kind="exp", nu=1.5)
    sym = radial_symbol(phi, 2)
    trunc = TruncationSet(2, 1)
    diagonal, meta = assemble_matrix(sym, trunc, ctx)
    assert sym.mixture_terms is not None and meta["structural_zeros"] == 6
    assert diagonal.ndim == 1
    for p, alpha in enumerate(trunc.degrees.tolist()):
        want = np.prod([diag_law(alpha[i], 1.5, 0.5) for i in (0, 1)])
        assert abs(diagonal[p] - want) <= 1e-10


def test_assemble_matrix_matches_cli_example():
    ctx = CalcContext(h=1.0)
    diagonal, md = assemble_matrix(gaussian_symbol(2.0, 1.0), TruncationSet(1, 2), ctx)
    want = np.diag([1.0 / 3.0, -1.0 / 9.0, 1.0 / 27.0])
    assert np.max(np.abs(np.diag(diagonal) - want)) <= 1e-11
    assert md["structural_zeros"] == 3  # upper-triangle pairs only
    assert md["symbol"] == "gaussian:nu=2.0,anorm=1.0"
    assert md["basis_size"] == 3 and md["N"] == 2 and md["d"] == 1
    assert list(md) == ["symbol", "h", "N", "d", "basis_size", "route", "quadrature_order", "structural_zeros"]


def test_matrix_size_cap():
    """A diagonal section goes up to MAX_DIAGONAL_SIZE states and carries
    only its diagonal above MAX_MATRIX_SIZE; dense sections stop at
    MAX_MATRIX_SIZE before any entry is built."""
    ctx = CalcContext(h=1.0)
    diagonal, meta = assemble_matrix(gaussian_symbol(1.0, 1.0), TruncationSet(1, MAX_MATRIX_SIZE), ctx)
    assert meta["basis_size"] == MAX_MATRIX_SIZE + 1
    assert diagonal.shape == (MAX_MATRIX_SIZE + 1,)
    assert eig_hermitian(diagonal)[-1] == 0.5
    with pytest.raises(ValueError, match="diagonal-section cap is 262144"):
        assemble_matrix(gaussian_symbol(1.0, 1.0), TruncationSet(1, MAX_DIAGONAL_SIZE), ctx)
    for sym in (box_symbol(1.0), poly_symbol(Poly2.from_dict({(2, 0): 1.0}))):
        with pytest.raises(ValueError, match="dense-matrix cap is 4096"):
            assemble_matrix(sym, TruncationSet(1, MAX_MATRIX_SIZE), ctx)
    big = {(j,): 1.0 for j in range(MAX_MATRIX_SIZE + 1)}
    with pytest.raises(ValueError, match="dense-matrix cap is 4096"):
        quadratic_form(gaussian_symbol(1.0, 1.0), big, big, ctx)


def test_dense_cap_refuses_before_the_degree_array(monkeypatch):
    """A 10^8-state box section is refused by its size alone: its degree
    array is never built."""

    def no_degrees(self):
        raise AssertionError("the degree array was built")

    monkeypatch.setattr(TruncationSet, "degrees", property(no_degrees))
    with pytest.raises(ValueError, match="dense-matrix cap is 4096"):
        assemble_matrix(box_symbol(1.0), TruncationSet(1, 10**8), CalcContext(h=1.0))


def test_dual_wigner_routes_agree():
    """The closed Laguerre route and the defining-integral route must build
    the same matrix, off-diagonal entries included; the slow route is kept
    as an independent witness."""
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(2.0, 1.0)
    trunc = TruncationSet(1, 2)
    fast, _ = assemble_matrix(sym, trunc, ctx)
    idxs = trunc.degrees.tolist()
    slow = np.array([[defining_integral.element(sym, a, b, ctx)[0] for b in idxs] for a in idxs])
    assert np.max(np.abs(np.diag(fast) - slow)) <= 1e-8


def test_box_element_matches_classical_square():
    """At h = 1/(2 pi) the box element I_00 is the unit-square mass of the
    classical ground-state Wigner function."""
    ctx = CalcContext(h=1.0 / (2.0 * math.pi))
    got = matrix_element(box_symbol(1.0), (), (), ctx)
    assert abs(got - 0.24980366326911302) <= 1e-9


def test_box_respects_h_side_coupling():
    # integrating W_00 over [0, 2 pi h a) x [0, a) directly
    ctx = CalcContext(h=0.5)
    a = 1.2
    got = matrix_element(box_symbol(a), (), (), ctx)
    from scipy import integrate

    want, _ = integrate.dblquad(
        lambda xi, x: math.exp(-(x * x + xi * xi) / ctx.h) / (math.pi * ctx.h),
        0.0,
        2.0 * math.pi * ctx.h * a,
        0.0,
        a,
        epsabs=1e-12,
    )
    assert abs(got - want) <= 1e-9


def test_box_section_matches_rectangle_oracle():
    """Box entries against scipy dblquad of W_cl(phi_j, phi_k) over the
    classical rectangle [0, lambda a) x [0, a/lambda), lambda = sqrt(2 pi h)."""
    pairs = ((0, 0), (0, 1), (1, 3), (2, 2))
    want: dict = {}
    for h in (0.5, 2.0):
        lam = math.sqrt(2.0 * math.pi * h)
        for a in (0.5, 2.0, math.inf):
            M, _ = assemble_matrix(box_symbol(a), TruncationSet(1, 3), CalcContext(h=h))
            rect = (lam * a, a / lam)
            for j, k in pairs:
                if (j, k, rect) not in want:
                    want[j, k, rect] = oracles.flandrin_rect_entry(j, k, *rect)
                assert abs(M[j, k] - want[j, k, rect]) <= 1e-10, (h, a, j, k)


def test_box_section_at_degree_256_matches_rectangle_oracle():
    # above the former limit 128 the normalized rows keep the whole section
    # finite, and its low-degree corner is the rectangle integral
    lam = math.sqrt(2.0 * math.pi)
    M, meta = assemble_matrix(box_symbol(1.0), TruncationSet(1, 256), CalcContext(h=1.0))
    assert M.shape == (257, 257) and np.all(np.isfinite(M))
    assert meta["route"] == "box panels"
    for j, k in ((0, 0), (0, 1), (1, 3), (2, 2)):
        assert abs(M[j, k] - oracles.flandrin_rect_entry(j, k, lam, 1.0 / lam)) <= 1e-10, (j, k)


def test_quarter_plane_box_section_is_closed():
    section, meta = assemble_matrix(box_symbol(math.inf), TruncationSet(1, 40), CalcContext(h=0.3))
    assert meta["route"] == "closed: quarter-plane 2F1 recurrence"
    assert meta["quadrature_order"] == 0
    assert np.max(np.abs(section - wigner._quarter_plane_matrix(40))) == 0.0


def test_box_section_embeds_the_one_pair_section():
    # the box sees the first pair only: I_ab = M[a_1, b_1] delta(a_2, b_2)
    ctx = CalcContext(h=1.0)
    M, _ = assemble_matrix(box_symbol(1.0), TruncationSet(1, 3), ctx)
    trunc = TruncationSet(2, 3)
    got, _ = assemble_matrix(box_symbol(1.0), trunc, ctx)
    deg = trunc.degrees
    want = M[np.ix_(deg[:, 0], deg[:, 0])] * (deg[:, None, 1] == deg[None, :, 1])
    assert np.array_equal(got, want)
    a, b = (1, 2), (3, 2)
    assert matrix_element(box_symbol(1.0), a, b, ctx) == M[1, 3]
    assert matrix_element(box_symbol(1.0), a, (3, 1), ctx) == 0.0


def test_box_degree_limit():
    # the classical table on a quadrature rule stops at degree 1024
    ctx = CalcContext(h=1.0)
    with pytest.raises(ValueError, match="1024"):
        assemble_matrix(box_symbol(1.0), TruncationSet(1, 1025), ctx)
    with pytest.raises(ValueError, match="1024"):
        matrix_element(box_symbol(1.0), (1025,), (), ctx)
    section, _ = assemble_matrix(box_symbol(1.0), TruncationSet(1, 128), ctx)
    assert np.all(np.isfinite(section))


def test_box_stalled_doubling_raises(monkeypatch):
    # one panel per piece of the polar rule (one point per unit radius and
    # per radian swept), doubled once, cannot resolve degree 48 on the
    # rectangle of box(3) (the quarter plane runs no quadrature)
    monkeypatch.setattr(wigner, "_polar_points", lambda length, sweep, N: length + sweep)
    ctx = CalcContext(h=1.0)
    f = {(48,): 1.0}
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        assemble_matrix(box_symbol(3.0), TruncationSet(1, 48), ctx)
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        matrix_element(box_symbol(3.0), (48,), (), ctx)
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        quadratic_form(box_symbol(3.0), f, f, ctx)
    # small degrees still converge on the same coarse start: I_00 is the
    # rectangle mass of 2 e^{-2 pi r^2}, (1/4) erf(s lambda a) erf(s a/lambda)
    s = math.sqrt(2.0 * math.pi)
    lam = math.sqrt(2.0 * math.pi * ctx.h)
    want = 0.25 * math.erf(s * lam * 3.0) * math.erf(s * 3.0 / lam)
    assert abs(matrix_element(box_symbol(3.0), (), (), ctx) - want) <= 1e-12


def test_quadratic_form_diagonal_mix():
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(2.0, 1.0)
    r = 1.0 / math.sqrt(2.0)
    f = {(0,): r, (1,): r}
    got = quadratic_form(sym, f, f, ctx)
    want = 0.5 * (diag_law(0, 2.0, 1.0) + diag_law(1, 2.0, 1.0))
    assert abs(got - want) <= 1e-11
    # <Op(1) f, f> = |f|^2
    got1 = quadratic_form(const_symbol(1.0), f, f, ctx)
    assert abs(got1 - 1.0) <= 1e-10


def _skew_custom(x, xi):
    """e^{-r^2/2} (1 + 0.3 i xi): a complex, non-radial custom symbol."""
    return np.exp(-0.5 * (x[:, 0] ** 2 + xi[:, 0] ** 2)) * (1.0 + 0.3j * xi[:, 0])


@pytest.mark.parametrize(
    "sym",
    [
        tensor_radial_symbol([(PhiSpec(kind="exp", nu=0.7), 1), (PhiSpec(kind="polyexp", coeffs=(1.0, -0.5)), 1)]),
        box_symbol(1.0),
        custom_symbol(_skew_custom, d=1),
        gaussian_symbol(0.5, 1.0),
    ],
    ids=["tensorradial", "box", "custom", "gaussian"],
)
def test_quadratic_form_is_the_entrywise_sum(sym):
    """<Op(F) f, g> with f != g equals sum c_a conj(c'_b) I_ab entry by entry,
    on the closed, box and ladder routes, with supports mixing pairs the
    symbol sees and pair 3, which it does not."""
    ctx = CalcContext(h=1.0)
    f = {(0,): 0.6, (1, 0, 1): 0.3 - 0.2j, (2,): 0.1j, (0, 1): 0.4}
    g = {(1,): 0.5, (0, 0, 1): 0.4j, (2,): -0.3, (1, 0, 1): 0.2, (0, 1): 0.7}
    want = sum(ca * np.conjugate(cb) * matrix_element(sym, a, b, ctx) for a, ca in f.items() for b, cb in g.items())
    got = quadratic_form(sym, f, g, ctx)
    assert abs(want) > 1e-3
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize(
    "sym",
    [gaussian_symbol(0.5, 1.0), box_symbol(1.0), custom_symbol(_skew_custom, d=1)],
    ids=["closed", "box", "ladder"],
)
def test_degree_tuples_name_basis_elements(sym):
    """A basis element is its degree tuple: trailing zeros name the same
    element, a negative degree is refused, an empty expansion gives 0, and a
    coefficient split over two spellings of one element gives the form of
    the summed coefficient."""
    ctx = CalcContext(h=1.0)
    assert matrix_element(sym, (1, 0, 0), (1, 0), ctx) == matrix_element(sym, (1,), (1,), ctx)
    for bad in ((-1,), (0, -1)):
        with pytest.raises(ValueError, match="degrees must be nonnegative"):
            matrix_element(sym, bad, (0,), ctx)
    f = {(0,): 0.6, (1,): 0.3 - 0.2j}
    assert quadratic_form(sym, {}, f, ctx) == 0.0 and quadratic_form(sym, f, {}, ctx) == 0.0
    split = {(0,): 0.6, (1,): 0.1 - 0.2j, (1, 0): 0.2}
    assert abs(quadratic_form(sym, split, f, ctx) - quadratic_form(sym, f, f, ctx)) <= 1e-15


def test_ladder_section_meta_pins():
    """Ladder-route bookkeeping at h = 1 on the two-pair degree-1 set: a
    custom symbol records no structural zeros and its largest ladder order."""
    ctx = CalcContext(h=1.0)
    trunc = TruncationSet(2, 1)
    custom = custom_symbol(lambda x, xi: np.exp(-0.5 * (x[:, 0] ** 2 + xi[:, 0] ** 2)) * (1.0 + 0.3 * x[:, 0]), d=1)
    _, meta = assemble_matrix(custom, trunc, ctx)
    assert (meta["structural_zeros"], meta["quadrature_order"]) == (0, 36)


def test_eig_hermitian():
    evs = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(evs, [-1.0, 1.0])
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    section, _ = assemble_matrix(
        gaussian_symbol(2.0, 1.0), TruncationSet(1, 2), CalcContext(h=1.0)
    )
    evs = eig_hermitian(section)
    assert np.allclose(evs, sorted([1.0 / 3.0, -1.0 / 9.0, 1.0 / 27.0]), atol=1e-11)


def test_poly2_rotation_algebra():
    x = Poly2.from_dict({(1, 0): 1.0})
    assert x.rot().terms == Poly2.from_dict({(0, 1): -1.0}).terms
    x2 = Poly2.from_dict({(2, 0): 1.0})
    assert x2.rot_power(2).terms == Poly2.from_dict({(2, 0): -2.0, (0, 2): 2.0}).terms
    r2 = Poly2.from_dict({(2, 0): 1.0, (0, 2): 1.0})
    assert r2.rot().terms == ()  # radial polynomials rotate to zero
    assert x2.degree() == 2 and Poly2.from_dict({}).degree() == 0


def test_ipp_frozen_values():
    ctx = CalcContext(h=1.0)
    lhs, _, residual = ipp_check(Poly2.from_dict({(1, 0): 1.0}), 1, 1, 1, None, ctx)
    assert abs(lhs - (-1j * math.pi / 2.0)) <= 1e-10
    assert residual <= 1e-10
    lhs, _, residual = ipp_check(Poly2.from_dict({(2, 0): 1.0}), 2, 2, 1, None, ctx)
    assert abs(lhs - (-2.0 * math.pi)) <= 1e-9
    assert residual <= 1e-9


def test_ipp_with_weight_polynomial_and_eps():
    ctx = CalcContext(h=0.5)
    F = Poly2.from_dict({(2, 1): 1.0})  # x^2 xi
    for eps in (1, -1):
        _, _, residual = ipp_check(F, 2, 2, eps, (0.0, 1.0), ctx)  # P(t) = t
        assert residual <= 1e-9
    _, _, residual = ipp_check(F, 1, 3, 1, (1.0, 0.5), ctx)
    assert residual <= 1e-9


def test_rotation_reduction_matches_direct():
    ctx = CalcContext(h=1.0)
    sym = poly_symbol(Poly2.from_dict({(1, 0): 1.0}))
    a, b = (), (1,)
    direct = matrix_element(sym, a, b, ctx)
    assert abs(direct - math.sqrt(0.5)) <= 1e-9
    reduced = rotation_reduction(sym, a, b, 1, 1, ctx)
    assert abs(direct - reduced) <= 1e-8
    # n = 2 transported derivative on a degree-2 symbol, (j,k) = (0,2)
    sym2 = poly_symbol(Poly2.from_dict({(2, 0): 1.0}))
    b2 = (2,)
    direct2 = matrix_element(sym2, (), b2, ctx)
    reduced2 = rotation_reduction(sym2, (), b2, 1, 2, ctx)
    assert abs(direct2 - reduced2) <= 1e-8


def test_rotation_reduction_structural_cases():
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(1.0, 1.0)
    assert rotation_reduction(sym, (), (1,), 1, 1, ctx) == 0.0j
    psym = poly_symbol(Poly2.from_dict({(1, 0): 1.0}))
    assert rotation_reduction(psym, (0, 0), (0, 1), 2, 1, ctx) == 0.0j
    with pytest.raises(ValueError):
        rotation_reduction(psym, (1,), (1,), 1, 1, ctx)
    with pytest.raises(ValueError):
        rotation_reduction(box_symbol(1.0), (), (1,), 1, 1, ctx)


# ---------------------------------------------------------------------------
# The closed Gaussian-mixture route against the tensor Gauss-Hermite ladder.
# ---------------------------------------------------------------------------

MIXTURES = {
    "const": const_symbol(1.5),
    "gaussian nu=0.5": gaussian_symbol(0.5, 1.0),
    "gaussian nu=2": gaussian_symbol(2.0, 1.0),
    "radial exp d=2": radial_symbol(PhiSpec(kind="exp", nu=0.7), 2),
    "radial polyexp d=2": radial_symbol(PhiSpec(kind="polyexp", coeffs=(1.0, -1.0)), 2),
    "tensorradial d=3": tensor_radial_symbol(
        [(PhiSpec(kind="one"), 1), (PhiSpec(kind="exp", nu=2.0), 2)]
    ),
    "heated radial d=2": heat_apply(radial_symbol(PhiSpec(kind="exp", nu=1.0), 2), [1], 0.5),
}


def _ladder_diagonal(sym, truncation, h, element, cache):
    """Diagonal of a mixture section by Fubini over pairs,
    sum_k c_k prod_j I_{a_j a_j}(e^{-nu_kj r^2}), each one-pair factor by
    `element` (the tensor ladder or the defining-integral route, each
    returning (value, order)).  The ladder over all 2d coordinates
    takes about a second per entry at d = 2 (a 4-D grid, orders up to
    100), and at d = 3 its cap of 21 orders leaves no second order to
    compare from degree 2 on."""

    def pair(nu, j):
        key = (nu, j)
        if key not in cache:
            a = (j,)
            one_pair = mixture_symbol([(1.0, {1: nu})], 1)
            cache[key], _ = element(one_pair, a, a, CalcContext(h=h))
        return cache[key]

    return np.array([
        sum(c * math.prod(pair(nu, alpha[j - 1]) for j, nu in pairs)
            for c, pairs in sym.mixture_terms)
        for alpha in (row + [0] * sym.d for row in truncation.degrees.tolist())
    ])


# The defining-integral Wigner route is held to the README's 1e-8; with its
# inner rule at twice the outer order it is within 6.8e-14 for gaussian
# nu=0.5 at h=0.5 (2.3e-9 with a fixed inner rule).
@pytest.mark.parametrize("element,tol", [
    pytest.param(_tensor_element, 1e-12, id="closed-1e-12"),
    pytest.param(defining_integral.element, 1e-8, id="quadrature-1e-08"),
])
@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_closed_section_matches_tensor_ladder(h, element, tol):
    ctx = CalcContext(h=h)
    cache: dict = {}
    for name, sym in MIXTURES.items():
        # truncation dims below the symbol's pair count (the missing pairs have
        # degree 0) and above it (delta factors)
        for trunc in (TruncationSet(max(1, sym.d - 1), 3), TruncationSet(sym.d + 1, 2)):
            diagonal, meta = assemble_matrix(sym, trunc, ctx)
            assert meta["route"] == ROUTE_CLOSED and diagonal.ndim == 1
            want = _ladder_diagonal(sym, trunc, h, element, cache)
            err = float(np.max(np.abs(diagonal - want)))
            assert err <= tol, (name, trunc, err)


@pytest.mark.parametrize("deg,h", [(1, 0.5), (2, 0.5), (2, 1.0)])
def test_defining_integral_route_is_right(deg, h):
    """The defining-integral Wigner route on gaussian nu=0.5, |a|=0.5: its
    inner rule follows the outer order, so the entries the outer ladder
    drives far (off by up to 2.6e-3 with a fixed inner rule) match the
    closed law."""
    ctx = CalcContext(h=h)
    sym = gaussian_symbol(0.5, 0.5)
    alpha = (deg,)
    got, _ = defining_integral.element(sym, alpha, alpha, ctx)
    assert abs(got - diag_law(deg, 0.5 * 0.25, h)) <= 1e-8


def test_defining_integral_route_raises_where_it_stalls():
    """nu |a|^2 h = 16: the outer ladder cannot converge under its cap on
    this route (the cap is halved so the inner rule stays within gh_rule)."""
    with pytest.raises(QuadratureConvergenceError):
        defining_integral.element(gaussian_symbol(2.0, 2.0), (1,), (1,),
                                  CalcContext(h=2.0))


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_closed_section_matches_full_ladder_one_pair(h):
    """Every entry, off-diagonal ones included, of one-pair mixtures on a
    two-pair truncation against the ladder on the whole symbol."""
    ctx = CalcContext(h=h)
    trunc = TruncationSet(2, 2)
    idxs = trunc.degrees.tolist()
    heated = heat_apply(gaussian_symbol(2.0, 1.0), [1], h / 2.0)
    for sym in (const_symbol(1.5), gaussian_symbol(0.5, 1.0), gaussian_symbol(2.0, 1.0), heated):
        M = np.diag(assemble_matrix(sym, trunc, ctx)[0])
        for p, a in enumerate(idxs):
            for q in range(p, len(idxs)):
                b = idxs[q]
                if a[1] != b[1]:
                    assert M[p, q] == 0.0j  # delta factor of the unseen pair
                    continue
                want, _ = _tensor_element(sym, a, b, ctx)
                assert abs(M[p, q] - want) <= 1e-12, (sym, a, b)


def test_tensor_ladder_entry_memory_is_bounded():
    """One d = 2 degree-3 entry on the ladder over all four coordinates runs
    in blocks of the tensor grid and stays under 300 MB resident.  The child
    reads its own peak (VmHWM): ru_maxrss would carry over the peak of the
    process that started it."""
    script = (
        "from gaussweyl.basis import CalcContext\n"
        "from gaussweyl.quadform import _tensor_element\n"
        "from gaussweyl.symbols import parse_symbol\n"
        "a = (3, 3)\n"
        "val, _ = _tensor_element(parse_symbol('radial:phi=exp:nu=0.7,d=2'), a, a, CalcContext(h=1.0))\n"
        "hwm = next(l for l in open('/proc/self/status') if l.startswith('VmHWM:'))\n"
        "print(val.real, hwm.split()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    val, hwm_kib = proc.stdout.split()
    assert abs(float(val) - diag_law(3, 0.7, 1.0) ** 2) <= 1e-12
    assert int(hwm_kib) < 300 * 1024


def test_tensor_ladder_at_its_cap_raises_at_once():
    """At d = 3 the point budget caps the ladder at order 21, where a degree-2
    entry already starts: it raises before evaluating any shot."""
    a = (2, 0, 0)  # the ladder reads padded rows
    t0 = time.perf_counter()
    with pytest.raises(QuadratureConvergenceError, match="cap 21"):
        _tensor_element(MIXTURES["tensorradial d=3"], a, a, CalcContext(h=1.0))
    assert time.perf_counter() - t0 < 1.0


def test_single_entries_use_the_closed_law():
    ctx = CalcContext(h=1.0)
    sym = MIXTURES["tensorradial d=3"]
    trunc = TruncationSet(3, 2)
    diagonal, _ = assemble_matrix(sym, trunc, ctx)
    rows = [tuple(row) for row in trunc.degrees.tolist()]
    for p, a in enumerate(rows):
        assert matrix_element(sym, a, a, ctx) == diagonal[p]
    # beyond the truncation's dims the symbol's pairs sit at degree 0
    assert matrix_element(sym, (2,), (2,), ctx) == diagonal[rows.index((2, 0, 0))]
    assert matrix_element(sym, (0, 1), (0, 0, 1), ctx) == 0.0j


def test_full_cap_section_spectrum():
    """d = 2, N = 63: the 4096-state cap, diagonal only."""
    ctx = CalcContext(h=1.0)
    diagonal, _ = assemble_matrix(MIXTURES["radial exp d=2"], TruncationSet(2, 63), ctx)
    eigs = eig_hermitian(diagonal)
    assert diagonal.ndim == 1
    j = np.arange(64)
    one_pair = diag_law(j, 0.7, 1.0)
    assert eigs.shape == (4096,)
    assert np.max(np.abs(eigs - np.sort(np.multiply.outer(one_pair, one_pair).ravel()))) <= 1e-15


def test_eig_hermitian_diagonal_section():
    real = np.array([0.5, -1.0, 0.25])
    assert list(eig_hermitian(real)) == [-1.0, 0.25, 0.5]
    skew = np.diag([0.5, 1.0 + 1e-3j, 0.25])
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(skew)


def test_closed_section_keeps_a_real_diagonal():
    """The closed law is real, so its section stores 8 bytes a state and no
    dense matrix; a matrix element stays complex."""
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(2.0, 1.0)
    diagonal, _ = assemble_matrix(sym, TruncationSet(1, 4), ctx)
    assert diagonal.dtype == np.float64 and diagonal.ndim == 1
    assert np.max(np.abs(diagonal - [diag_law(j, 2.0, 1.0) for j in range(5)])) <= 1e-15
    assert matrix_element(sym, (2,), (2,), ctx) == complex(diagonal[2])
    assert type(matrix_element(sym, (2,), (2,), ctx)) is complex


def test_matrix_metadata_names_the_route():
    """Every symbol with a Gaussian-mixture form takes the closed law and
    builds no dense matrix (so the ladder never sees a per-pair radial
    symbol); custom symbols take the ladder."""
    ctx = CalcContext(h=1.0)
    trunc = TruncationSet(1, 1)
    poly = poly_symbol(Poly2.from_dict({(2, 0): 1.0, (0, 2): 1.0}))
    heated_mixture = heat_apply(gaussian_symbol(2.0, 1.0), [1], 0.5)
    cases = [(sym, ROUTE_CLOSED) for sym in (*MIXTURES.values(), heated_mixture)] + [
        (box_symbol(1.0), ROUTE_BOX),
        (box_symbol(math.inf), ROUTE_QUARTER),
        (poly, ROUTE_LADDER),
        (custom_symbol(_skew_custom, d=1), ROUTE_LADDER),
    ]
    assert ROUTE_CLOSED == "closed: Gaussian-mixture diagonal law"
    assert (ROUTE_BOX, ROUTE_LADDER) == ("box panels", "tensor ladder")
    for sym, route in cases:
        section, meta = assemble_matrix(sym, trunc, ctx)
        assert meta["route"] == route, sym
        assert (section.ndim == 1) == (route == ROUTE_CLOSED)
