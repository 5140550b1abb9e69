"""Operator matrix elements: closed diagonal law, structural zeros, dual
quadrature routes, and rotation integration-by-parts."""

import math
import subprocess
import sys
import time

import numpy as np
import oracles
import pytest

from gaussweyl import wigner
from gaussweyl.basis import CalcContext, MultiIndex, TruncationSet
from gaussweyl.gaussian import QuadratureConvergenceError
from gaussweyl.heat import heat_apply
from gaussweyl.quadform import (
    ROUTE_BOX,
    ROUTE_CLOSED,
    ROUTE_LADDER,
    HermiteExpansion,
    OperatorMatrix,
    Poly2,
    _tensor_element,
    assemble_matrix,
    eig_hermitian,
    ipp_check,
    matrix_element,
    matrix_metadata,
    poly_symbol,
    quadratic_form,
    rotation_reduction,
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
    got = matrix_element(sym, MultiIndex({1: j}), MultiIndex({1: j}), ctx)
    assert abs(got - want) <= 1e-11
    assert abs(diag_law(j, nu, h) - want) <= 1e-15
    assert abs(got.imag) <= 1e-13


def test_gaussian_offdiagonal_vanishes():
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(1.0, 1.0)
    for a, b in [((0,), (1,)), ((0,), (2,)), ((1,), (3,))]:
        got = matrix_element(sym, MultiIndex.from_tuple(a), MultiIndex.from_tuple(b), ctx)
        assert abs(got) <= 1e-12


def test_anorm_enters_through_norm_only():
    # direction norm |a| rescales nu: I(e^{-nu |a|^2 r^2}) at anorm=1
    ctx = CalcContext(h=1.0)
    got = matrix_element(gaussian_symbol(0.5, 2.0), MultiIndex({1: 1}), MultiIndex({1: 1}), ctx)
    assert abs(got - diag_law(1, 0.5 * 4.0, 1.0)) <= 1e-11


def test_coordinates_beyond_symbol_dimension():
    """Pairs the symbol does not see integrate to delta factors."""
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(2.0, 1.0)  # d = 1
    a = MultiIndex({1: 1, 3: 2})
    same = matrix_element(sym, a, a, ctx)
    assert abs(same - diag_law(1, 2.0, 1.0)) <= 1e-11
    crossed = matrix_element(sym, MultiIndex({1: 1, 3: 2}), MultiIndex({1: 1, 3: 1}), ctx)
    assert crossed == 0.0j  # exact structural zero, no quadrature


def test_radial_matrix_is_diagonal_with_laplace_means():
    """For radial Phi(sum r_j^2) in d=2 the diagonal is a 2-fold product of
    per-pair means; checked against the separable exp closed form."""
    ctx = CalcContext(h=0.5)
    phi = PhiSpec(kind="exp", nu=1.5)
    sym = radial_symbol(phi, 2)
    trunc = TruncationSet(2, 1)
    om = assemble_matrix(sym, trunc, ctx)
    assert om.meta["pairwise_radial"]
    idxs = trunc.indices()
    for p, alpha in enumerate(idxs):
        for q, beta in enumerate(idxs):
            if p != q:
                assert om.entries[p, q] == 0.0j
            else:
                want = np.prod([diag_law(alpha.degree(i), 1.5, 0.5) for i in (1, 2)])
                assert abs(om.entries[p, p] - want) <= 1e-10


def test_assemble_matrix_matches_cli_example():
    ctx = CalcContext(h=1.0)
    om = assemble_matrix(gaussian_symbol(2.0, 1.0), TruncationSet(1, 2), ctx)
    want = np.diag([1.0 / 3.0, -1.0 / 9.0, 1.0 / 27.0])
    assert np.max(np.abs(om.entries - want)) <= 1e-11
    assert om.meta["structural_zeros"] == 3  # upper-triangle pairs only
    md = matrix_metadata(om)
    assert md["symbol"] == "gaussian:nu=2.0,anorm=1.0"
    assert md["basis_size"] == 3 and md["N"] == 2 and md["d"] == 1
    assert md["wigner_route"] == "closed"


def test_matrix_size_cap():
    with pytest.raises(ValueError):
        assemble_matrix(
            gaussian_symbol(1.0, 1.0), TruncationSet(1, 4096), CalcContext(h=1.0)
        )


def test_dual_wigner_routes_agree():
    """The closed Laguerre route and the defining-integral route must build
    the same matrix; the slow route is kept as an independent witness."""
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(2.0, 1.0)
    trunc = TruncationSet(1, 2)
    fast = assemble_matrix(sym, trunc, ctx)
    slow = assemble_matrix(sym, trunc, ctx, wigner_route="quadrature")
    assert slow.meta["wigner_route"] == "quadrature"
    assert np.max(np.abs(fast.entries - slow.entries)) <= 1e-8


def test_box_element_matches_classical_square():
    """At h = 1/(2 pi) the box element I_00 is the unit-square mass of the
    classical ground-state Wigner function."""
    ctx = CalcContext(h=1.0 / (2.0 * math.pi))
    got = matrix_element(box_symbol(1.0), MultiIndex(), MultiIndex(), ctx)
    assert abs(got - 0.24980366326911302) <= 1e-9
    with pytest.raises(ValueError):
        matrix_element(box_symbol(1.0), MultiIndex(), MultiIndex(), ctx, wigner_route="quadrature")


def test_box_respects_h_side_coupling():
    # integrating W_00 over [0, 2 pi h a) x [0, a) directly
    ctx = CalcContext(h=0.5)
    a = 1.2
    got = matrix_element(box_symbol(a), MultiIndex(), MultiIndex(), ctx)
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
            M = assemble_matrix(box_symbol(a), TruncationSet(1, 3), CalcContext(h=h)).entries
            rect = (lam * a, a / lam)
            for j, k in pairs:
                if (j, k, rect) not in want:
                    want[j, k, rect] = oracles.flandrin_rect_entry(j, k, *rect)
                assert abs(M[j, k] - want[j, k, rect]) <= 1e-10, (h, a, j, k)


def test_box_section_embeds_the_one_pair_section():
    # the box sees the first pair only: I_ab = M[a_1, b_1] delta(a_2, b_2)
    ctx = CalcContext(h=1.0)
    M = assemble_matrix(box_symbol(1.0), TruncationSet(1, 3), ctx).entries
    trunc = TruncationSet(2, 3)
    got = assemble_matrix(box_symbol(1.0), trunc, ctx).entries
    deg = trunc.degrees
    want = M[np.ix_(deg[:, 0], deg[:, 0])] * (deg[:, None, 1] == deg[None, :, 1])
    assert np.array_equal(got, want)
    a, b = MultiIndex.from_tuple((1, 2)), MultiIndex.from_tuple((3, 2))
    assert matrix_element(box_symbol(1.0), a, b, ctx) == M[1, 3]
    assert matrix_element(box_symbol(1.0), a, MultiIndex.from_tuple((3, 1)), ctx) == 0.0


def test_box_needs_the_closed_wigner_route():
    ctx = CalcContext(h=1.0)
    f = HermiteExpansion.single((1,), 1.0)
    with pytest.raises(ValueError):
        matrix_element(box_symbol(1.0), MultiIndex(), MultiIndex(), ctx, wigner_route="quadrature")
    with pytest.raises(ValueError):
        assemble_matrix(box_symbol(1.0), TruncationSet(1, 2), ctx, wigner_route="quadrature")
    with pytest.raises(ValueError):
        quadratic_form(box_symbol(1.0), f, f, ctx, wigner_route="quadrature")


def test_box_degree_limit():
    # the classical table's zeta**m and prefactor overflow past degree 128
    ctx = CalcContext(h=1.0)
    with pytest.raises(ValueError, match="128"):
        assemble_matrix(box_symbol(1.0), TruncationSet(1, 129), ctx)
    with pytest.raises(ValueError, match="128"):
        matrix_element(box_symbol(1.0), MultiIndex.from_tuple((129,)), MultiIndex(), ctx)
    om = assemble_matrix(box_symbol(1.0), TruncationSet(1, 128), ctx)
    assert np.all(np.isfinite(om.entries))


def test_box_stalled_doubling_raises(monkeypatch):
    # three panels per axis, doubled twice, cannot resolve degree 48
    monkeypatch.setattr(wigner, "_axis_points", lambda L, N: 1)
    ctx = CalcContext(h=1.0)
    f = HermiteExpansion.single((48,), 1.0)
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        assemble_matrix(box_symbol(math.inf), TruncationSet(1, 48), ctx)
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        matrix_element(box_symbol(math.inf), MultiIndex.from_tuple((48,)), MultiIndex(), ctx)
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        quadratic_form(box_symbol(math.inf), f, f, ctx)
    # small degrees still converge on the same coarse start
    assert abs(matrix_element(box_symbol(math.inf), MultiIndex(), MultiIndex(), ctx) - 0.25) <= 1e-12


def test_hermite_expansion_bookkeeping():
    f = HermiteExpansion.from_pairs([((0,), 1.0), ((1,), 2.0), ((0,), 1.0)])
    assert f.norm_sq() == pytest.approx(8.0)  # (1+1)^2 + 2^2
    assert f.dims() == 1
    assert len(f.coeffs) == 2
    g = HermiteExpansion.single((), 1.0)
    assert g.dims() == 0 and g.norm_sq() == 1.0


def test_quadratic_form_diagonal_mix():
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(2.0, 1.0)
    r = 1.0 / math.sqrt(2.0)
    f = HermiteExpansion.from_pairs([((0,), r), ((1,), r)])
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
    f = HermiteExpansion.from_pairs([((0,), 0.6), ((1, 0, 1), 0.3 - 0.2j), ((2,), 0.1j), ((0, 1), 0.4)])
    g = HermiteExpansion.from_pairs([((1,), 0.5), ((0, 0, 1), 0.4j), ((2,), -0.3), ((1, 0, 1), 0.2), ((0, 1), 0.7)])
    want = sum(ca * np.conjugate(cb) * matrix_element(sym, a, b, ctx) for a, ca in f.items() for b, cb in g.items())
    got = quadratic_form(sym, f, g, ctx)
    assert abs(want) > 1e-3
    assert abs(got - want) <= 1e-14 * abs(want)


def test_ladder_section_meta_pins():
    """Ladder-route bookkeeping at h = 1 on the two-pair degree-1 set: a
    per-pair radial symbol skips all 6 upper off-diagonal pairs, including
    those differing only beyond its pair; a custom symbol skips none."""
    ctx = CalcContext(h=1.0)
    trunc = TruncationSet(2, 1)
    radial = assemble_matrix(radial_symbol(PhiSpec(kind="exp", nu=0.7), 1), trunc, ctx, wigner_route="quadrature")
    assert (radial.meta["structural_zeros"], radial.meta["max_order"]) == (6, 52)
    custom = custom_symbol(lambda x, xi: np.exp(-0.5 * (x[:, 0] ** 2 + xi[:, 0] ** 2)) * (1.0 + 0.3 * x[:, 0]), d=1)
    om = assemble_matrix(custom, trunc, ctx, wigner_route="quadrature")
    assert (om.meta["structural_zeros"], om.meta["max_order"]) == (0, 36)


def test_eig_hermitian():
    evs = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(evs, [-1.0, 1.0])
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_hermitian(np.zeros((2, 3)))
    om = assemble_matrix(
        gaussian_symbol(2.0, 1.0), TruncationSet(1, 2), CalcContext(h=1.0)
    )
    evs = eig_hermitian(om)
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
    res = ipp_check(Poly2.from_dict({(1, 0): 1.0}), 1, 1, 1, None, ctx)
    assert res.method == "analytic"
    assert abs(res.lhs - (-1j * math.pi / 2.0)) <= 1e-10
    assert res.residual <= 1e-10
    res2 = ipp_check(Poly2.from_dict({(2, 0): 1.0}), 2, 2, 1, None, ctx)
    assert abs(res2.lhs - (-2.0 * math.pi)) <= 1e-9
    assert res2.residual <= 1e-9
    lhs, rhs, residual = res2  # tuple protocol
    assert (lhs, rhs, residual) == (res2.lhs, res2.rhs, res2.residual)


def test_ipp_with_weight_polynomial_and_eps():
    ctx = CalcContext(h=0.5)
    F = Poly2.from_dict({(2, 1): 1.0})  # x^2 xi
    for eps in (1, -1):
        res = ipp_check(F, 2, 2, eps, (0.0, 1.0), ctx)  # P(t) = t
        assert res.residual <= 1e-9
    res = ipp_check(F, 1, 3, 1, (1.0, 0.5), ctx)
    assert res.residual <= 1e-9


def test_ipp_callable_route_and_guards():
    ctx = CalcContext(h=1.0)
    res = ipp_check(lambda x, xi: x, 1, 1, 1, None, ctx)
    assert res.method == "finite-difference"
    assert not res.fd_warning
    assert abs(res.lhs - (-1j * math.pi / 2.0)) <= 1e-8
    assert res.residual <= 1e-8
    for bad in [dict(n=0, s=1, eps=1), dict(n=1, s=-1, eps=1), dict(n=1, s=1, eps=2)]:
        with pytest.raises(ValueError):
            ipp_check(Poly2.from_dict({(1, 0): 1.0}), bad["n"], bad["s"], bad["eps"], None, ctx)


def test_rotation_reduction_matches_direct():
    ctx = CalcContext(h=1.0)
    sym = poly_symbol(Poly2.from_dict({(1, 0): 1.0}))
    a, b = MultiIndex(), MultiIndex({1: 1})
    direct = matrix_element(sym, a, b, ctx)
    assert abs(direct - math.sqrt(0.5)) <= 1e-9
    reduced = rotation_reduction(sym, a, b, 1, 1, ctx)
    assert abs(direct - reduced) <= 1e-8
    # n = 2 transported derivative on a degree-2 symbol, (j,k) = (0,2)
    sym2 = poly_symbol(Poly2.from_dict({(2, 0): 1.0}))
    b2 = MultiIndex({1: 2})
    direct2 = matrix_element(sym2, MultiIndex(), b2, ctx)
    reduced2 = rotation_reduction(sym2, MultiIndex(), b2, 1, 2, ctx)
    assert abs(direct2 - reduced2) <= 1e-8


def test_rotation_reduction_structural_cases():
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(1.0, 1.0)
    assert rotation_reduction(sym, MultiIndex(), MultiIndex({1: 1}), 1, 1, ctx) == 0.0j
    psym = poly_symbol(Poly2.from_dict({(1, 0): 1.0}))
    assert rotation_reduction(psym, MultiIndex({2: 0}), MultiIndex({2: 1}), 2, 1, ctx) == 0.0j
    with pytest.raises(ValueError):
        rotation_reduction(psym, MultiIndex({1: 1}), MultiIndex({1: 1}), 1, 1, ctx)
    with pytest.raises(ValueError):
        rotation_reduction(box_symbol(1.0), MultiIndex(), MultiIndex({1: 1}), 1, 1, ctx)


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
    "heated radial d=2": heat_apply(radial_symbol(PhiSpec(kind="exp", nu=1.0), 2), [1], 0.5).descriptor(),
}


def _ladder_diagonal(sym, truncation, h, wigner_route, cache):
    """Diagonal of a mixture section by Fubini over pairs,
    sum_k c_k prod_j I_{a_j a_j}(e^{-nu_kj r^2}), each one-pair factor by the
    tensor ladder (_tensor_element).  The ladder over all 2d coordinates
    takes about a second per entry at d = 2 (a 4-D grid, orders up to
    100), and at d = 3 its cap of 21 orders leaves no second order to
    compare from degree 2 on."""

    def pair(nu, j):
        key = (nu, j)
        if key not in cache:
            a = MultiIndex({1: j})
            one_pair = mixture_symbol([(1.0, {1: nu})], 1)
            cache[key], _ = _tensor_element(one_pair, a, a, CalcContext(h=h), wigner_route)
        return cache[key]

    return np.array([
        sum(c * math.prod(pair(nu, alpha.degree(j)) for j, nu in nus.items())
            for c, nus in sym.gauss_mixture())
        for alpha in truncation.indices()
    ])


# The defining-integral Wigner route loses accuracy where the outer rule
# reaches large |xi| (small nu h): 2.3e-9 for gaussian nu=0.5 at h=0.5.
@pytest.mark.parametrize("wigner_route,tol", [("closed", 1e-12), ("quadrature", 1e-8)])
@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_closed_section_matches_tensor_ladder(h, wigner_route, tol):
    ctx = CalcContext(h=h)
    cache: dict = {}
    for name, sym in MIXTURES.items():
        # truncation dims below the symbol's pair count (the missing pairs have
        # degree 0) and above it (delta factors)
        for trunc in (TruncationSet(max(1, sym.d - 1), 3), TruncationSet(sym.d + 1, 2)):
            om = assemble_matrix(sym, trunc, ctx)
            assert om.meta["route"] == ROUTE_CLOSED and om.dense is None
            want = _ladder_diagonal(sym, trunc, h, wigner_route, cache)
            err = float(np.max(np.abs(om.diagonal - want)))
            assert err <= tol, (name, trunc, err)


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_closed_section_matches_full_ladder_one_pair(h):
    """Every entry, off-diagonal ones included, of one-pair mixtures on a
    two-pair truncation against the ladder on the whole symbol."""
    ctx = CalcContext(h=h)
    trunc = TruncationSet(2, 2)
    idxs = trunc.indices()
    heated = heat_apply(gaussian_symbol(2.0, 1.0), [1], h / 2.0).descriptor()
    for sym in (const_symbol(1.5), gaussian_symbol(0.5, 1.0), gaussian_symbol(2.0, 1.0), heated):
        M = assemble_matrix(sym, trunc, ctx).entries
        for p, a in enumerate(idxs):
            for q in range(p, len(idxs)):
                b = idxs[q]
                if a.degree(2) != b.degree(2):
                    assert M[p, q] == 0.0j  # delta factor of the unseen pair
                    continue
                want, _ = _tensor_element(sym, a, b, ctx)
                assert abs(M[p, q] - want) <= 1e-12, (sym, a, b)


def test_tensor_ladder_entry_memory_is_bounded():
    """One d = 2 degree-3 entry on the ladder over all four coordinates runs
    in blocks of the tensor grid and stays under 300 MB resident."""
    script = (
        "import resource\n"
        "from gaussweyl.basis import CalcContext, MultiIndex\n"
        "from gaussweyl.quadform import _tensor_element\n"
        "from gaussweyl.symbols import parse_symbol\n"
        "a = MultiIndex.from_tuple((3, 3))\n"
        "val, _ = _tensor_element(parse_symbol('radial:phi=exp:nu=0.7,d=2'), a, a, CalcContext(h=1.0))\n"
        "print(val.real, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    val, maxrss_kib = proc.stdout.split()
    assert abs(float(val) - diag_law(3, 0.7, 1.0) ** 2) <= 1e-12
    assert int(maxrss_kib) < 300 * 1024


def test_tensor_ladder_at_its_cap_raises_at_once():
    """At d = 3 the point budget caps the ladder at order 21, where a degree-2
    entry already starts: it raises before evaluating any shot."""
    a = MultiIndex({1: 2})
    t0 = time.perf_counter()
    with pytest.raises(QuadratureConvergenceError, match="cap 21"):
        _tensor_element(MIXTURES["tensorradial d=3"], a, a, CalcContext(h=1.0))
    assert time.perf_counter() - t0 < 1.0


def test_single_entries_use_the_closed_law():
    ctx = CalcContext(h=1.0)
    sym = MIXTURES["tensorradial d=3"]
    trunc = TruncationSet(3, 2)
    om = assemble_matrix(sym, trunc, ctx)
    for p, a in enumerate(trunc.indices()):
        assert matrix_element(sym, a, a, ctx) == om.diagonal[p]
    # beyond the truncation's dims the symbol's pairs sit at degree 0
    assert matrix_element(sym, MultiIndex({1: 2}), MultiIndex({1: 2}), ctx) == om.diagonal[
        trunc.index_of(MultiIndex({1: 2}))
    ]
    assert matrix_element(sym, MultiIndex({2: 1}), MultiIndex({3: 1}), ctx) == 0.0j


def test_full_cap_section_spectrum():
    """d = 2, N = 63: the 4096-state cap, diagonal only."""
    ctx = CalcContext(h=1.0)
    om = assemble_matrix(MIXTURES["radial exp d=2"], TruncationSet(2, 63), ctx)
    eigs = eig_hermitian(om)
    assert om.dense is None
    j = np.arange(64)
    one_pair = diag_law(j, 0.7, 1.0)
    assert eigs.shape == (4096,)
    assert np.max(np.abs(eigs - np.sort(np.multiply.outer(one_pair, one_pair).ravel()))) <= 1e-15


def test_eig_hermitian_diagonal_section():
    trunc = TruncationSet(1, 2)
    real = OperatorMatrix(trunc, "diag", 1.0, 1, diagonal=np.array([0.5, -1.0, 0.25], dtype=complex))
    assert list(eig_hermitian(real)) == [-1.0, 0.25, 0.5]
    assert real.dense is None
    assert np.array_equal(real.entries, np.diag(real.diagonal))
    skew = OperatorMatrix(trunc, "diag", 1.0, 1, diagonal=np.array([0.5, 1.0 + 1e-3j, 0.25]))
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(skew)


def test_matrix_metadata_names_the_route():
    ctx = CalcContext(h=1.0)
    trunc = TruncationSet(1, 1)
    poly = poly_symbol(Poly2.from_dict({(2, 0): 1.0, (0, 2): 1.0}))
    cases = [
        (assemble_matrix(gaussian_symbol(2.0, 1.0), trunc, ctx), ROUTE_CLOSED),
        (assemble_matrix(gaussian_symbol(2.0, 1.0), trunc, ctx, wigner_route="quadrature"), ROUTE_LADDER),
        (assemble_matrix(box_symbol(1.0), trunc, ctx), ROUTE_BOX),
        (assemble_matrix(poly, trunc, ctx), ROUTE_LADDER),
    ]
    assert ROUTE_CLOSED == "closed: Gaussian-mixture diagonal law"
    assert (ROUTE_BOX, ROUTE_LADDER) == ("box panels", "tensor ladder")
    for om, route in cases:
        assert matrix_metadata(om)["route"] == route
        assert (om.diagonal is not None) == (route == ROUTE_CLOSED)
