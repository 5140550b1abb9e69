"""Positivity layer: the sign-changing witness, radial lower bounds, the
Garding bound, and the classical box-localization spectrum."""

import math

import numpy as np
import oracles
import pytest
from paper_checks import flandrin_reduction_check

from gaussweyl.basis import CalcContext, TruncationSet
from gaussweyl.gaussian import QuadratureConvergenceError, gl_panel_rule
from gaussweyl.positivity import (
    flandrin_domain_radius,
    flandrin_matrix,
    flandrin_search,
    garding_bound,
    garding_verify,
    nonpos_witness,
    radial_positivity_check,
)
from gaussweyl import quadform, wigner
from gaussweyl.quadform import HermiteExpansion
from gaussweyl.wigner import classical_wigner_diagonals
from gaussweyl.symbols import (
    PhiSpec,
    SymbolDomainError,
    const_symbol,
    custom_symbol,
    gaussian_symbol,
    radial_symbol,
    tensor_radial_symbol,
)


def closed_q(h: float, nu: float, anorm: float) -> float:
    u = h * nu * anorm * anorm
    return (h * anorm * anorm / 2.0) * (1.0 - u) / (1.0 + u) ** 2


# (h, nu, anorm, value): the sign-changing family evaluated at frozen points.
FROZEN_Q = [
    (1.0, 1.0, 1.0, 0.0),
    (1.0, 2.0, 1.0, -1.0 / 18.0),
    (0.5, 1.0, 2.0, -1.0 / 9.0),
    (2.0, 0.25, 1.5, -0.06228373702422145),
]


@pytest.mark.parametrize("h,nu,anorm,want", FROZEN_Q)
def test_nonpos_witness_frozen(h, nu, anorm, want):
    closed, quad = nonpos_witness(nu, anorm, CalcContext(h=h))
    assert abs(closed - want) <= 1e-14
    assert abs(quad - closed) <= 1e-8


def test_nonpos_sign_change_at_unit_threshold():
    ctx = CalcContext(h=1.0)
    # h nu |a|^2 < 1 -> positive, > 1 -> negative
    below, _ = nonpos_witness(0.5, 1.0, ctx)
    above, _ = nonpos_witness(2.0, 1.0, ctx)
    assert below > 0 > above
    # nu -> 0 recovers the positive limit h|a|^2/2
    tiny, _ = nonpos_witness(1e-12, 1.0, ctx)
    assert abs(tiny - 0.5) <= 1e-9
    with pytest.raises(SymbolDomainError):
        nonpos_witness(0.0, 1.0, ctx)
    with pytest.raises(SymbolDomainError):
        nonpos_witness(1.0, -1.0, ctx)


def test_radial_positivity_increasing_profile():
    ctx = CalcContext(h=1.0)
    phi = PhiSpec(kind="polyexp", coeffs=(1.0, -1.0))
    res = radial_positivity_check(radial_symbol(phi, 1), TruncationSet(1, 6), ctx)
    bound, min_eig, ok = res
    assert ok and res.increasing
    assert abs(bound - 0.5) <= 1e-14
    # the all-ground-state diagonal entry achieves the bound exactly
    assert abs(res.diagonal[0] - bound) <= 1e-10
    assert min_eig >= bound - 1e-8


def test_radial_positivity_two_block_tensor():
    ctx = CalcContext(h=0.5)
    sym = tensor_radial_symbol(
        [(PhiSpec(kind="polyexp", coeffs=(1.0, -1.0)), 1), (PhiSpec(kind="one"), 2)]
    )
    res = radial_positivity_check(sym, TruncationSet(3, 2), ctx)
    assert res.increasing and res.ok
    want_bound = (1.0 - 1.0 / 1.5) * 1.0
    assert abs(res.bound - want_bound) <= 1e-14
    assert abs(res.diagonal[0] - want_bound) <= 1e-10


def test_radial_positivity_decreasing_counterexample():
    """The product bound is a theorem only under Phi' >= 0: for the
    decreasing profile e^{-nu t} the spectrum drops strictly below it."""
    ctx = CalcContext(h=1.0)
    res = radial_positivity_check(
        radial_symbol(PhiSpec(kind="exp", nu=0.5), 1), TruncationSet(1, 6), ctx
    )
    assert not res.increasing
    assert not res.ok
    assert res.min_eig < res.bound - 0.1  # far below, not a tolerance artifact
    assert abs(res.bound - 1.0 / 1.5) <= 1e-14


def test_radial_positivity_rejects_other_families():
    with pytest.raises(ValueError):
        radial_positivity_check(
            gaussian_symbol(1.0, 1.0), TruncationSet(1, 2), CalcContext(h=1.0)
        )


def test_garding_bound_geometric():
    rep = garding_bound("2^-j", 1.0, 1.0)
    assert rep.eps_desc == "2^-j"
    assert rep.s_eps == 1.0
    # sum lambda = 81 pi sum 4^{-j} = 27 pi
    assert abs(rep.sum_lambda - 27.0 * math.pi) <= 1e-10
    assert rep.lam[0] == pytest.approx(81.0 * math.pi / 4.0, rel=1e-15)
    assert rep.prod_one_plus_lambda > 1.0 + rep.lam[0]
    assert rep.bound == pytest.approx(-rep.M * rep.sum_lambda * rep.prod_one_plus_lambda)
    d = rep.as_dict()
    assert d["epsilon"] == "2^-j" and len(d["lambda_head"]) <= 32


def test_garding_bound_lemma_sequence():
    rep = garding_bound("j^-2", 1.0, 2.0)
    want = 81.0 * math.pi * math.pi**4 / 90.0  # 81 pi zeta(4)
    assert abs(rep.sum_lambda - want) <= 1e-10
    assert rep.M == 2.0
    assert rep.bound < 0.0


def test_garding_bound_zero_and_guards():
    rep = garding_bound("zero", 2.0, 5.0)
    assert rep.bound == 0.0 and not math.copysign(1.0, rep.bound) < 0
    assert rep.sum_lambda == 0.0 and rep.prod_one_plus_lambda == 1.0
    with pytest.raises(ValueError):
        garding_bound("nope", 1.0, 1.0)
    with pytest.raises(ValueError):
        garding_bound("j^-2", 0.0, 1.0)
    with pytest.raises(ValueError):
        garding_bound("j^-2", 1.0, -1.0)


def test_garding_bound_callable_and_s_eps():
    rep = garding_bound(lambda j: 2.0 if j == 1 else 0.0, 1.0, 1.0)
    assert rep.s_eps == 4.0
    assert rep.lam[0] == pytest.approx(81.0 * math.pi * 4.0 * 4.0, rel=1e-15)
    with pytest.raises(ValueError):
        garding_bound(lambda j: 1.0, 1.0, 1.0)  # not square-summable


def test_garding_verify_gaussian():
    ctx = CalcContext(h=1.0)
    rep = garding_verify(gaussian_symbol(2.0, 1.0), TruncationSet(1, 6), ctx)
    assert rep.M == pytest.approx(16.0, rel=1e-12)
    assert rep.measured_min_eig == pytest.approx(-1.0 / 9.0, abs=1e-10)
    assert rep.margin is not None and rep.margin > 0.0
    assert gaussian_symbol(2.0, 1.0).is_pairwise_radial() and rep.quad_meta["structural_zeros"] == 21
    d = rep.as_dict()
    assert "measured_min_eig" in d and "margin" in d


def test_garding_verify_rejects_negative_symbols():
    ctx = CalcContext(h=1.0)
    with pytest.raises(ValueError):
        garding_verify(const_symbol(-1.0), TruncationSet(1, 2), ctx)
    neg = custom_symbol(lambda x, xi: x[:, 0], 1, smooth=True, bounded=True)
    with pytest.raises(ValueError):
        garding_verify(neg, TruncationSet(1, 2), ctx)


# Frozen from adaptive 2-D quadrature of the classical table over the quarter
# plane / the unit square.
FROZEN_M_INF = {
    (0, 0): 0.25 + 0.0j,
    (0, 1): 0.1994711402007163 * (1.0 + 1.0j),
    (1, 1): 0.25 + 0.0j,
    (0, 2): 0.22507907903927654j,
    (1, 2): 0.14104739588693907 * (1.0 + 1.0j),
    (2, 2): 0.25 + 0.0j,
}
FROZEN_M_A1 = {
    (0, 0): 0.24980366326911302 + 0.0j,
    (0, 1): 0.19902044316206283 * (1.0 + 1.0j),
}


def test_flandrin_matrix_frozen_entries():
    M = flandrin_matrix(math.inf, 2)
    for (j, k), want in FROZEN_M_INF.items():
        assert abs(M[j, k] - want) <= 1e-9
        assert abs(M[k, j] - np.conjugate(want)) <= 1e-9
    Ma = flandrin_matrix(1.0, 1)
    for (j, k), want in FROZEN_M_A1.items():
        assert abs(Ma[j, k] - want) <= 1e-9


def test_flandrin_matrix_bridge_route_matches_table():
    table = flandrin_matrix(2.0, 4)
    bridged, points = wigner._bridge_sweep(4, 2.0, 2.0, CalcContext(h=0.7))
    assert points == 64**2  # four 16-node panels per side
    assert np.max(np.abs(table - bridged)) <= 1e-11


def test_flandrin_domain_radius_clips_large_boxes():
    # any a beyond the decay radius R(N) integrates the same truncated
    # domain as the quarter plane, so the matrices coincide
    M1 = flandrin_matrix(math.inf, 3)
    R = flandrin_domain_radius(3)
    M2 = flandrin_matrix(R + 3.0, 3)
    assert np.max(np.abs(M1 - M2)) <= 1e-12


def _grid_table(N, lx, ly):
    """int_{[0,lx) x [0,ly)} W_cl(phi_j, phi_k), 0 <= j,k <= N, on a 2-D
    Gauss-Legendre grid (16-node panels, about 4 sqrt(N+1) points per unit
    length, each side cut at R(N)), summed entry by entry over the streamed
    table: the independent route to the polar sweep."""
    R = flandrin_domain_radius(N)
    rx, ry = (gl_panel_rule(0.0, min(L, R), 1 + math.ceil(4.0 * min(L, R) * math.sqrt(N + 1.0) / 16), 16)
              for L in (lx, ly))
    x = np.repeat(rx.nodes, ry.nodes.size)
    y = np.tile(ry.nodes, rx.nodes.size)
    w = np.multiply.outer(rx.weights, ry.weights).ravel()
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for j, k, vals in classical_wigner_diagonals(N, x, y):
        M[j, k] = vals @ w
        M[k, j] = np.conjugate(M[j, k])
    return M


def test_flandrin_polar_route_matches_panel_grid():
    # a = inf (closed) and a = R(N) (the polar rule's one piece) integrate
    # the same truncated domain as the 2-D grid on [0, R(N)]^2
    for N in (4, 16, 32):
        R = flandrin_domain_radius(N)
        grid = _grid_table(N, R, R)
        for a in (math.inf, R):
            assert np.max(np.abs(flandrin_matrix(a, N) - grid)) <= 1e-12, (N, a)


@pytest.mark.parametrize("lx, ly, degrees", [
    (1.0, 1.0, (8, 64, 128)),
    (2.0, 2.0, (8, 64, 128)),
    (6.0, 6.0, (8, 64)),
    (2.5066, 0.3989, (8, 64, 128)),  # `box:a=1.0` at h = 1: lambda x 1/lambda
    (0.3, 8.0, (8, 64, 128)),  # a moving arc end sweeps nearly the whole quarter
], ids=["1x1", "2x2", "6x6", "box-a1-h1", "0.3x8"])
def test_polar_sweep_matches_grid_sum(lx, ly, degrees):
    # nested sections share their entries, so one grid at the largest degree
    # checks every degree
    grid = _grid_table(max(degrees), lx, ly)
    for N in degrees:
        M, points, agreement = wigner._checked(wigner._polar_sweep, N, lx, ly)
        sized = wigner._polar_rule(N, lx, ly, wigner.PANEL_NODES, 1)[0].size
        assert points == sized and agreement <= 1e-9, N
        assert np.max(np.abs(M - grid[: N + 1, : N + 1])) <= 1e-10, N


def test_panel_check_refuses_a_rule_without_the_cosh_substitution(monkeypatch):
    """The same pieces and points on panels uniform in r with plain
    Gauss-Legendre nodes: the square-root singularity where the moving arc
    end of 0.3 x 8 starts is left in the integrand, and the 16/20-node
    check sees it through its doubling."""
    def ungraded(N, lx, ly, nodes, refine):
        R = flandrin_domain_radius(N)
        r, w = [], []
        start, width = 0.0, math.pi / 2.0
        for end in sorted(min(e, R) for e in (lx, ly, math.hypot(lx, ly))):
            if end > start:
                t1, t2 = math.acos(min(1.0, lx / end)), math.asin(min(1.0, ly / end))
                points = wigner._polar_points(end - start, width - (t2 - t1), N)
                rule = gl_panel_rule(start, end, refine * math.ceil(points / wigner.PANEL_NODES), nodes)
                r.append(rule.nodes)
                w.append(rule.weights * rule.nodes)
                start, width = end, t2 - t1
        r = np.concatenate(r)
        return r, np.concatenate(w), np.arccos(np.minimum(1.0, lx / r)), np.arcsin(np.minimum(1.0, ly / r))

    _, _, agreement = wigner._checked(wigner._polar_sweep, 128, 0.3, 8.0)
    assert agreement <= 1e-9
    monkeypatch.setattr(wigner, "_polar_rule", ungraded)
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        wigner._checked(wigner._polar_sweep, 128, 0.3, 8.0)


# Frozen from the mpmath polar closed form (oracles.flandrin_quarter_tops).
FROZEN_QUARTER_TOPS = {
    2: 0.7228585812038237,
    4: 0.9287496572874941,
    8: 0.998757603246775,
    16: 1.0007715578064214,
    32: 1.0013353198141628,
    64: 1.0018775873765409,
}


def test_flandrin_quarter_plane_tops_match_polar_oracle():
    M = flandrin_matrix(math.inf, 64)
    for n, want in FROZEN_QUARTER_TOPS.items():
        top = float(np.linalg.eigvalsh(M[: n + 1, : n + 1])[-1])
        assert abs(top - want) <= 1e-10, n


def test_quarter_plane_closed_entries_match_mpmath_oracle():
    # the 2F1 recurrence against the hypergeometric closed form in mpmath
    M = flandrin_matrix(math.inf, 256)
    for j, k in [(0, 0), (0, 5), (1, 4), (3, 3), (17, 100), (60, 61), (90, 180),
                 (128, 255), (200, 203), (10, 250), (255, 256), (256, 256)]:
        want = oracles.flandrin_quarter_entry(j, k)
        assert abs(M[j, k] - want) <= 1e-14, (j, k)
        assert abs(M[k, j] - np.conjugate(want)) <= 1e-14, (j, k)


def test_quarter_plane_vanishes_at_multiples_of_four():
    # R = D M D* is real symmetric, and its angle factor 2 sin(m pi/4)/m is
    # exactly 0 at m = 0 mod 4 (m > 0): those entries are exact zeros
    R = wigner._quarter_plane(64)
    M = flandrin_matrix(math.inf, 64)
    assert R.dtype == float and np.array_equal(R, R.T)
    assert np.all(np.diag(R) == 0.25)
    for m in range(4, 65, 4):
        j = np.arange(65 - m)
        assert np.all(R[j, j + m] == 0.0) and np.all(M[j, j + m] == 0.0), m
    assert np.all(R[np.arange(63), np.arange(63) + 2] != 0.0)


@pytest.mark.parametrize("N", [16, 64, 128])
def test_quarter_plane_closed_matches_polar_sweep(N):
    closed = flandrin_matrix(math.inf, N)
    polar, _ = wigner._polar_sweep(N, math.inf, math.inf)
    assert np.max(np.abs(closed - polar)) <= 1e-12


def test_quarter_plane_top_at_256_frozen():
    # frozen from oracles.flandrin_quarter_tops(256) (mpmath entries)
    rep = flandrin_search(math.inf, 256)
    assert abs(rep.top_eigenvalue - 1.0029195458385436) <= 1e-12
    assert [n for n, _ in rep.convergence] == [2, 4, 8, 16, 32, 64, 128, 256]
    assert rep.quad.startswith("closed: 2F1 recurrence; polar check on n <= 128")
    assert rep.panel_agreement <= 1e-12
    assert rep.h_invariance_dev <= 1e-8 and rep.bridge_vs_table <= 1e-8


def test_panel_check_sweeps_the_same_panels_with_more_nodes():
    sweeps = []

    def recording(N, lx, ly, refine, nodes):
        sweeps.append((refine, nodes))
        return wigner._polar_sweep(N, lx, ly, refine, nodes)

    M, points, agreement = wigner._checked(recording, 16, 2.0, 2.0)
    assert sweeps == [(1, 16), (1, 20)]
    assert agreement <= 1e-9
    # the same panels: the 20-node rule has 1.25 times the points
    points16, points20 = (wigner._polar_rule(16, 2.0, 2.0, n, 1)[0].size for n in (16, 20))
    assert 20 * points16 == 16 * points20 == 20 * points
    # the accepted sweep is the 16-node one
    assert np.array_equal(M, wigner._polar_sweep(16, 2.0, 2.0)[0])


@pytest.mark.parametrize("rule", ["2-node panels", "coarse start"])
def test_panel_check_flags_under_resolved_rules(monkeypatch, rule):
    """The 16/20-node comparison sees an under-resolved rule: the sized
    points on 2-node panels (the rule the stall exit test uses), and a coarse
    start of one point per unit radius and per radian swept at degree 48.
    Each still disagrees by more than 1e-9 after its doubling, so the sweep
    raises; the rule sized from a and N passes on the same square."""
    N, a = (8, 1.0) if rule == "2-node panels" else (48, 5.5)
    _, _, agreement = wigner._checked(wigner._polar_sweep, N, a, a)
    assert agreement <= 1e-9
    if rule == "2-node panels":
        monkeypatch.setattr(wigner, "PANEL_NODES", 2)
    else:
        monkeypatch.setattr(wigner, "_polar_points", lambda length, sweep, N: length + sweep)
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        wigner._checked(wigner._polar_sweep, N, a, a)


def test_thin_rectangle_is_accepted_after_one_doubling():
    """`box:a=0.02242` at h = 3.2e-6 is the rectangle 1.005e-4 x 5.0: the
    sized polar rule is 2e-9 off, the 16/20-node check sees it, and the rule
    of twice the panels is accepted."""
    N, lx, ly = 64, 1e-4, 5.0
    M, points, agreement = wigner._checked(wigner._polar_sweep, N, lx, ly)
    sized = wigner._polar_rule(N, lx, ly, wigner.PANEL_NODES, 1)[0].size
    assert points == 2 * sized and agreement <= 1e-9
    grid = _grid_table(N, lx, ly)
    assert np.max(np.abs(M - grid)) <= 1e-12
    assert np.max(np.abs(wigner._polar_sweep(N, lx, ly)[0] - grid)) > 1e-10


def test_flandrin_search_is_deterministic():
    assert flandrin_search(2.0, 16) == flandrin_search(2.0, 16)


def test_flandrin_search_quarter_plane():
    rep = flandrin_search(math.inf, 16)
    assert abs(rep.top_eigenvalue - 1.000771558) <= 1e-8
    assert rep.excess == pytest.approx(rep.top_eigenvalue - 1.0)
    tops = [v for _, v in rep.convergence]
    assert [n for n, _ in rep.convergence] == [2, 4, 8, 16]
    assert all(b >= a - 1e-12 for a, b in zip(tops, tops[1:]))  # nested sections
    assert rep.panel_agreement <= 1e-9
    assert rep.h_invariance_dev <= 1e-8
    assert rep.bridge_vs_table <= 1e-8
    assert rep.as_dict()["a"] == "inf"


def test_flandrin_small_a_monotone_and_vanishing():
    tops = [flandrin_search(a, 16).top_eigenvalue for a in (0.5, 1.0, 2.0)]
    assert tops[0] < tops[1] < tops[2]
    assert flandrin_search(0.1, 16).top_eigenvalue < 0.05


def test_flandrin_finite_box_can_beat_quarter_plane():
    """The localization operator family is NOT monotone in a: the signed
    Wigner tails make the finite box a = 2 capture more mass than the whole
    quarter plane.  Pinned so the behavior is explicit, not accidental."""
    top_box = flandrin_search(2.0, 32).top_eigenvalue
    top_quarter = flandrin_search(math.inf, 32).top_eigenvalue
    assert top_box > top_quarter + 1e-4
    assert abs(top_box - 1.002064639852) <= 1e-7
    assert abs(top_quarter - 1.001335319814) <= 1e-7


def test_flandrin_search_guards(monkeypatch):
    with pytest.raises(ValueError):
        flandrin_search(0.0, 4)
    for a, N, limit in ((1.0, -1, 1024), (1.0, 1025, 1024), (math.inf, -1, 4096), (math.inf, 4097, 4096)):
        # the degree is checked before any radius is formed
        with pytest.raises(ValueError, match=rf"degree N in \[0, {limit}\]"):
            flandrin_search(a, N)
        with pytest.raises(ValueError, match=rf"degree N in \[0, {limit}\]"):
            flandrin_matrix(a, N)
    # an under-resolved rule (the polar rule on 2-node panels; the bridge
    # grid 6 points per axis) stalls
    monkeypatch.setattr(wigner, "_axis_points", lambda L, N: 6)
    monkeypatch.setattr(wigner, "PANEL_NODES", 2)
    with pytest.raises(QuadratureConvergenceError):
        flandrin_search(1.0, 8)


def test_flandrin_reduction_ground_state_quarter():
    ctx = CalcContext(h=1.0)
    f = HermiteExpansion.single((), 1.0)
    lhs, rhs, residual = flandrin_reduction_check(math.inf, ctx, f)
    assert residual <= 1e-8
    assert abs(lhs - 0.25) <= 1e-8
    assert abs(rhs - 0.25) <= 1e-8


def test_flandrin_reduction_mixed_state():
    ctx = CalcContext(h=0.5)
    r = 1.0 / math.sqrt(2.0)
    f = HermiteExpansion.from_pairs([((0,), r), ((1,), r * 1j)])
    lhs, rhs, residual = flandrin_reduction_check(1.0, ctx, f)
    assert residual <= 1e-8
    with pytest.raises(ValueError):
        flandrin_reduction_check(1.0, ctx, HermiteExpansion.single((0, 1), 1.0))


def test_flandrin_reduction_check_sees_a_perturbed_section(monkeypatch):
    # the right side is built through the Gaussian bridge, not from the box
    # section, so a wrong section shows up in the residual
    ctx = CalcContext(h=0.5)
    r = 1.0 / math.sqrt(2.0)
    f = HermiteExpansion.from_pairs([((0,), r), ((1,), r * 1j)])
    box_matrix = quadform._box_matrix

    def perturbed(*args):
        table, points, agreement = box_matrix(*args)
        return table + 1e-6, points, agreement

    monkeypatch.setattr(quadform, "_box_matrix", perturbed)
    _, _, residual = flandrin_reduction_check(1.0, ctx, f)
    assert residual > 1e-8


def test_flandrin_reduction_check_raises_on_stalled_doubling(monkeypatch):
    monkeypatch.setattr(wigner, "_axis_points", lambda L, N: 1)
    f = HermiteExpansion.single((48,), 1.0)
    with pytest.raises(QuadratureConvergenceError, match="stalled"):
        flandrin_reduction_check(math.inf, CalcContext(h=1.0), f)
