"""Wigner layer: closed Laguerre form vs the defining integral, Bargman
generating function, tensorization, and the classical (h-free) table."""

import math

import mpmath
import numpy as np
import oracles
import pytest

from gaussweyl import wigner
from gaussweyl.basis import CalcContext, MultiIndex, hermite_eval
from gaussweyl.gaussian import gh_rule
from gaussweyl.wigner import (
    classical_hermite,
    classical_wigner_bridge,
    classical_wigner_closed,
    classical_wigner_diagonals,
    classical_wigner_direct,
    overlap,
    wigner_bargman,
    wigner_closed,
    wigner_hermite_quadrature,
    wigner_on_rule,
    wigner_tensor,
)

# Laguerre closed form, frozen from an independent evaluation (genlaguerre).
FROZEN_W = [
    (0, 1, 1.0, 1.0, 2.0, 1.0 + 1.0j),
    (1, 1, 0.5, 0.5, 1.0, 0.0 + 0.0j),
    (2, 5, 0.3, -0.7, 0.5, -0.4665724167829214 + 0.17355592315113494j),
    (3, 1, 0.8, -0.2, 1.0, -0.8034326356328824 - 0.4284974056708706j),
    (4, 4, 1.2, 0.7, 2.0, 0.24011533375000005 + 0.0j),
]

# Defining integral, frozen from adaptive quadrature of the definition.
FROZEN_DEFINITION = (1, 3, 0.4, -0.3, 0.5, -0.22861904265976343 + 0.7838367176906174j)

# Classical table, frozen from direct z-quadrature of the 2pi transform.
FROZEN_CLASSICAL = [
    (0, 0, 0.2, 0.3, 0.8836741354381334 + 0.0j),
    (1, 2, 0.2, -0.4, 0.14647002425489633 - 0.29294004850979294j),
]


@pytest.mark.parametrize("j,k,x,xi,h,want", FROZEN_W)
def test_closed_frozen(j, k, x, xi, h, want):
    got = wigner_closed(j, k, x, xi, CalcContext(h=h))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_closed_conjugate_symmetry():
    ctx = CalcContext(h=0.7)
    for j, k in [(0, 3), (2, 5), (1, 4)]:
        a = wigner_closed(j, k, 0.4, -0.9, ctx)
        b = wigner_closed(k, j, 0.4, -0.9, ctx)
        assert abs(a - np.conjugate(b)) <= 1e-14 * max(1.0, abs(a))


def test_closed_vectorized_and_guards():
    ctx = CalcContext(h=1.0)
    xs = np.array([0.1, 0.5, -1.2])
    vals = wigner_closed(1, 2, xs, 0.5 * xs, ctx)
    assert vals.shape == (3,)
    for i, x in enumerate(xs):
        assert vals[i] == wigner_closed(1, 2, float(x), 0.5 * float(x), ctx)
    with pytest.raises(ValueError):
        wigner_closed(-1, 0, 0.0, 0.0, ctx)


@pytest.mark.parametrize("j,k", [(30, 30), (40, 40), (64, 60)])
def test_closed_high_degree_matches_oracle(j, k):
    """The degrees of the bench's Wigner tables, where an explicit Laguerre
    sum loses its digits (it gave -412.81 for -318.66 at (40, 40, 3, 0))."""
    ctx = CalcContext(h=1.0)
    axis = np.linspace(-3.0, 3.0, 9)
    x, xi = np.repeat(axis, 9), np.tile(axis, 9)
    got = wigner_closed(j, k, x, xi, ctx)
    want = np.array([oracles.wigner_closed(j, k, a, b, 1.0) for a, b in zip(x, xi)])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if j == k == 40:
        got = wigner_closed(40, 40, 3.0, 0.0, ctx)
        want = oracles.wigner_closed(40, 40, 3.0, 0.0, 1.0)
        assert abs(want + 318.66133920848507) <= 1e-9
        assert abs(got - want) <= 1e-12 * abs(want)


def test_closed_where_the_damping_underflows():
    """At small h, z = 2 r^2 / h passes Z_CUT, where e^{-z/2} underflows; the
    Gaussian-normalized closed form carries no such damping and must stay
    finite and right there."""
    h = 1e-3
    ctx = CalcContext(h=h)
    for j, k, x, xi in [(3, 5, 0.9, 0.5), (12, 7, -0.8, 0.6), (0, 0, 1.0, 1.0)]:
        assert 2.0 * (x * x + xi * xi) / h > 1380.0
        got = wigner_closed(j, k, x, xi, ctx)
        want = oracles.wigner_closed(j, k, x, xi, h)
        assert np.isfinite(got) and abs(got - want) <= 1e-12 * abs(want)


def test_definition_route_frozen():
    j, k, z, zeta, h, want = FROZEN_DEFINITION
    got = wigner_hermite_quadrature(j, k, z, zeta, CalcContext(h=h))
    assert abs(got - want) <= 1e-10
    closed = wigner_closed(j, k, z, zeta, CalcContext(h=h))
    assert abs(closed - want) <= 1e-12


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_closed_matches_definition_grid(h):
    """Dual route: Laguerre closed form against the defining integral."""
    ctx = CalcContext(h=h)
    for j, k in [(0, 0), (0, 2), (1, 2), (3, 3), (2, 4)]:
        for z, zeta in [(0.0, 0.0), (0.6, -0.4), (-1.1, 0.3)]:
            a = wigner_closed(j, k, z, zeta, ctx)
            b = wigner_hermite_quadrature(j, k, z, zeta, ctx)
            assert abs(a - b) <= 1e-8


def test_quadrature_fixed_rule_path():
    ctx = CalcContext(h=1.0)
    rule = gh_rule(80, ctx.h / 2.0)
    got = wigner_on_rule(
        lambda t: hermite_eval(2, t, ctx),
        lambda t: hermite_eval(2, t, ctx),
        0.3,
        0.1,
        ctx,
        rule,
    )
    want = wigner_closed(2, 2, 0.3, 0.1, ctx)
    assert abs(got - want) <= 1e-10


def test_bargman_frozen_and_generating_function():
    ctx = CalcContext(h=1.0)
    got = wigner_bargman(0.3, 0.2, 1.0, 0.0, ctx)
    assert abs(got - 1.9100067597464592) <= 1e-12
    # generating function: sum_{j,k} u^j v^k / sqrt(j! k!) W(psi_j, psi_k)
    u, v, x, xi = 0.3, 0.2, 0.4, -0.6
    total = 0.0 + 0.0j
    for j in range(26):
        for k in range(26):
            total += (
                u**j
                * v**k
                / math.sqrt(math.factorial(j) * math.factorial(k))
                * wigner_closed(j, k, x, xi, ctx)
            )
    assert abs(total - wigner_bargman(u, v, x, xi, ctx)) <= 1e-12


def test_overlap_identity():
    ctx = CalcContext(h=1.0)
    assert abs(overlap(2, 2, ctx) - 1.0) <= 1e-9
    assert abs(overlap(2, 5, ctx)) <= 1e-9
    assert abs(overlap(0, 4, CalcContext(h=0.5))) <= 1e-9


def test_tensor_product_structure():
    ctx = CalcContext(h=0.8)
    alpha = MultiIndex.from_tuple((1, 0, 2))
    beta = MultiIndex.from_tuple((0, 0, 2))
    X = np.array([0.2, -0.1, 0.5, 0.4, 0.9, -0.3])
    want = wigner_closed(1, 0, 0.2, 0.4, ctx) * wigner_closed(2, 2, 0.5, -0.3, ctx)
    got = wigner_tensor(alpha, beta, X, ctx)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
    # empty supports multiply to 1
    one = wigner_tensor(MultiIndex(), MultiIndex(), X, ctx)
    assert one == 1.0 + 0.0j
    with pytest.raises(ValueError):
        wigner_tensor(alpha, beta, X[:5], ctx)
    with pytest.raises(ValueError):
        wigner_tensor(MultiIndex({4: 1}), beta, X, ctx)


def test_classical_hermite_normalized():
    xs = np.linspace(-10.0, 10.0, 40001)
    for j in (0, 1, 4):
        vals = classical_hermite(j, xs)
        assert abs(np.trapezoid(vals * vals, xs) - 1.0) <= 1e-9
    v01 = np.trapezoid(classical_hermite(0, xs) * classical_hermite(1, xs), xs)
    assert abs(v01) <= 1e-12
    assert abs(float(classical_hermite(0, 0.0)) - 2.0**0.25) <= 1e-14


@pytest.mark.parametrize("j,k,x,eta,want", FROZEN_CLASSICAL)
def test_classical_closed_frozen(j, k, x, eta, want):
    got = classical_wigner_closed(j, k, x, eta)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_classical_direct_route():
    got = classical_wigner_direct(
        lambda y: classical_hermite(1, y), lambda y: classical_hermite(2, y), 0.2, -0.4
    )
    want = FROZEN_CLASSICAL[1][4]
    assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("h", [0.7, 1.3])
def test_classical_bridge_h_free(h):
    """The bridge through the Gaussian closed form must reproduce the h-free
    classical table for every h."""
    ctx = CalcContext(h=h)
    pts = [(0.0, 0.0), (0.2, 0.3), (-0.6, 0.45), (1.1, -0.2)]
    for j, k in [(0, 0), (0, 1), (1, 2), (3, 3), (2, 4)]:
        for x, eta in pts:
            a = classical_wigner_bridge(j, k, x, eta, ctx)
            b = classical_wigner_closed(j, k, x, eta)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_bridge_identity_frozen():
    """e^{-(x^2+xi^2)/h} W_h(psi_j, psi_j)(x, xi) =
    1/2 W_cl(gamma psi_j, gamma psi_j)(x, xi/(2 pi h)), where gamma psi_j is
    the sqrt(2 pi h)-dilation of phi_j."""
    j, x, xi, h = 1, 0.6, -0.4, 0.7
    ctx = CalcContext(h=h)
    lam = math.sqrt(2.0 * math.pi * h)
    lhs = math.exp(-(x * x + xi * xi) / h) * wigner_closed(j, j, x, xi, ctx)
    rhs = 0.5 * classical_wigner_closed(j, j, x / lam, lam * xi / (2.0 * math.pi * h))
    assert abs(lhs - 0.2310798723927446) <= 1e-12
    assert abs(lhs - rhs) <= 1e-12


def test_diagonal_stream_matches_table():
    rng = np.random.default_rng(42)
    x = rng.uniform(-2.0, 2.0, 25)
    eta = rng.uniform(-2.0, 2.0, 25)
    N = 6
    seen = set()
    for j, k, vals in classical_wigner_diagonals(N, x, eta):
        seen.add((j, k))
        want = classical_wigner_closed(j, k, x, eta)
        assert np.max(np.abs(vals - want)) <= 1e-11
    assert seen == {(j, k) for k in range(N + 1) for j in range(k + 1)}


def test_diagonal_stream_masks_far_field():
    # z = 4 pi r^2 beyond the cutoff must give exactly 0, not overflow
    x = np.array([0.1, 40.0])
    eta = np.array([0.0, 40.0])
    for j, k, vals in classical_wigner_diagonals(60, x, eta):
        assert np.all(np.isfinite(vals))
        assert vals[1] == 0.0


def test_normalized_rows_match_mpmath_where_plain_rows_pass_1e150():
    """The table's radial rows g_n = sqrt(n!/(n+m)!) z^{m/2} e^{-z/2}
    L_n^{(m)}(z) against 50-digit mpmath, at degrees where the rows pass
    RESCALE and are rescaled (the plain rows leave the double range there)."""
    m, nmax = 40, 300
    z = np.linspace(0.5, 4.0 * nmax + 2.0 * m + 60.0, 25)
    keep, zz, log_z, _ = wigner._table_points(nmax + m, np.sqrt(z / (4.0 * math.pi)), np.zeros_like(z))
    assert keep.all()
    got, scales, peak = {}, [], 0.0
    for n0, rows, scale in wigner._diagonal_blocks(m, nmax, zz, log_z):
        peak = max(peak, float(np.max(np.abs(rows))))
        if not scales or scale is not scales[-1]:
            scales.append(scale)
        for n, row in enumerate(rows, start=n0):
            if n in (0, 37, 150, 299, 300):
                got[n] = row * scale
    assert peak > wigner.RESCALE and len(scales) > 1
    with mpmath.workdps(50):
        for n, g in got.items():
            norm = mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(n + m))
            want = np.array([float(norm * mpmath.mpf(t) ** (m / 2) * mpmath.exp(-mpmath.mpf(t) / 2)
                                   * mpmath.laguerre(n, m, mpmath.mpf(t))) for t in zz])
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), n
