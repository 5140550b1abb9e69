"""Measure/quadrature/sampling layer: rule exactness, norm constants,
stream-keyed sampling stability, and the adaptive order ladder."""

import math
import tracemalloc

import numpy as np
import pytest

from gaussweyl.gaussian import (
    QuadratureConvergenceError,
    c_ps,
    coordinate_stream,
    gh_rule,
    TENSOR_BLOCK,
    gl_panel_rule,
    integrate_tensor,
    ladder,
    quad_budget,
)

# Frozen from the closed form sqrt(2s) pi^{-1/(2p)} Gamma((p+1)/2)^{1/p}.
FROZEN_CPS = [
    (1.0, 1.0, 0.7978845608028654),
    (2.0, 1.0, 1.0),
    (4.0, 1.0, 1.3160740129524928),
]


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0])
def test_gh_rule_moments(s):
    """A degree-n rule integrates monomials up to 2n-1 exactly: for
    mu_{R,s} the even moments are s^k (2k-1)!!."""
    rule = gh_rule(8, s)
    assert abs(np.sum(rule.weights) - 1.0) <= 1e-15
    xs = rule.nodes
    for k, want in [(2, s), (4, 3 * s**2), (6, 15 * s**3), (8, 105 * s**4)]:
        got = float(np.sum(rule.weights * xs**k))
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    for k in (1, 3, 5):
        assert abs(float(np.sum(rule.weights * xs**k))) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 5, 48, 64, 128, 192, 256])
def test_gh_rule_matches_scipy(n):
    """numpy's hermgauss rule against scipy's roots_hermite (oracle only)."""
    from scipy.special import roots_hermite

    t, w = roots_hermite(n)
    rule = gh_rule(n, 0.5)  # s = 1/2: x = t, weights w / sqrt(pi)
    w = w / w.sum()
    assert np.max(np.abs(rule.nodes - t)) <= 2e-14
    assert np.max(np.abs(rule.weights - w)) <= 1e-14 * np.max(w)
    if n >= 48:  # exact to double precision from here on
        got = float(np.sum(rule.weights * np.cos(3.0 * rule.nodes)))
        assert abs(got - math.exp(-9.0 / 4.0)) <= 1e-14


def test_gh_rule_is_cached_and_read_only():
    a, b = gh_rule(64, 1.0), gh_rule(64, 2.0)
    assert a.weights is b.weights
    assert np.allclose(b.nodes, math.sqrt(2.0) * a.nodes, rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        a.weights[0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 128])
def test_legendre_rule_matches_scipy(n):
    """leggauss (gl_panel_rule and the polar rule of the box sweeps) against
    roots_legendre."""
    from scipy.special import roots_legendre

    t, w = roots_legendre(n)
    tn, wn = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(tn - t)) <= 2e-14
    assert np.max(np.abs(wn - w)) <= 2e-14


def test_gh_rule_guards():
    with pytest.raises(ValueError):
        gh_rule(0, 1.0)
    with pytest.raises(ValueError):
        gh_rule(257, 1.0)


def test_gl_panel_rule():
    rule = gl_panel_rule(0.0, 3.0, 4, 8)
    assert abs(np.sum(rule.weights) - 3.0) <= 1e-13
    # exact for polynomials well below the panel degree
    got = float(np.sum(rule.weights * rule.nodes**5))
    assert abs(got - 3.0**6 / 6.0) <= 1e-10
    with pytest.raises(ValueError):
        gl_panel_rule(1.0, 1.0, 2, 4)


def test_integrate_1d_and_tensor():
    rule = gh_rule(12, 0.5)
    assert abs(integrate_tensor(lambda pts: pts[:, 0] ** 2, rule, 1) - 0.5) <= 1e-13
    # E[x1^2 x2^2] = s^2 for the product measure
    val = integrate_tensor(lambda pts: pts[:, 0] ** 2 * pts[:, 1] ** 2, rule, 2)
    assert abs(val - 0.25) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 4])
def test_integrate_tensor_blocks_match_one_meshgrid(m):
    """23^4 points fill one block and part of a second; the blocked sum
    equals the sum over one meshgrid of the whole grid."""
    rule = gh_rule(23, 0.7)
    assert TENSOR_BLOCK < 23**4 < 2 * TENSOR_BLOCK
    c = np.array([0.3, -0.5, 0.2, 0.9])[:m]

    def f(pts):
        return np.exp(1j * pts @ c) * (1.0 + pts[:, 0] ** 2)

    pts = np.stack([g.ravel() for g in np.meshgrid(*([rule.nodes] * m), indexing="ij")], axis=-1)
    wts = np.ones(len(pts))
    for wg in np.meshgrid(*([rule.weights] * m), indexing="ij"):
        wts = wts * wg.ravel()
    want = complex(np.sum(f(pts) * wts))
    got = integrate_tensor(f, rule, m)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_integrate_tensor_memory_is_bounded_by_the_block():
    """40^4 points would take 40^4 * 4 * 8 bytes (78 MiB) as one array; the
    blocked sum stays within a fixed multiple of one block."""
    rule = gh_rule(40, 1.0)
    tracemalloc.start()
    try:
        val = integrate_tensor(lambda pts: pts[:, 0] ** 2 * pts[:, 3] ** 2, rule, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(val - 1.0) <= 1e-12
    assert peak <= 16 * TENSOR_BLOCK * 8
    assert peak < 40**4 * 4 * 8 / 2


def test_tensor_budget_guard(monkeypatch):
    monkeypatch.setenv("GAUSSWEYL_QUAD_MAX", "100")
    assert quad_budget() == 100
    rule = gh_rule(11, 0.5)  # 11^2 = 121 > 100
    with pytest.raises(ValueError):
        integrate_tensor(lambda pts: pts[:, 0], rule, 2)
    monkeypatch.setenv("GAUSSWEYL_QUAD_MAX", "not-a-number")
    with pytest.raises(ValueError):
        quad_budget()


@pytest.mark.parametrize("p,s,val", FROZEN_CPS)
def test_cps_frozen(p, s, val):
    assert abs(c_ps(p, s) - val) <= 1e-14


def test_cps_scaling():
    # C_{p,4s} = 2 C_{p,s}
    for p in (1.0, 2.0, 3.5):
        assert abs(c_ps(p, 4.0) - 2.0 * c_ps(p, 1.0)) <= 1e-12


def test_mc_sampling_extension_stability():
    """Extending the sample count never changes what a keyed stream already
    drew (mc_conv_rate draws coordinate j from stream (seed, j)), and
    filling a given buffer, as mc_conv_rate does, draws the same numbers."""
    a = coordinate_stream(7, 3).standard_normal(100)
    assert np.array_equal(a, coordinate_stream(7, 3).standard_normal(250)[:100])
    out = np.empty(100)
    coordinate_stream(7, 3).standard_normal(out=out)
    assert np.array_equal(a, out)


def test_mc_sample_law():
    arr = np.stack([coordinate_stream(0, j).standard_normal(20000) for j in (1, 2)])
    assert abs(float(np.mean(arr))) <= 0.03
    assert abs(float(np.var(arr)) - 1.0) <= 0.03


def test_coordinate_stream_independence():
    x = coordinate_stream(3, 1).standard_normal(5)
    y = coordinate_stream(3, 2).standard_normal(5)
    x2 = coordinate_stream(3, 1).standard_normal(5)
    assert np.array_equal(x, x2)
    assert not np.array_equal(x, y)


def test_ladder_converges_and_raises():
    val, order = ladder(lambda n: 1.0 + 2.0**-n)
    assert order >= 48 and abs(val - 1.0) <= 1e-9
    with pytest.raises(QuadratureConvergenceError):
        ladder(lambda n: float(n))  # never stabilizes
    # vector-valued ladders compare elementwise
    val, _ = ladder(lambda n: np.array([1.0, 2.0 + 3.0**-n]))
    assert np.max(np.abs(val - np.array([1.0, 2.0]))) <= 1e-9


def test_ladder_raises_before_a_shot_at_its_cap():
    """A start at or above the cap leaves no second order to compare."""
    calls = []

    def counted(n):
        calls.append(n)
        return 1.0

    for start, cap in [(21, 21), (22, 21)]:
        with pytest.raises(QuadratureConvergenceError, match="cap"):
            ladder(counted, start=start, cap=cap)
    assert calls == []
