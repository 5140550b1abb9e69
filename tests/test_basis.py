"""Hermite/Laguerre/Bargman basis layer: frozen independent values, the
orthonormality contract, and the degree guards."""

import math
import tracemalloc
from itertools import product

import mpmath
import numpy as np
import pytest

from gaussweyl.basis import (
    MAX_HERMITE_DEGREE,
    CalcContext,
    MultiIndex,
    TruncationSet,
    ZERO_INDEX,
    bargman_eval,
    bargman_partial_sum,
    gamma_transform,
    hermite_batch,
    hermite_eval,
    laguerre_eval,
)
from gaussweyl.gaussian import gh_rule


# Values frozen from an independent oracle (direct Hermite/Laguerre sums in
# exact rational/mpmath arithmetic), not from this library.
FROZEN_PSI = [
    # (j, x, h, value)
    (1, 1.0, 1.0, 1.4142135623730951),
    (3, 1.0, 1.0, -0.5773502691896256),
    (5, 0.7, 0.5, -0.09692498377611383),
    (8, -1.3, 2.0, -0.6574372136596841),
]

FROZEN_LAGUERRE = [
    # (k, alpha, x, value)
    (2, 1, 0.7, 1.145),
    (3, 2, 1.9, -1.1181666666666668),
    (5, 0, 4.2, -1.3439360000000002),
]


@pytest.mark.parametrize("j,x,h,val", FROZEN_PSI)
def test_hermite_frozen_values(j, x, h, val):
    got = hermite_eval(j, x, CalcContext(h=h))
    assert abs(got - val) <= 1e-12 * max(1.0, abs(val))


def test_hermite_batch_matches_single():
    ctx = CalcContext(h=0.7)
    x = np.linspace(-2.5, 2.5, 11)
    batch = hermite_batch(9, x, ctx)
    for j in range(10):
        assert np.max(np.abs(batch[j] - hermite_eval(j, x, ctx))) == 0.0


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_hermite_orthonormality(h):
    """<psi_j, psi_k>_{mu_{R,h/2}} = delta_jk, checked with a GH rule exact
    for the degree-24 products that appear."""
    ctx = CalcContext(h=h)
    rule = gh_rule(40, h / 2.0)
    psis = hermite_batch(12, rule.nodes, ctx)
    gram = (psis * rule.weights) @ psis.T
    assert np.max(np.abs(gram - np.eye(13))) <= 1e-10


def test_hermite_degree_guard():
    ctx = CalcContext(h=1.0)
    hermite_eval(MAX_HERMITE_DEGREE, 0.3, ctx)  # boundary is allowed
    with pytest.raises(ValueError):
        hermite_eval(MAX_HERMITE_DEGREE + 1, 0.3, ctx)
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.3, ctx)


@pytest.mark.parametrize("k,alpha,x,val", FROZEN_LAGUERRE)
def test_laguerre_frozen_values(k, alpha, x, val):
    assert abs(laguerre_eval(k, alpha, x) - val) <= 1e-12 * max(1.0, abs(val))


def test_laguerre_guard_and_vectorization():
    with pytest.raises(ValueError):
        laguerre_eval(150, 51, 1.0)
    xs = np.array([0.0, 0.5, 2.0])
    vals = laguerre_eval(2, 0, xs)
    # L_2(x) = 1 - 2x + x^2/2
    assert np.max(np.abs(vals - (1 - 2 * xs + xs**2 / 2))) <= 1e-12


def test_laguerre_kernel_matches_mpmath_on_guarded_domain():
    """laguerre_eval times e^{-z/2} against 50-digit mpmath: normwise error
    <= 1e-12 on z in [0, 4k + 2 alpha + 40], for (k, alpha) spread over
    k + alpha <= 200."""
    worst = 0.0
    with mpmath.workdps(50):
        for alpha in (0, 1, 3, 10, 30, 60, 100, 150, 200):
            for k in sorted({k for k in (0, 1, 2, 5, 13, 40, 64, 100, 140) if k + alpha <= 200} | {200 - alpha}):
                z = np.linspace(0.0, 4.0 * k + 2.0 * alpha + 40.0, 31)
                want = np.array(
                    [float(mpmath.exp(-mpmath.mpf(t) / 2) * mpmath.laguerre(k, alpha, mpmath.mpf(t))) for t in z]
                )
                direct = laguerre_eval(k, alpha, z) * np.exp(-z / 2.0)
                worst = max(worst, np.max(np.abs(direct - want)) / np.max(np.abs(want)))
    assert worst <= 1e-12


def test_laguerre_memory_bound():
    """The recurrence holds at most three point-sized arrays (the byte bound
    leaves room for their headers, not for a fourth array)."""
    x = np.linspace(0.0, 30.0, 10**6)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        laguerre_eval(8, 0, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.nbytes


def test_bargman_kernel_and_partial_sum():
    ctx = CalcContext(h=1.0)
    v = 0.5
    assert abs(bargman_eval(v, 1.0, ctx) - 1.789805189389308) <= 1e-12
    # The Hermite expansion of the kernel converges fast for |v| < 1.
    full = bargman_eval(v, 1.0, ctx)
    part = bargman_partial_sum(v, 1.0, ctx, 40)
    assert abs(full - part) <= 1e-12
    ctx2 = CalcContext(h=0.5)
    x = np.linspace(-1.5, 1.5, 7)
    dev = np.abs(bargman_eval(0.3 + 0.2j, x, ctx2) - bargman_partial_sum(0.3 + 0.2j, x, ctx2, 48))
    assert np.max(dev) <= 1e-11


def test_gamma_transform_isometry():
    """gamma maps L2(mu_{R,h/2}) isometrically into L2(dy)."""
    ctx = CalcContext(h=1.0)
    assert abs(gamma_transform(lambda y: np.ones_like(y), ctx)(0.0) - 0.7511255444649425) <= 1e-12
    f = lambda y: 1.0 + 0.3 * y + 0.2 * y**2
    gf = gamma_transform(f, ctx)
    rule = gh_rule(40, ctx.h / 2.0)
    norm_mu = float(np.sum(rule.weights * f(rule.nodes) ** 2))
    # Lebesgue-side norm via wide GH against e^{-y^2/h}: |gamma f|^2 has the
    # Gaussian weight built in, so integrate |gf|^2 dy with a plain rule.
    ys = np.linspace(-12.0, 12.0, 20001)
    norm_leb = float(np.trapezoid(gf(ys) ** 2, ys))
    assert abs(norm_mu - norm_leb) <= 1e-9


def test_multi_index_semantics():
    a = MultiIndex.from_tuple((2, 0, 1))
    assert a.degree(1) == 2 and a.degree(2) == 0 and a.degree(3) == 1
    assert a.support() == (1, 3)
    assert a.depth() == 2
    assert a.max_coordinate() == 3
    assert a.total() == 3
    assert a.as_tuple(4) == (2, 0, 1, 0)
    assert MultiIndex.from_tuple(()) == ZERO_INDEX
    assert MultiIndex({5: 0}) == ZERO_INDEX  # zero degrees are dropped
    with pytest.raises(ValueError):
        MultiIndex({0: 1})
    with pytest.raises(ValueError):
        MultiIndex({1: -1})


def test_truncation_set():
    ts = TruncationSet(2, 2)
    idxs = ts.indices()
    assert ts.size == 9 and len(idxs) == 9
    # graded ordering: totals never decrease
    totals = [ix.total() for ix in idxs]
    assert totals == sorted(totals)
    assert idxs[0] == ZERO_INDEX
    for i, ix in enumerate(idxs):
        assert ts.index_of(ix) == i
    with pytest.raises(KeyError):
        ts.index_of(MultiIndex.from_tuple((3,)))


def test_truncation_degree_array():
    ts = TruncationSet(3, 2)
    want = sorted(product(range(3), repeat=3), key=lambda t: (sum(t), t))
    assert ts.degrees.shape == (27, 3)
    assert [tuple(row) for row in ts.degrees.tolist()] == want
    assert [ix.as_tuple(3) for ix in ts.indices()] == want
    assert not ts.degrees.flags.writeable
    assert ts.index_of(MultiIndex({2: 2, 3: 1})) == want.index((0, 2, 1))
    for outside in (MultiIndex({4: 1}), MultiIndex({1: 3})):
        with pytest.raises(KeyError):
            ts.index_of(outside)
