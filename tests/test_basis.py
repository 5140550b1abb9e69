"""Hermite/Laguerre basis layer: frozen independent values, the
orthonormality contract, the Bargman generating function, and the degree
guards."""

import math
import tracemalloc
from itertools import product

import mpmath
import numpy as np
import pytest

from gaussweyl.basis import (
    MAX_HERMITE_DEGREE,
    CalcContext,
    TruncationSet,
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


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_hermite_orthonormality(h):
    """<psi_j, psi_k>_{mu_{R,h/2}} = delta_jk, checked with a GH rule exact
    for the degree-24 products that appear."""
    ctx = CalcContext(h=h)
    rule = gh_rule(40, h / 2.0)
    psis = np.array([hermite_eval(j, rule.nodes, ctx) for j in range(13)])
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


def _bargman_partial_sum(v: complex, x, ctx: CalcContext, J: int):
    """sum_{j<=J} psi_j(x) v^j / sqrt(j!), over hermite_eval rows."""
    coef = np.cumprod([1.0 + 0.0j] + [v / math.sqrt(j) for j in range(1, J + 1)])
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.tensordot(coef, np.array([hermite_eval(j, x, ctx) for j in range(J + 1)]), axes=1)


def test_bargman_kernel_and_partial_sum():
    """The Hermite expansion of the Bargman kernel
    K_v(x) = exp(sqrt(2/h) x v - v^2/2) converges fast for |v| < 1."""

    def kernel(v, x, h):
        return np.exp(x * v * math.sqrt(2.0 / h) - v * v / 2.0)

    ctx = CalcContext(h=1.0)
    assert abs(kernel(0.5, 1.0, 1.0) - 1.789805189389308) <= 1e-12
    assert abs(kernel(0.5, 1.0, 1.0) - _bargman_partial_sum(0.5, 1.0, ctx, 40)[0]) <= 1e-12
    ctx2 = CalcContext(h=0.5)
    x = np.linspace(-1.5, 1.5, 7)
    dev = np.abs(kernel(0.3 + 0.2j, x, 0.5) - _bargman_partial_sum(0.3 + 0.2j, x, ctx2, 48))
    assert np.max(dev) <= 1e-11


def test_truncation_set():
    ts = TruncationSet(2, 2)
    idxs = [tuple(row) for row in ts.degrees.tolist()]
    assert ts.size == 9 and len(set(idxs)) == 9
    # graded ordering: totals never decrease
    totals = [sum(ix) for ix in idxs]
    assert totals == sorted(totals)
    assert idxs[0] == (0, 0)
    assert (3, 0) not in idxs


def test_truncation_degree_array():
    ts = TruncationSet(3, 2)
    want = sorted(product(range(3), repeat=3), key=lambda t: (sum(t), t))
    assert ts.degrees.shape == (27, 3)
    assert [tuple(row) for row in ts.degrees.tolist()] == want
    assert not ts.degrees.flags.writeable
