"""Stochastic extension layer: tail rates of coordinate truncations, and the
test-side checks of cylinder approximation along subspace filtrations and of
projected covariances (`paper_checks`)."""

import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from paper_checks import (
    coordinate_frame,
    covariance_and_bound,
    cylinder_extension_check,
    random_frame,
    rotated_frame,
)

from gaussweyl import stochproj
from gaussweyl.stochproj import (
    DirectionVector,
    exact_conv_rate,
    geometric_direction,
    mc_conv_rate,
    power_direction,
)
from gaussweyl.stochproj import _trigamma

TRIGAMMA_5 = 0.22132295573711533  # sum_{j>4} j^{-2}


def finite_direction(coords) -> DirectionVector:
    """Finitely supported direction; the tail vanishes past the support."""
    cs = tuple(float(c) for c in coords)
    sq = [c * c for c in cs]
    return DirectionVector(
        name=f"finite[{len(cs)}]",
        norm_sq=math.fsum(sq),
        _coord=lambda j: cs[j - 1] if j <= len(cs) else 0.0,
        _tail_sq=lambda n: math.fsum(sq[n:]),
    )


def test_geometric_direction_tails():
    a = geometric_direction()
    assert a.norm_sq == 1.0
    assert a.tail_sq(0) == 1.0
    assert a.tail_sq(4) == 0.0625
    assert a.coord(1) == pytest.approx(2.0**-0.5, rel=1e-15)
    assert np.allclose([a.coord(j) for j in (1, 2, 3)], [2.0**-0.5, 0.5, 2.0**-1.5])
    with pytest.raises(ValueError):
        a.coord(0)
    with pytest.raises(ValueError):
        a.tail_sq(-1)


def test_power_direction_tails():
    a = power_direction()
    assert abs(a.norm_sq - math.pi**2 / 6.0) <= 1e-15
    assert abs(a.tail_sq(0) - a.norm_sq) <= 1e-14
    assert abs(a.tail_sq(4) - TRIGAMMA_5) <= 1e-15
    assert a.coord(3) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert a.tail_norm(4) == math.sqrt(a.tail_sq(4))


@pytest.mark.parametrize("n", [0, 1, 4, 19, 20, 100, 1024, 10**5])
def test_trigamma_matches_mpmath(n):
    with mpmath.workdps(30):
        want = mpmath.polygamma(1, n + 1)
    assert abs(_trigamma(n + 1.0) - float(want)) <= 1e-15 * float(want)


def test_finite_direction():
    a = finite_direction([3.0, 4.0])
    assert a.norm_sq == 25.0
    assert a.tail_sq(1) == 16.0
    assert a.tail_sq(2) == 0.0
    assert a.coord(5) == 0.0
    with pytest.raises(ValueError):
        finite_direction([1.0, math.inf])
    with pytest.raises(ValueError):
        DirectionVector("bad", math.inf, lambda j: 0.0, lambda n: 0.0)


FROZEN_RATES = [
    (2.0, 0.25),
    (1.0, 0.19947114020071635),
    (4.0, 0.3290185032381232),
]


@pytest.mark.parametrize("p,want", FROZEN_RATES)
def test_exact_rate_geometric_frozen(p, want):
    assert abs(exact_conv_rate(geometric_direction(), 4, p, 1.0) - want) <= 1e-15


def test_exact_rate_guards():
    a = geometric_direction()
    with pytest.raises(ValueError):
        exact_conv_rate(a, 4, 0.5, 1.0)
    with pytest.raises(ValueError):
        exact_conv_rate(a, 4, 2.0, 0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_mc_rate_brackets_exact(p):
    a = geometric_direction()
    [(est, se)] = mc_conv_rate(a, [4], p, 1.0, 20000, seed=7)
    assert se > 0.0
    assert abs(est - exact_conv_rate(a, 4, p, 1.0)) <= 3.0 * se


def test_mc_rate_power_direction():
    a = power_direction()
    [(est, se)] = mc_conv_rate(a, [4], 2.0, 1.0, 20000, seed=11)
    assert abs(est - exact_conv_rate(a, 4, 2.0, 1.0)) <= 3.0 * se


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_mc_rate_scales_like_sqrt_s(p):
    a = geometric_direction()
    [(e1, _)] = mc_conv_rate(a, [4], p, 1.0, 5000, seed=3)
    [(e4, _)] = mc_conv_rate(a, [4], p, 4.0, 5000, seed=3)
    assert e4 == 2.0 * e1


def test_mc_rate_subnormal_tail():
    """tail_sq(1024) = 2^-1024 is subnormal; the estimate keeps its digits
    and brackets the closed-form rate within 3 standard errors."""
    a = geometric_direction()
    exact = exact_conv_rate(a, 1024, 2.0, 1.0)
    [(est, se)] = mc_conv_rate(a, [1024], 2.0, 1.0, 4000, seed=5)
    assert se > 0.0
    assert abs(est - exact) <= 3.0 * se


def test_mc_rate_zero_tail_and_guards():
    a = finite_direction([1.0, 0.5])
    assert mc_conv_rate(a, [2], 2.0, 1.0, 2000) == [(0.0, 0.0)]
    g = geometric_direction()
    with pytest.raises(ValueError):
        mc_conv_rate(g, [4], 2.0, 1.0, 999)
    with pytest.raises(ValueError):
        mc_conv_rate(g, [4], 0.5, 1.0, 2000)
    with pytest.raises(ValueError):
        mc_conv_rate(g, [4], 2.0, -1.0, 2000)


CLI_ROWS = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]  # stochext --nmax 1024


@pytest.mark.parametrize(
    "a",
    [geometric_direction(), power_direction(), finite_direction([1.0 / j for j in range(1, 101)])],
    ids=["geometric", "power", "finite"],
)
def test_mc_rate_shared_sweep_matches_one_row_calls(a):
    """One sweep over all rows gives, bit for bit, the one-row results, in
    the order asked for, duplicates included."""
    ns = CLI_ROWS[::-1] + CLI_ROWS[3:6] + [0]
    shared = mc_conv_rate(a, ns, 2.0, 1.0, 1000, seed=9)
    assert len(shared) == len(ns)
    for n, row in zip(ns, shared):
        assert row == mc_conv_rate(a, [n], 2.0, 1.0, 1000, seed=9)[0], n


def test_mc_rate_draws_each_key_once(monkeypatch):
    drawn = []
    real = stochproj.coordinate_stream

    def counting(stream, key):
        drawn.append(key)
        return real(stream, key)

    monkeypatch.setattr(stochproj, "coordinate_stream", counting)
    mc_conv_rate(geometric_direction(), CLI_ROWS, 2.0, 1.0, 1000, seed=4)
    assert len(drawn) == len(set(drawn)) == 385  # 384 coordinates + the remainder


def test_mc_rate_memory_bounded_by_open_windows():
    """Sixteen power rows whose windows do not overlap hold one running sum
    at a time: the peak stays below eight sample-sized arrays."""
    samples = 20000
    ns = list(range(0, 2048, 128))
    mc_conv_rate(power_direction(), ns[:1], 2.0, 1.0, 1000)  # numpy.random imports lazily
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mc_conv_rate(power_direction(), ns, 2.0, 1.0, samples, seed=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * samples * 8


@pytest.mark.parametrize(
    "a",
    [geometric_direction(), power_direction(), finite_direction([1.0 / j for j in range(1, 101)])],
    ids=["geometric", "power", "finite"],
)
def test_mc_rate_same_for_any_number_of_draw_workers(a, monkeypatch):
    """The draws fill on worker threads; the result does not depend on how
    many, bit for bit, rows reversed and duplicated.  Four workers on a short
    switch interval would expose a buffer refilled before its adds end."""
    ns = CLI_ROWS[::-1] + CLI_ROWS[3:6] + [0]
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(stochproj, "_draw_workers", lambda w=workers: w)
            results.append(mc_conv_rate(a, ns, 2.0, 1.0, 1000, seed=9))
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]


def test_mc_rate_builds_every_stream_on_the_calling_thread(monkeypatch):
    threads = []
    real = stochproj.coordinate_stream

    def recording(stream, key):
        threads.append(threading.get_ident())
        return real(stream, key)

    monkeypatch.setattr(stochproj, "_draw_workers", lambda: 2)
    monkeypatch.setattr(stochproj, "coordinate_stream", recording)
    mc_conv_rate(power_direction(), CLI_ROWS, 2.0, 1.0, 1000, seed=4)
    assert len(threads) == 385
    assert set(threads) == {threading.get_ident()}


def _phi3(coords):
    return coords[:, 0] + coords[:, 1] ** 2 + np.sin(coords[:, 2])


def test_cylinder_extension_nested_filtration():
    E = coordinate_frame(3, 6)
    frames = [coordinate_frame(k, 6) for k in (1, 2, 3, 4)]
    rows, nonincreasing = cylinder_extension_check(_phi3, E, frames, 2.0, 1.0, 4000, seed=5)
    assert nonincreasing
    assert [r[1] for r in rows] == [1, 2, 3, 4]
    ests = [r[2] for r in rows]
    assert ests[0] > ests[1] > 0.0
    # once E_n contains the cylinder base the error vanishes identically
    assert ests[2] == 0.0 and ests[3] == 0.0


def test_cylinder_extension_detects_increase():
    E = coordinate_frame(3, 6)
    frames = [coordinate_frame(k, 6) for k in (2, 1)]
    _, nonincreasing = cylinder_extension_check(_phi3, E, frames, 2.0, 1.0, 4000, seed=5)
    assert not nonincreasing


def test_cylinder_extension_guards():
    E = coordinate_frame(2, 4)
    ok = [coordinate_frame(2, 4)]
    phi = lambda c: c[:, 0] * c[:, 1]
    with pytest.raises(ValueError):
        cylinder_extension_check(phi, E, ok, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        cylinder_extension_check(phi, np.array([[1.0, 1.0, 0.0, 0.0]]), ok, 2.0, 1.0, 2000)
    with pytest.raises(ValueError):
        cylinder_extension_check(phi, E, [np.array([[1.0, 0.0], [0.0, 1.0]])], 2.0, 1.0, 2000)
    with pytest.raises(ValueError):
        cylinder_extension_check(lambda c: c, E, ok, 2.0, 1.0, 2000)


def test_covariance_rotated_line():
    B = rotated_frame(1, 2, math.pi / 4.0)
    cov = covariance_and_bound(B, 2, 1.0)
    assert np.max(np.abs(cov.K - 0.5 * np.ones((2, 2)))) <= 1e-12
    assert cov.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert cov.eigenvalues[-1] == pytest.approx(1.0, rel=1e-12)
    assert cov.lambda_max <= cov.s + 1e-10
    assert abs(cov.det) <= 1e-12
    assert "1 rows" in cov.provenance


def test_covariance_full_frame_inverse_path():
    cov = covariance_and_bound(coordinate_frame(2, 2), 2, 3.0)
    assert np.allclose(cov.K, 3.0 * np.eye(2))
    assert cov.det == pytest.approx(9.0, rel=1e-12)
    assert cov.lambda_max == pytest.approx(3.0, rel=1e-12)


def test_covariance_random_frames_spectral_bound():
    s = 0.7
    for seed in range(20):
        B = random_frame(3, 6, seed)
        cov = covariance_and_bound(B, 4, s)
        assert cov.eigenvalues[0] >= -1e-10
        assert cov.lambda_max <= s + 1e-10


def test_covariance_guards():
    with pytest.raises(ValueError):
        covariance_and_bound(np.array([[1.0, 0.0], [1.0, 0.0]]), 2, 1.0)
    with pytest.raises(ValueError):
        covariance_and_bound(coordinate_frame(1, 2), 2, 0.0)
    with pytest.raises(ValueError):
        covariance_and_bound(coordinate_frame(1, 2), 3, 1.0)
    with pytest.raises(ValueError):
        rotated_frame(1, 1, 0.3)
    with pytest.raises(ValueError):
        random_frame(0, 3, 1)

