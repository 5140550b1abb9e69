"""Stochastic-extension machinery: convergence rates of ell_{a_n} -> ell_a in
L^p(mu_{B,s}).

Direction vectors live in ell^2 through a coordinate rule; sampling uses the
keyed Philox streams from `gaussian`, so the law of (x_1, ..., x_n) never
changes when n grows, and the un-simulated tail of ell_a is drawn exactly from
its Gaussian law on a dedicated remainder stream.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import tee

import numpy as np

from .gaussian import REMAINDER_KEY, c_ps, coordinate_stream

MIN_MC_SAMPLES = 1000
# Below this many samples the keyed draws fill on the calling thread: a
# worker pool costs more to start and feed than it saves.
POOL_MIN_SAMPLES = 8192
EXPLICIT_TAIL_COORDS = 64

# Bernoulli numbers B_2, B_4, ..., B_12 of the trigamma asymptotic series.
_TRIGAMMA_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


# ---------------------------------------------------------------------------
# Direction vectors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionVector:
    """Square-summable coordinate rule a = (a_1, a_2, ...) with closed-form
    squared tails tail_sq(n) = sum_{j>n} a_j^2."""

    name: str
    norm_sq: float
    _coord: object = field(compare=False, repr=False)
    _tail_sq: object = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.norm_sq) and self.norm_sq >= 0):
            raise ValueError("direction vector is not square-summable")

    def coord(self, j: int) -> float:
        if j < 1:
            raise ValueError("coordinates are indexed from 1")
        return float(self._coord(j))

    def coords(self, n: int) -> np.ndarray:
        return np.array([self.coord(j) for j in range(1, n + 1)])

    def tail_sq(self, n: int) -> float:
        if n < 0:
            raise ValueError("n must be >= 0")
        t = float(self._tail_sq(n))
        if t < 0 or t > self.norm_sq + 1e-12:
            raise AssertionError(f"inconsistent tail {t!r} at n={n}")
        return max(0.0, t)

    def tail_norm(self, n: int) -> float:
        return math.sqrt(self.tail_sq(n))


def geometric_direction() -> DirectionVector:
    """a_j = 2^{-j/2}: |a|^2 = 1, tail_sq(n) = 2^{-n}."""
    return DirectionVector(
        name="geometric",
        norm_sq=1.0,
        _coord=lambda j: 2.0 ** (-j / 2.0),
        _tail_sq=lambda n: 2.0**-n,
    )


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0.

    The recurrence psi'(x) = psi'(x + 1) + 1/x^2 shifts x up to >= 20, where
    1/x + 1/(2x^2) + sum_{k<=6} B_2k / x^{2k+1} is exact to double precision
    (the first omitted term, B_14 / x^15, is below 1e-18 relative).
    """
    terms = []
    while x < 20.0:
        terms.append(1.0 / (x * x))
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for b in reversed(_TRIGAMMA_BERNOULLI):
        series = series * inv2 + b
    terms.append((1.0 + 0.5 / x + series * inv2) / x)
    return math.fsum(terms)


def power_direction() -> DirectionVector:
    """a_j = 1/j: |a|^2 = pi^2/6, tail_sq(n) = psi'(n+1) (trigamma)."""
    return DirectionVector(
        name="power",
        norm_sq=math.pi**2 / 6.0,
        _coord=lambda j: 1.0 / j,
        _tail_sq=lambda n: _trigamma(n + 1.0),
    )


# ---------------------------------------------------------------------------
# Convergence rates.
# ---------------------------------------------------------------------------


def exact_conv_rate(a: DirectionVector, n: int, p: float, s: float) -> float:
    """||ell_a - ell_{a_n}||_{L^p(mu_{B,s})} = C_{p,s} sqrt(tail_sq(n)):
    the difference is the Gaussian linear functional of the tail vector."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if s <= 0:
        raise ValueError("s must be > 0")
    return c_ps(p, s) * a.tail_norm(n)


def _pth_moment_root(vals: np.ndarray, p: float):
    """(m_p^{1/p}, delta-method standard error) from samples of |X|^p."""
    m = float(np.mean(vals))
    if m == 0.0:
        return 0.0, 0.0
    est = m ** (1.0 / p)
    se = m ** (1.0 / p - 1.0) * float(np.std(vals, ddof=1)) / (p * math.sqrt(vals.size))
    return est, se


def _draw_workers() -> int:
    """Threads that fill the keyed draws: two, or one where this process may
    run on a single CPU."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def mc_conv_rate(a: DirectionVector, ns, p: float, s: float, samples: int, seed: int = 0):
    """Monte Carlo estimates of ||ell_a - ell_{a_n}||_{L^p(mu_{B,s})} for
    every truncation n in `ns`.

    For each n the difference sum_{j>n} a_j x_j is simulated exactly:
    coordinates n+1..n+64 are drawn from their keyed streams and the rest is
    one Gaussian remainder with variance s * tail_sq(n+64) on the reserved
    stream.  The tail is simulated divided by tail_norm(n), and the estimate
    and its error are scaled back, so the moments keep their digits where the
    tail is tiny (the geometric tail_sq(n) = 2^-n is subnormal from n = 1023).

    All rows share one sweep over the distinct coordinate keys in ascending
    order: each keyed stream, and the remainder, is drawn once and added into
    every row whose window [n+1, n+64] holds it.  A row is closed as soon as
    the sweep passes n+64, so only the open windows' running sums are held.
    Each row's sum runs in the same order as a sweep over that row alone.

    From POOL_MIN_SAMPLES samples the keyed normals are filled on up to two
    worker threads (numpy releases the GIL while it fills) into a ring of
    workers + 1 buffers, while this thread adds the previous keys into the
    rows; below it they fill on this thread, into one buffer.  Every stream
    is built here, and a buffer is refilled only after its adds are done, so
    the result is bit-identical for any number of workers.

    Returns one (estimate, std_error) per entry of `ns`, in order; each
    estimate brackets the closed-form rate within a few standard errors.
    """
    from concurrent.futures import Future, ThreadPoolExecutor

    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_MC_SAMPLES}")
    if p < 1:
        raise ValueError("p must be >= 1")
    if s <= 0:
        raise ValueError("s must be > 0")
    out = {}
    scale = {}  # n -> (tail_norm(n), remainder variance of the normalized tail)
    for n in sorted(set(ns)):
        tail_sq = a.tail_sq(n)
        if tail_sq == 0.0:
            out[n] = (0.0, 0.0)
        else:
            scale[n] = (math.sqrt(tail_sq), s * a.tail_sq(n + EXPLICIT_TAIL_COORDS) / tail_sq)
    root = math.sqrt(s)
    rem = None
    if any(rem_var > 0.0 for _, rem_var in scale.values()):
        rem = coordinate_stream(seed, REMAINDER_KEY).standard_normal(samples)
    # One term buffer for the whole sweep: a fresh sample-sized array per key
    # costs more in page faults than in arithmetic.
    term = np.empty(samples)

    def close(n: int, diff: np.ndarray) -> None:
        norm, rem_var = scale[n]
        if rem_var > 0.0:
            diff += np.multiply(math.sqrt(rem_var), rem, out=term)
        np.abs(diff, out=diff)
        diff **= p
        est, se = _pth_moment_root(diff, p)
        out[n] = (est * norm, se * norm)

    keys = sorted({j for n in scale for j in range(n + 1, n + EXPLICIT_TAIL_COORDS + 1)})

    def plan():
        """(key, nonzero (row, coefficient) pairs) for every key, ascending."""
        for j in keys:
            aj = a.coord(j)
            coeffs = [(n, aj / norm) for n, (norm, _) in scale.items()
                      if n < j <= n + EXPLICIT_TAIL_COORDS]
            yield j, [(n, cj) for n, cj in coeffs if cj != 0.0]

    # The look-ahead copy of the plan runs at most len(ring) drawn keys ahead.
    steps, lookahead = tee(plan())
    drawn = (j for j, coeffs in lookahead if coeffs)
    workers = _draw_workers() if samples >= POOL_MIN_SAMPLES else 0
    ring = [np.empty(samples) for _ in range(workers + 1)]
    pending = sorted(scale, reverse=True)
    sums = {}  # open rows: n -> running sum of the normalized tail
    with ThreadPoolExecutor(workers) if workers else nullcontext() as pool:

        def fill(buf: np.ndarray, j: int):
            draw = coordinate_stream(seed, j).standard_normal
            if pool is None:
                done = Future()
                done.set_result(draw(out=buf))
                return done
            return pool.submit(draw, out=buf)

        filling = deque(fill(buf, j) for buf, j in zip(ring, drawn))
        for j, coeffs in steps:
            for n in [m for m in sums if m + EXPLICIT_TAIL_COORDS < j]:
                close(n, sums.pop(n))
            while pending and pending[-1] < j:
                sums[pending.pop()] = np.zeros(samples)
            if coeffs:
                z = filling.popleft().result()
                for n, cj in coeffs:
                    sums[n] += np.multiply(cj * root, z, out=term)
                nxt = next(drawn, None)
                if nxt is not None:
                    filling.append(fill(z, nxt))
    for n in list(sums):
        close(n, sums.pop(n))
    return [out[n] for n in ns]

