"""h-scaled Hermite functions, Laguerre polynomials and multi-index
bookkeeping.

The Hermite family here is the polynomial one, orthonormal in
L2(R, mu_{R,h/2}) where mu_{R,s} is the centered Gaussian measure of variance
s.  The Gaussian weight lives in the measure, not in the functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

MAX_HERMITE_DEGREE = 512
MAX_LAGUERRE_TOTAL = 200


@dataclass(frozen=True)
class CalcContext:
    """Semiclassical parameter bundle; h > 0."""

    h: float = 1.0

    def __post_init__(self) -> None:
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"h must be a positive finite real, got {self.h!r}")


class MultiIndex:
    """Finitely supported map: coordinate index (>= 1) -> degree (>= 1).

    Absent coordinates have degree 0.  Instances are immutable and hashable so
    they can key expansion coefficient maps.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dict(entries)
        for idx, deg in items.items():
            if idx < 1:
                raise ValueError(f"coordinate indices start at 1, got {idx}")
            if deg < 0:
                raise ValueError(f"degrees must be nonnegative, got {deg} at {idx}")
        self._entries = tuple(sorted((i, d) for i, d in items.items() if d > 0))

    @classmethod
    def from_tuple(cls, degrees: Iterable[int]) -> "MultiIndex":
        """Build from a dense degree tuple (coordinate 1 first)."""
        return cls({i + 1: d for i, d in enumerate(degrees)})

    def degree(self, idx: int) -> int:
        for i, d in self._entries:
            if i == idx:
                return d
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._entries)

    def depth(self) -> int:
        """Maximum stored degree (0 for the empty index)."""
        return max((d for _, d in self._entries), default=0)

    def max_coordinate(self) -> int:
        return max((i for i, _ in self._entries), default=0)

    def total(self) -> int:
        return sum(d for _, d in self._entries)

    def as_tuple(self, d: int) -> tuple[int, ...]:
        if self.max_coordinate() > d:
            raise ValueError(f"support exceeds dimension {d}")
        return tuple(self.degree(i) for i in range(1, d + 1))

    def items(self):
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{i}:{d}" for i, d in self._entries)
        return f"MultiIndex({{{body}}})"


@dataclass(frozen=True)
class TruncationSet:
    """All multi-indices supported on {1..d} with every degree <= N.

    Enumeration is graded-lexicographic (total degree first, then lex on the
    dense degree tuple), which fixes matrix layouts across runs.
    """

    dims: int
    max_degree: int

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")

    @property
    def size(self) -> int:
        return (self.max_degree + 1) ** self.dims

    @cached_property
    def degrees(self) -> np.ndarray:
        """Read-only integer array of shape (size, dims): row p is the dense
        degree tuple of the p-th element in the graded order."""
        grid = np.indices((self.max_degree + 1,) * self.dims).reshape(self.dims, -1).T
        # np.indices enumerates in lex order, so a stable sort on the total
        # degree gives (total, lex) order.
        out = np.ascontiguousarray(grid[np.argsort(grid.sum(axis=1), kind="stable")])
        out.flags.writeable = False
        return out

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {row: p for p, row in enumerate(map(tuple, self.degrees.tolist()))}

    def indices(self) -> list[MultiIndex]:
        return [MultiIndex.from_tuple(t) for t in self.degrees.tolist()]

    def index_of(self, alpha: MultiIndex) -> int:
        if alpha.max_coordinate() <= self.dims:
            pos = self._positions.get(alpha.as_tuple(self.dims))
            if pos is not None:
                return pos
        raise KeyError(f"{alpha!r} not in truncation set")


def _check_degree(j: int) -> None:
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    if j > MAX_HERMITE_DEGREE:
        raise ValueError(
            f"degree {j} exceeds the recurrence accuracy budget ({MAX_HERMITE_DEGREE})"
        )


def _hermite_rows(jmax: int, x: np.ndarray, ctx: CalcContext):
    """Yield psi_0(x), ..., psi_jmax(x) by the three-term recurrence

        psi_j = sqrt(2/h) (x / sqrt(j)) psi_{j-1} - sqrt((j-1)/j) psi_{j-2},

    with psi_{-1} = 0, psi_0 = 1."""
    c = math.sqrt(2.0 / ctx.h)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    yield cur
    for m in range(1, jmax + 1):
        prev, cur = cur, c * x / math.sqrt(m) * cur - math.sqrt((m - 1) / m) * prev
        yield cur


def hermite_eval(j: int, x, ctx: CalcContext):
    """Evaluate the h-scaled Hermite polynomial psi_j at x by the three-term
    recurrence; vectorized over x.

    Parameters
    ----------
    j : int
        Degree, 0 <= j <= 512.
    x : float or ndarray
        Evaluation points.
    ctx : CalcContext
        Supplies h.

    Returns
    -------
    float or ndarray
        psi_j(x).
    """
    _check_degree(j)
    x = np.asarray(x, dtype=float)
    for cur in _hermite_rows(j, x, ctx):
        pass
    return cur if cur.shape else float(cur)


def hermite_batch(jmax: int, x, ctx: CalcContext) -> np.ndarray:
    """All psi_0..psi_jmax at x in one recurrence sweep; shape (jmax+1,) + x.shape."""
    _check_degree(jmax)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((jmax + 1,) + x.shape)
    for m, row in enumerate(_hermite_rows(jmax, x, ctx)):
        out[m] = row
    return out


def _laguerre_normalized(nmax: int, alpha: int, z: np.ndarray, start, rows=None):
    """Yield start * L_n^(alpha)(z) / sqrt(C(n + alpha, n)) for n = 0..nmax by
    the normalized forward recurrence

        l_n = ((2n - 1 + alpha - z) l_{n-1} - sqrt((n-1)(n-1+alpha)) l_{n-2})
              / sqrt(n (n + alpha)),

    with l_{-1} = 0, l_0 = start.  The normalization keeps the rows of
    z^{alpha/2} e^{-z/2} / sqrt(alpha!) * l_n within [-1, 1], where the plain
    rows pass the double range from n + alpha ~ 170.  z is flat; row n is
    written into rows[n % r] of the (r, z.size) buffer `rows` (r >= 2, two
    rows by default) beside one scratch row, so a yielded row is overwritten
    r steps later.  The recurrence reads its last two rows back from the
    buffer, so a caller may rescale them in place between steps."""
    if rows is None:
        rows = np.zeros((2, z.size))
    r = len(rows)
    tmp = np.empty_like(rows[0])
    rows[r - 1] = 0.0
    rows[0] = start
    yield rows[0]
    for n in range(1, nmax + 1):
        new, cur, prev = rows[n % r], rows[(n - 1) % r], rows[(n - 2) % r]
        np.subtract(2.0 * n - 1.0 + alpha, z, out=tmp)
        tmp *= cur
        # new may be prev itself (two rows): scale prev into it first
        np.multiply(prev, -math.sqrt((n - 1.0) * (n - 1.0 + alpha)), out=new)
        new += tmp
        new /= math.sqrt(n * (n + alpha))
        yield new


def laguerre_eval(k: int, alpha: int, x):
    """Generalized Laguerre polynomial L_k^(alpha)(x) by the normalized
    forward recurrence of `_laguerre_normalized`, started at
    sqrt(C(k + alpha, k)) so that its last row is L_k^(alpha)(x).

    Guarded to k + alpha <= 200, the degree range the recurrence is tested on.
    """
    if k < 0 or alpha < 0:
        raise ValueError("k and alpha must be nonnegative")
    if k + alpha > MAX_LAGUERRE_TOTAL:
        raise ValueError(
            f"k + alpha = {k + alpha} exceeds the overflow guard ({MAX_LAGUERRE_TOTAL})"
        )
    x = np.asarray(x, dtype=float)
    for row in _laguerre_normalized(k, alpha, x.reshape(-1), math.sqrt(math.comb(k + alpha, k))):
        pass
    return row.reshape(x.shape).copy() if x.shape else float(row[0])
