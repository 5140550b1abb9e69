"""Checks of each command's output against references computed here.

No expected value comes from gaussweyl: the closed forms below are evaluated
with numpy and mpmath, and the box-localization values are read from
`reference.json`, which `oracle.py` makes by mpmath and adaptive scipy
quadrature.  Each checker reads the command's output file and returns a
`Verdict`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import mpmath as mp
import numpy as np

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

SECTION_TOL = 1e-8     # entries of operator sections (ladder accepts 1e-10 abs / 1e-9 rel)
WIGNER_TOL = 1e-8      # normwise relative error of Wigner tables at the spot points
CLOSED_TOL = 1e-12     # values the program also computes in closed form
FLANDRIN_TOL = 1e-9    # top eigenvalues against the oracle
SPOT_POINTS = 64
INTERLACING_TOL = 1e-12  # slack when checking that a convergence table never decreases
# The CLI defaults that every command of the workloads runs with: h, and the
# stochastic extension's exponents p and s.
H = 1.0
P, S = 2.0, 1.0


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str


# The verdict on a command that wrote no output file.
NO_OUTPUT = Verdict(False, "no output file")


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def normwise_error(got, want) -> float:
    """max |got - want| / max |want| (0 when both vanish)."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    err = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want)))
    if scale == 0.0:
        return err
    return err / scale


def nondecreasing(values) -> bool:
    return all(b >= a - INTERLACING_TOL for a, b in zip(values, values[1:]))


def _complex(v) -> complex:
    return complex(v["re"], v["im"]) if isinstance(v, dict) else complex(v)


def _results(path: Path) -> dict:
    return json.loads(path.read_text())["results"]


def _table(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def graded_indices(d: int, N: int) -> list[tuple[int, ...]]:
    """Degree tuples with every entry <= N, total degree first, then lex: the
    documented basis order of operator sections."""
    return sorted(product(range(N + 1), repeat=d), key=lambda t: (sum(t), t))


def mixture_diagonal(terms, d: int, N: int, h: float) -> np.ndarray:
    """Diagonal of the section of sum_k c_k prod_j e^{-nu_kj r_j^2}:

        I_aa = sum_k c_k prod_j (1 - nu_kj h)^{a_j} / (1 + nu_kj h)^{a_j + 1}.

    `terms` is a list of (c_k, (nu_k1, ..., nu_kd)); off-diagonal entries vanish.
    """
    idx = np.array(graded_indices(d, N), dtype=float).reshape(-1, d)
    out = np.zeros(idx.shape[0])
    for c, nus in terms:
        nus = np.asarray(nus, dtype=float)
        out += c * np.prod((1.0 - nus * h) ** idx / (1.0 + nus * h) ** (idx + 1.0), axis=1)
    return out


def weyl_ground(terms, h: float) -> float:
    """I_00 = sum_k c_k prod_j 1/(1 + nu_kj h): the ground-state Weyl form,
    which is also the radial product lower bound (attained at the ground state)."""
    return float(sum(c * np.prod(1.0 / (1.0 + np.asarray(nus) * h)) for c, nus in terms))


def antiwick_ground(terms, h: float) -> float:
    """Ground-state anti-Wick form: heat t = h/2 maps nu to nu/(1 + nu h) with
    amplitude 1/(1 + nu h) per pair, so each pair contributes 1/(1 + 2 nu h)."""
    return float(sum(c * np.prod(1.0 / (1.0 + 2.0 * np.asarray(nus) * h)) for c, nus in terms))


def nonpos_closed(nu: float, anorm: float, h: float) -> float:
    """(h |a|^2 / 2) (1 - h nu |a|^2) / (1 + h nu |a|^2)^2."""
    u = h * nu * anorm**2
    return (h * anorm**2 / 2.0) * (1.0 - u) / (1.0 + u) ** 2


def garding_closed(h: float) -> tuple[float, float]:
    """sum_j lambda_j and prod_j (1 + lambda_j) for lambda_j = 81 pi h j^-4:
    zeta(4) = pi^4/90 and prod (1 + a^4/j^4) = (cosh(sqrt2 pi a) - cos(sqrt2 pi a)) / (2 pi^2 a^2)."""
    c = 81.0 * math.pi * h
    a = mp.mpf(c) ** 0.25
    t = mp.sqrt(2) * mp.pi * a
    prod = (mp.cosh(t) - mp.cos(t)) / (2 * mp.pi**2 * a**2)
    return c * math.pi**4 / 90.0, float(prod)


def wigner_value(j: int, k: int, x: float, xi: float, h: float) -> complex:
    """W_{h,R}(psi_j, psi_k)(x, xi) from the Laguerre closed form, in mpmath."""
    with mp.workdps(40):
        lo, hi = min(j, k), max(j, k)
        m = hi - lo
        x, xi = mp.mpf(x), mp.mpf(xi)
        w = mp.mpc(x, xi) if k >= j else mp.mpc(x, -xi)
        pref = mp.sqrt(mp.factorial(lo) / mp.factorial(hi)) * (-1) ** lo * (2 / mp.mpf(h)) ** (mp.mpf(m) / 2)
        return complex(pref * w**m * mp.laguerre(lo, m, 2 * (x * x + xi * xi) / h))


def stochext_exact(direction: str, n: int, p: float, s: float) -> float:
    """C_{p,s} |tail of a past n|, C_{p,s} = sqrt(2s) pi^{-1/(2p)} Gamma((p+1)/2)^{1/p};
    tail^2 is 2^{-n} (geometric) or trigamma(n + 1) (power)."""
    with mp.workdps(30):
        cps = mp.sqrt(2 * s) * mp.pi ** (-1 / (2 * mp.mpf(p))) * mp.gamma((p + 1) / mp.mpf(2)) ** (1 / mp.mpf(p))
        tail_sq = mp.power(2, -n) if direction == "geometric" else mp.psi(1, n + 1)
        return float(cps * mp.sqrt(tail_sq))


def stochext_rows(nmax: int) -> list[int]:
    return sorted({0, 1, 2} | {2**k for k in range(2, 12) if 2**k <= nmax} | {nmax})


# ---------------------------------------------------------------------------
# Checkers: one per command kind.  `check(path, rng)` reads the output file.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionCheck:
    """opmatrix (CSV of all entries) or spectrum (CSV of eigenvalues) of a
    Gaussian-mixture symbol."""

    kind: str
    terms: tuple
    d: int
    N: int

    def check(self, path: Path, rng) -> Verdict:
        diag = mixture_diagonal(self.terms, self.d, self.N, H)
        tol = SECTION_TOL * max(1.0, float(np.max(np.abs(diag))))
        t = _table(path)
        if self.kind == "spectrum":
            if t.shape[0] != diag.size:
                return Verdict(False, f"{t.shape[0]} eigenvalues, expected {diag.size}")
            err = float(np.max(np.abs(np.sort(t[:, 1]) - np.sort(diag))))
            return Verdict(err <= tol, f"max eigenvalue error {err:.3g} (tol {tol:.3g})")
        n = diag.size
        if t.shape[0] != n * n:
            return Verdict(False, f"{t.shape[0]} entries, expected {n * n}")
        M = np.zeros((n, n), dtype=complex)
        M[t[:, 0].astype(int), t[:, 1].astype(int)] = t[:, 2] + 1j * t[:, 3]
        err = float(np.max(np.abs(M - np.diag(diag))))
        return Verdict(err <= tol, f"max entry error {err:.3g} (tol {tol:.3g})")


@dataclass(frozen=True)
class RadialCheck:
    terms: tuple
    d: int
    N: int

    def check(self, path: Path, rng) -> Verdict:
        res = _results(path)
        diag = mixture_diagonal(self.terms, self.d, self.N, H)
        got = np.asarray(res["diagonal"], dtype=float)
        if got.size != diag.size:
            return Verdict(False, f"{got.size} diagonal entries, expected {diag.size}")
        err = float(np.max(np.abs(got - diag)))
        bound = weyl_ground(self.terms, H)
        ok = (
            err <= SECTION_TOL
            and _close(res["min_eig"], float(np.min(diag)), SECTION_TOL)
            and _close(res["bound"], bound, CLOSED_TOL)
        )
        return Verdict(ok, f"diagonal error {err:.3g}, bound {res['bound']!r} vs {bound!r}")


@dataclass(frozen=True)
class GardingCheck:
    terms: tuple
    d: int
    N: int

    def check(self, path: Path, rng) -> Verdict:
        res = _results(path)
        min_eig = float(np.min(mixture_diagonal(self.terms, self.d, self.N, H)))
        sum_lam, prod = garding_closed(H)
        ok = (
            _close(res["measured_min_eig"], min_eig, SECTION_TOL)
            and _close(res["sum_lambda"], sum_lam, 1e-10)
            and _close(res["prod_one_plus_lambda"], prod, 1e-10)
            and _close(res["bound"], -res["M"] * sum_lam * prod, 1e-10)
            and _close(res["margin"], res["measured_min_eig"] - res["bound"], CLOSED_TOL)
        )
        return Verdict(ok, f"min eig {res['measured_min_eig']!r} vs {min_eig!r}; "
                           f"sum {res['sum_lambda']!r} vs {sum_lam!r}; prod {res['prod_one_plus_lambda']!r} vs {prod!r}")


@dataclass(frozen=True)
class NonposCheck:
    nu: float
    anorm: float

    def check(self, path: Path, rng) -> Verdict:
        res = _results(path)
        want = nonpos_closed(self.nu, self.anorm, H)
        ok = _close(res["closed"], want, CLOSED_TOL) and abs(res["quadrature"] - want) <= SECTION_TOL
        return Verdict(ok, f"closed {res['closed']!r}, quadrature {res['quadrature']!r}, expected {want!r}")


@dataclass(frozen=True)
class HeatCheck:
    terms: tuple

    def check(self, path: Path, rng) -> Verdict:
        res = _results(path)
        weyl = _complex(res["weyl_ground_state"])
        aw = _complex(res["antiwick_ground_state"])
        want_w = weyl_ground(self.terms, H)
        want_aw = antiwick_ground(self.terms, H)
        ok = res["residual"] <= 1e-10 and abs(weyl - want_w) <= SECTION_TOL and abs(aw - want_aw) <= SECTION_TOL
        return Verdict(ok, f"residual {res['residual']:.3g}; Weyl {weyl.real!r} vs {want_w!r}; "
                           f"anti-Wick {aw.real!r} vs {want_aw!r}")


@dataclass(frozen=True)
class WignerCheck:
    """Hermite-pair Wigner table on a grid, against mpmath at seeded rows."""

    j: int
    k: int
    grid: int

    def check(self, path: Path, rng) -> Verdict:
        t = _table(path)
        if t.shape[0] != self.grid**2:
            return Verdict(False, f"{t.shape[0]} rows, expected {self.grid ** 2}")
        rows = rng.choice(t.shape[0], size=SPOT_POINTS, replace=False)
        got = t[rows, 2] + 1j * t[rows, 3]
        want = [wigner_value(self.j, self.k, t[r, 0], t[r, 1], H) for r in rows]
        err = normwise_error(got, want)
        return Verdict(err <= WIGNER_TOL, f"normwise error {err:.3g} at {SPOT_POINTS} points (tol {WIGNER_TOL})")


@dataclass(frozen=True)
class SymbolGridCheck:
    """Grid of a one-pair Gaussian symbol e^{-nu |a|^2 (x^2 + xi^2)}."""

    rate: float
    grid: int

    def check(self, path: Path, rng) -> Verdict:
        t = _table(path)
        if t.shape[0] != self.grid**2:
            return Verdict(False, f"{t.shape[0]} rows, expected {self.grid ** 2}")
        rows = rng.choice(t.shape[0], size=SPOT_POINTS, replace=False)
        want = np.exp(-self.rate * (t[rows, 0] ** 2 + t[rows, 1] ** 2))
        err = normwise_error(t[rows, 2] + 1j * t[rows, 3], want)
        return Verdict(err <= CLOSED_TOL, f"normwise error {err:.3g} at {SPOT_POINTS} points")


@dataclass(frozen=True)
class StochextCheck:
    direction: str
    nmax: int

    def check(self, path: Path, rng) -> Verdict:
        t = _table(path)
        ns = [int(n) for n in t[:, 0]]
        if ns != stochext_rows(self.nmax):
            return Verdict(False, f"rows n={ns}, expected {stochext_rows(self.nmax)}")
        want = np.array([stochext_exact(self.direction, n, P, S) for n in ns])
        err = float(np.max(np.abs(t[:, 1] - want) / np.maximum(want, 1e-300)))
        return Verdict(err <= CLOSED_TOL, f"exact column relative error {err:.3g}")


@dataclass(frozen=True)
class FlandrinCheck:
    """Convergence table of the top eigenvalue over nested sections: never
    decreasing (Cauchy interlacing) and equal to the oracle where it has one."""

    reference_key: str
    N: int

    def check(self, path: Path, rng) -> Verdict:
        res = _results(path)
        table = {int(n): float(v) for n, v in res["convergence"]}
        want_ns = sorted({n for n in (2, 4, 8, 16, 32, 64, 128) if n <= self.N} | {self.N})
        if sorted(table) != want_ns:
            return Verdict(False, f"sections {sorted(table)}, expected {want_ns}")
        tops = [table[n] for n in want_ns]
        errs = {n: abs(table[int(n)] - v) for n, v in REFERENCE[self.reference_key].items()}
        worst = max(errs.values())
        ok = nondecreasing(tops) and worst <= FLANDRIN_TOL and res["top_eigenvalue"] == tops[-1]
        return Verdict(ok, f"nondecreasing {nondecreasing(tops)}, worst oracle error {worst:.3g} "
                           f"over sections {sorted(errs, key=int)}")


@dataclass(frozen=True)
class BoxSpectrumCheck:
    reference_key: str

    def check(self, path: Path, rng) -> Verdict:
        t = _table(path)
        want = np.asarray(REFERENCE[self.reference_key])
        if t.shape[0] != want.size:
            return Verdict(False, f"{t.shape[0]} eigenvalues, expected {want.size}")
        err = float(np.max(np.abs(np.sort(t[:, 1]) - want)))
        return Verdict(err <= SECTION_TOL, f"max eigenvalue error {err:.3g}")
