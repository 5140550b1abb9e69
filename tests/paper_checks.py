"""Checks of the paper that no command reports, run by the tests only.

- Criterion 8: the rotation integration-by-parts identity (`ipp_check`) and
  the matrix element it transports (`rotation_reduction`), on polynomial
  symbols whose rotation derivative is exact (`Poly2`).
- Criterion 9: cylinder functions along a filtration of subspaces
  (`cylinder_extension_check`) and the projected covariance with its
  spectral bound (`covariance_and_bound`), on orthonormal frames.
- Criterion 10: the change of variables that ties the Gaussian box form to
  the classical rectangle integral (`flandrin_reduction_check`).

Each is built from the library's own pieces: the Gauss-Hermite rules and
the order ladder, the keyed sample streams, the box section and the
Gaussian bridge sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gaussweyl.basis import CalcContext, MultiIndex
from gaussweyl.gaussian import LADDER_POLICY, coordinate_stream, gh_rule, integrate_tensor, ladder
from gaussweyl.quadform import HermiteExpansion, _tensor_element, quadratic_form
from gaussweyl.stochproj import MIN_MC_SAMPLES, _pth_moment_root
from gaussweyl.symbols import SymbolDescriptor, box_symbol, custom_symbol
from gaussweyl.wigner import _bridge_sweep, _checked

# ---------------------------------------------------------------------------
# Criterion 8: polynomials in one (x, xi) pair and the rotation identities.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly2:
    """Polynomial in a single phase-space pair: sum of c * x^i xi^j terms,
    with the rotation derivative rot = x d/dxi - xi d/dx in closed form."""

    terms: tuple[tuple[tuple[int, int], complex], ...]

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], complex]) -> "Poly2":
        return cls(terms=tuple(sorted((ij, complex(c)) for ij, c in d.items() if c != 0)))

    def eval(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(np.broadcast(x, xi).shape, dtype=complex)
        for (i, j), c in self.terms:
            out = out + c * x**i * xi**j
        return out

    def __call__(self, xblock, xiblock):
        # evaluator form used by custom symbols: blocks of shape (npoints, 1)
        return self.eval(np.asarray(xblock)[..., 0], np.asarray(xiblock)[..., 0])

    def rot(self) -> "Poly2":
        """x d/dxi - xi d/dx, exactly."""
        acc: dict[tuple[int, int], complex] = {}
        for (i, j), c in self.terms:
            if j:
                key = (i + 1, j - 1)
                acc[key] = acc.get(key, 0.0) + c * j
            if i:
                key = (i - 1, j + 1)
                acc[key] = acc.get(key, 0.0) - c * i
        return Poly2.from_dict(acc)

    def rot_power(self, n: int) -> "Poly2":
        p = self
        for _ in range(n):
            p = p.rot()
        return p

    def degree(self) -> int:
        return max((i + j for (i, j), _ in self.terms), default=0)


def poly_symbol(poly: Poly2) -> SymbolDescriptor:
    """A d=1 custom symbol whose evaluator is a Poly2 (unbounded)."""
    return custom_symbol(poly, d=1, smooth=True, bounded=False)


def ipp_check(F: Poly2, n: int, s: int, eps: int, P, ctx: CalcContext):
    """(lhs, rhs, |lhs - rhs|) of the rotation integration-by-parts identity

        (-s i eps)^n int F (x + i eps xi)^s P(r^2) e^{-r^2/h} dx dxi
          = int (rot^n F) (x + i eps xi)^s P(r^2) e^{-r^2/h} dx dxi

    over plain Lebesgue measure, on the order ladder.  P is a coefficient
    tuple, constant term first, or None for P = 1."""
    h = ctx.h
    P = P or (1.0,)
    sides = (F, F.rot_power(n))

    def shot(order: int):
        rule = gh_rule(order, h / 2.0)

        def integrand(G):
            def f(pts):
                x, xi = pts[:, 0], pts[:, 1]
                r2 = x * x + xi * xi
                base = (x + 1j * eps * xi) ** s * sum(c * r2**m for m, c in enumerate(P))
                return G.eval(x, xi) * base

            return f

        # un-normalize: dmu = e^{-r^2/h} dx dxi / (pi h)
        return (math.pi * h) * np.array([integrate_tensor(integrand(G), rule, 2) for G in sides])

    start = 2 * (s + F.degree() + 2 * (len(P) - 1) + 2) + 16
    both, _ = ladder(shot, start=min(start, LADDER_POLICY["cap"]))
    lhs = complex((-s * 1j * eps) ** n * both[0])
    rhs = complex(both[1])
    return lhs, rhs, abs(lhs - rhs)


def rotation_reduction(sym, alpha: MultiIndex, beta: MultiIndex, coord: int, n: int, ctx: CalcContext):
    """I_{alpha beta} via the transported rotation derivative at `coord`:

        I_{alpha beta}(F) = i^n / (beta_j - alpha_j)^n *
                            int (rot_j^n F) prod W dmu.

    Requires alpha_j != beta_j.  A pair the symbol does not see, or in which
    it is radial, rotates to zero, so the entry is returned as an exact 0;
    any other symbol must be a Poly2 one."""
    aj, bj = alpha.degree(coord), beta.degree(coord)
    if aj == bj:
        raise ValueError("rotation reduction needs alpha != beta at the chosen coordinate")
    if coord > sym.d or sym.is_pairwise_radial():
        return 0.0j
    if not isinstance(sym.evaluator, Poly2):
        raise ValueError("rotation reduction needs a Poly2 symbol")
    val, _ = _tensor_element(poly_symbol(sym.evaluator.rot_power(n)), alpha, beta, ctx)
    return (1j**n / (bj - aj) ** n) * val


# ---------------------------------------------------------------------------
# Criterion 9: frames, cylinder extension and the projected covariance.
# ---------------------------------------------------------------------------


def _check_frame(B: np.ndarray, D: int | None = None) -> np.ndarray:
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.ndim != 2 or not np.all(np.isfinite(B)):
        raise ValueError("frame must be a finite 2-D array of row vectors")
    if D is not None and B.shape[1] != D:
        raise ValueError(f"frame lives in R^{B.shape[1]}, expected R^{D}")
    gram = B @ B.T
    if np.max(np.abs(gram - np.eye(B.shape[0]))) > 1e-10:
        raise ValueError("frame rows are not orthonormal within 1e-10")
    return B


def coordinate_frame(k: int, D: int) -> np.ndarray:
    return np.eye(D)[:k].copy()


def rotated_frame(k: int, D: int, theta: float) -> np.ndarray:
    """Coordinate frame rotated by theta in the (1,2)-plane; k=1 gives the
    single row cos(theta) e_1 + sin(theta) e_2."""
    if D < 2:
        raise ValueError("need D >= 2 for a rotation")
    c, sn = math.cos(theta), math.sin(theta)
    g = np.eye(D)
    g[:2, :2] = [[c, sn], [-sn, c]]
    return coordinate_frame(k, D) @ g


def random_frame(k: int, D: int, seed: int) -> np.ndarray:
    """k orthonormal rows in R^D from a seeded Haar-ish QR draw."""
    if not 1 <= k <= D:
        raise ValueError("need 1 <= k <= D")
    A = coordinate_stream(seed, 0).standard_normal((D, k))
    q, r = np.linalg.qr(A)
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    return q.T.copy()


def cylinder_extension_check(phi, e_frame, frames, p: float, s: float, samples: int, seed: int = 0):
    """Error of replacing the cylinder function phi(ell_{e_1},...,ell_{e_d})
    by its composition with the projection onto each subspace E_n.

    All rows reuse the SAME ambient sample Z ~ mu_{R^D, s}, coordinate j
    drawn from its keyed stream (seed, j): the approximation evaluates phi
    at the coordinates ell_{P_{E_n} e_i}(Z).

    Returns (rows, nonincreasing) where rows are tuples
    (n, dim E_n, mc_estimate, std_error) and the flag records whether the
    errors are nonincreasing within three standard errors.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_MC_SAMPLES}")
    E = _check_frame(e_frame)
    D = E.shape[1]
    Z = math.sqrt(s) * np.column_stack([coordinate_stream(seed, j).standard_normal(samples)
                                        for j in range(1, D + 1)])
    target = np.asarray(phi(Z @ E.T), dtype=float)
    if target.shape != (samples,):
        raise ValueError("phi must map (samples, d) coordinates to (samples,) values")
    rows = []
    nonincreasing = True
    prev = None
    for pos, B in enumerate(frames, start=1):
        B = _check_frame(B, D)
        approx = np.asarray(phi(Z @ (B.T @ (B @ E.T))), dtype=float)
        est, se = _pth_moment_root(np.abs(target - approx) ** p, p)
        if prev is not None and est > prev[0] + 3.0 * (se + prev[1]) + 1e-12:
            nonincreasing = False
        prev = (est, se)
        rows.append((pos, B.shape[0], est, se))
    return rows, nonincreasing


@dataclass(frozen=True)
class CovarianceMatrix:
    """K_{ij} = s <P e_i, P e_j>: the law of the projected coordinate vector
    (ell_{P e_1}, ..., ell_{P e_d}) under mu_{B,s}."""

    K: np.ndarray = field(compare=False)
    s: float = 1.0
    provenance: str = ""
    eigenvalues: tuple = ()
    det: float = 0.0

    @property
    def lambda_max(self) -> float:
        return self.eigenvalues[-1] if self.eigenvalues else 0.0


def covariance_and_bound(basis, d: int, s: float) -> CovarianceMatrix:
    """Covariance of the first d projected coordinates for the subspace
    spanned by `basis` (orthonormal rows in R^D, D >= d).

    Postconditions checked here: K symmetric PSD with spectrum in
    [0, s + 1e-10]; when K is invertible, s <y, K^{-1} y> >= |y|^2 - 1e-9 on
    seeded random y (the abstract norm bound in coordinates).
    """
    if s <= 0:
        raise ValueError("s must be > 0")
    B = _check_frame(basis)
    D = B.shape[1]
    if not 1 <= d <= D:
        raise ValueError("need 1 <= d <= ambient dimension")
    C = B[:, :d]
    K = s * (C.T @ C)
    K = 0.5 * (K + K.T)
    eigs = np.linalg.eigvalsh(K)
    if eigs[0] < -1e-10 or eigs[-1] > s + 1e-10:
        raise AssertionError(f"projected covariance spectrum escaped [0, s]: {eigs!r}")
    if eigs[0] > 1e-12 * max(1.0, s):
        Ki = np.linalg.inv(K)
        rng = coordinate_stream(271828, 0)
        for _ in range(16):
            y = rng.standard_normal(d)
            if s * float(y @ Ki @ y) < float(y @ y) - 1e-9:
                raise AssertionError("inverse-covariance norm bound failed")
    return CovarianceMatrix(
        K=K,
        s=float(s),
        provenance=f"span of {B.shape[0]} rows in R^{D}, first {d} coordinates",
        eigenvalues=tuple(float(v) for v in eigs),
        det=float(np.linalg.det(K)),
    )


# ---------------------------------------------------------------------------
# Criterion 10: the box form as a classical rectangle integral.
# ---------------------------------------------------------------------------


def flandrin_reduction_check(a: float, ctx: CalcContext, f: HermiteExpansion):
    """Check the change of variables tying the Gaussian box form to the
    classical rectangle integral:

        Q(box(a))(f, f) = sum c_j conj(c_k) int_{[0, s a) x [0, a/s)}
                            W_cl(phi_j, phi_k) du dv,   s = sqrt(2 pi h).

    The left side is the box section (the h-free table swept over the
    rectangle, or the closed quarter plane at a = inf); the right side sweeps
    the same rectangle through the Gaussian bridge at ctx.h, i.e. the
    Gaussian closed form in Gaussian variables.  A sweep raises
    QuadratureConvergenceError if its panel doubling stalls.
    Returns (lhs, rhs, residual); at a = inf both sides are the quarter-plane
    mass (1/4 for the ground state).
    """
    if any(idx.max_coordinate() > 1 for idx, _ in f.items()):
        raise ValueError("the reduction check needs a one-dimensional expansion")
    lhs = quadratic_form(box_symbol(a), f, f, ctx)
    lam = math.sqrt(2.0 * math.pi * ctx.h)
    N = max((idx.degree(1) for idx, _ in f.items()), default=0)
    M, _, _ = _checked(_bridge_sweep, N, lam * a, a / lam, ctx)
    rhs = sum(ca * np.conjugate(cb) * M[i.degree(1), j.degree(1)]
              for i, ca in f.items() for j, cb in f.items())
    lhs = lhs.real if abs(lhs.imag) < 1e-10 else lhs
    rhs = rhs.real if abs(rhs.imag) < 1e-10 else rhs
    return lhs, rhs, float(abs(lhs - rhs))
