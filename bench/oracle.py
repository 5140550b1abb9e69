"""Independent reference values for the `boxes` workload.

Nothing here imports gaussweyl.  The quarter-plane Flandrin matrix comes
from an exact polar closed form summed in mpmath; the finite boxes come from
adaptive scipy quadrature of the defining integrals.  The values are frozen
in `reference.json` so that a run does not pay for them (about 10 s):

    python3 bench/oracle.py > bench/reference.json
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np
from scipy import integrate, special

QUARTER_PLANE_N = 64
FINITE_BOX_A = 2.0
# Sections of the a=2 box that the oracle covers.  From n=4 on the box and the
# quarter plane differ by more than the check tolerance (3e-8 at n=4, 1e-5 at n=8).
FINITE_BOX_SECTIONS = (2, 4, 8)
BOX_SYMBOL_A = 1.0
BOX_SYMBOL_N = 8


def quarter_plane_entry(j: int, k: int) -> mp.mpc:
    """M_jk(inf) = int over [0, inf)^2 of W_cl(phi_j, phi_k), for j <= k.

    In polar form W_cl is a radial profile times e^{i m theta}, m = k - j, so
    the angle integral is (e^{i m pi/2} - 1)/(i m) (pi/2 when m = 0) and the
    radial one, after z = 4 pi r^2, is

        sqrt(j!/k!) (-1)^j / (4 pi) int_0^inf e^{-z/2} z^{m/2} L_j^{(m)}(z) dz,

    which the explicit Laguerre sum turns into Gamma values.
    """
    m = k - j
    radial = mp.mpf(0)
    for i in range(j + 1):
        coeff = (-1) ** i * mp.binomial(j + m, j - i) / mp.factorial(i)
        p = mp.mpf(m) / 2 + i
        radial += coeff * mp.gamma(p + 1) * mp.power(2, p + 1)
    radial *= mp.sqrt(mp.factorial(j) / mp.factorial(k)) * (-1) ** j / (4 * mp.pi)
    angle = mp.pi / 2 if m == 0 else (mp.expj(m * mp.pi / 2) - 1) / (1j * m)
    return angle * radial


def quarter_plane_matrix(N: int) -> np.ndarray:
    with mp.workdps(120):
        return hermitian_from_upper(N + 1, lambda j, k: complex(quarter_plane_entry(j, k)))


def classical_wigner(j: int, k: int, x: float, eta: float) -> complex:
    """W_cl(phi_j, phi_k)(x, eta) from its Laguerre closed form (low degree)."""
    lo, hi = min(j, k), max(j, k)
    m = hi - lo
    r2 = x * x + eta * eta
    w = complex(x, eta) if k >= j else complex(x, -eta)
    pref = 2.0 * math.sqrt(math.factorial(lo) / math.factorial(hi)) * (-1) ** lo
    return (
        pref * (4.0 * math.pi) ** (m / 2.0) * w**m
        * special.eval_genlaguerre(lo, m, 4.0 * math.pi * r2)
        * math.exp(-2.0 * math.pi * r2)
    )


def gaussian_wigner_weighted(j: int, k: int, x: float, xi: float, h: float) -> complex:
    """W_{h,R}(psi_j, psi_k)(x, xi) times the density of mu_{R^2, h/2}."""
    lo, hi = min(j, k), max(j, k)
    m = hi - lo
    r2 = x * x + xi * xi
    w = complex(x, xi) if k >= j else complex(x, -xi)
    pref = math.sqrt(math.factorial(lo) / math.factorial(hi)) * (-1) ** lo
    return (
        pref * (2.0 / h) ** (m / 2.0) * w**m
        * special.eval_genlaguerre(lo, m, 2.0 / h * r2)
        * math.exp(-r2 / h) / (math.pi * h)
    )


def _dblquad(f, xhi: float, yhi: float) -> complex:
    opts = {"epsabs": 1e-13, "epsrel": 1e-12}
    re, _ = integrate.dblquad(lambda y, x: f(x, y).real, 0.0, xhi, 0.0, yhi, **opts)
    im, _ = integrate.dblquad(lambda y, x: f(x, y).imag, 0.0, xhi, 0.0, yhi, **opts)
    return complex(re, im)


def hermitian_from_upper(n: int, entry) -> np.ndarray:
    M = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(j, n):
            v = entry(j, k)
            M[j, k] = v
            M[k, j] = np.conjugate(v)
    return M


def top_eigenvalues(M: np.ndarray, sections) -> dict:
    return {str(n): float(np.linalg.eigvalsh(M[: n + 1, : n + 1])[-1]) for n in sections}


def main() -> None:
    quarter = quarter_plane_matrix(QUARTER_PLANE_N)
    box2 = hermitian_from_upper(
        FINITE_BOX_SECTIONS[-1] + 1,
        lambda j, k: _dblquad(lambda x, y: classical_wigner(j, k, x, y), FINITE_BOX_A, FINITE_BOX_A),
    )
    h = 1.0
    box_symbol = hermitian_from_upper(
        BOX_SYMBOL_N + 1,
        lambda j, k: _dblquad(
            lambda x, y: gaussian_wigner_weighted(j, k, x, y, h),
            2.0 * math.pi * h * BOX_SYMBOL_A,
            BOX_SYMBOL_A,
        ),
    )
    ref = {
        "provenance": "bench/oracle.py: mpmath polar closed form (quarter plane), "
        "scipy dblquad of the defining integrals (finite boxes)",
        "flandrin_inf_top": top_eigenvalues(quarter, (2, 4, 8, 16, 32, 64)),
        "flandrin_a2_top": top_eigenvalues(box2, FINITE_BOX_SECTIONS),
        "box_a1_N8_h1_eigenvalues": [float(v) for v in np.linalg.eigvalsh(box_symbol)],
    }
    print(json.dumps(ref, indent=2))


if __name__ == "__main__":
    main()
