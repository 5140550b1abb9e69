"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library under test: Hermite values come
from numpy.polynomial.hermite_e, Laguerre from scipy.special.genlaguerre,
integrals from scipy.integrate's adaptive routines, and constants from mpmath.
Run as a script to print the table of frozen values that appear as literals in
the test modules.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from numpy.polynomial import hermite_e
from scipy import integrate, special

# Infinite Gaussian integrals are cut at |x| <= CUT * sqrt(h); e^{-CUT^2} is far
# below double precision for CUT = 13.
CUT = 13.0


def psi(j: int, x: float, h: float = 1.0) -> float:
    """h-scaled Hermite polynomial, orthonormal in L2(mu_{R,h/2}).

    psi_j(x) = He_j(sqrt(2/h) x) / sqrt(j!) with He_j the probabilists'
    Hermite polynomial.
    """
    c = np.zeros(j + 1)
    c[j] = 1.0
    return float(hermite_e.hermeval(math.sqrt(2.0 / h) * x, c)) / math.sqrt(
        math.gamma(j + 1)
    )


def gauss_density_1d(t: float, s: float) -> float:
    return math.exp(-t * t / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)


def inner_product_mu(j: int, k: int, h: float) -> float:
    s = h / 2.0
    lim = CUT * math.sqrt(h)
    val, _ = integrate.quad(
        lambda t: psi(j, t, h) * psi(k, t, h) * gauss_density_1d(t, s),
        -lim,
        lim,
        limit=200,
    )
    return val


def wigner_closed(j: int, k: int, x: float, xi: float, h: float) -> complex:
    """Laguerre closed form for W_{h,R}(psi_j, psi_k)(x, xi)."""
    m = abs(j - k)
    lo = min(j, k)
    hi = max(j, k)
    lag = special.genlaguerre(lo, m)(2.0 / h * (x * x + xi * xi))
    pref = math.sqrt(math.gamma(lo + 1) / math.gamma(hi + 1)) * (-1.0) ** lo * (
        2.0 / h
    ) ** (m / 2.0)
    w = (x + 1j * xi) ** (k - j) if k >= j else (x - 1j * xi) ** (j - k)
    return pref * w * lag


def wigner_definition(j: int, k: int, z: float, zeta: float, h: float) -> complex:
    """W by its integral definition: e^{zeta^2/h} int e^{-2i zeta t/h} psi_j(z+t)
    conj(psi_k(z-t)) dmu_{R,h/2}(t)."""
    s = h / 2.0
    lim = CUT * math.sqrt(h)

    def integrand_re(t: float) -> float:
        ph = -2.0 * zeta * t / h
        return (
            math.cos(ph) * psi(j, z + t, h) * psi(k, z - t, h) * gauss_density_1d(t, s)
        )

    def integrand_im(t: float) -> float:
        ph = -2.0 * zeta * t / h
        return (
            math.sin(ph) * psi(j, z + t, h) * psi(k, z - t, h) * gauss_density_1d(t, s)
        )

    re, _ = integrate.quad(integrand_re, -lim, lim, limit=400)
    im, _ = integrate.quad(integrand_im, -lim, lim, limit=400)
    return math.exp(zeta * zeta / h) * (re + 1j * im)


def gauss2_weight(x: float, xi: float, h: float) -> float:
    """Density of mu_{R^2,h/2}: e^{-(x^2+xi^2)/h} / (pi h)."""
    return math.exp(-(x * x + xi * xi) / h) / (math.pi * h)


def dblquad_c(f, h: float, lim: float | None = None) -> complex:
    lim = lim if lim is not None else CUT * math.sqrt(h)
    re, _ = integrate.dblquad(
        lambda xi, x: f(x, xi).real, -lim, lim, -lim, lim, epsabs=1e-12, epsrel=1e-12
    )
    im, _ = integrate.dblquad(
        lambda xi, x: f(x, xi).imag, -lim, lim, -lim, lim, epsabs=1e-12, epsrel=1e-12
    )
    return re + 1j * im


def matrix_element_gaussian(j: int, k: int, nu: float, h: float) -> complex:
    """I_{jk}(e^{-nu r^2}) by adaptive quadrature (d=1)."""
    return dblquad_c(
        lambda x, xi: math.exp(-nu * (x * x + xi * xi))
        * wigner_closed(j, k, x, xi, h)
        * gauss2_weight(x, xi, h),
        h,
    )


def matrix_element_gaussian_polar(j: int, nu: float, h: float) -> float:
    """I_{jj}(e^{-nu r^2}) (d=1) as the polar integral of the same integrand,

        int_0^inf e^{-nu r^2} (-1)^j L_j(2 r^2/h) (2 r/h) e^{-r^2/h} dr,

    in 30-digit mpmath.  W(psi_j, psi_j) is radial, so this is the 2-D
    integral of matrix_element_gaussian in one dimension; it stays fast and
    accurate at degrees where the adaptive 2-D quadrature takes minutes."""
    with mpmath.workdps(30):
        h, nu = mpmath.mpf(h), mpmath.mpf(nu)

        def f(r):
            return (
                mpmath.exp(-(nu + 1 / h) * r * r)
                * (-1) ** j
                * mpmath.laguerre(j, 0, 2 * r * r / h)
                * 2 * r / h
            )

        breaks = [mpmath.sqrt(h) * t for t in range(13)] + [mpmath.inf]
        return float(mpmath.quad(f, breaks))


def overlap(j: int, k: int, h: float) -> complex:
    return dblquad_c(
        lambda x, xi: wigner_closed(j, k, x, xi, h) * gauss2_weight(x, xi, h), h
    )


def c_ps(p: float, s: float) -> float:
    return (
        math.sqrt(2.0 * s)
        * math.pi ** (-1.0 / (2.0 * p))
        * math.gamma((p + 1.0) / 2.0) ** (1.0 / p)
    )


def c_ps_by_quadrature(p: float, s: float) -> float:
    val, _ = integrate.quad(
        lambda t: abs(t) ** p * gauss_density_1d(t, s), -CUT * math.sqrt(s) - 30, CUT * math.sqrt(s) + 30
    )
    return val ** (1.0 / p)


def ipp_sides(h: float = 1.0) -> tuple[complex, complex]:
    """Both sides of the rotation IPP identity for F=x, n=1, s=1, eps=1, P=1."""
    lhs = -1j * dblquad_c(
        lambda x, xi: (x * (x + 1j * xi)) * math.exp(-(x * x + xi * xi) / h), h
    )
    # [x d_xi - xi d_x](x) = -xi
    rhs = dblquad_c(
        lambda x, xi: (-xi * (x + 1j * xi)) * math.exp(-(x * x + xi * xi) / h), h
    )
    return lhs, rhs


def ipp_sides_2(h: float = 1.0) -> tuple[complex, complex]:
    """F = x^2 xi, n=2, s=2, eps=1, P(t)=t."""

    def weight(x, xi):
        return (x + 1j * xi) ** 2 * (x * x + xi * xi) * math.exp(-(x * x + xi * xi) / h)

    lhs = (-2j) ** 2 * dblquad_c(lambda x, xi: x * x * xi * weight(x, xi), h)
    # R = x d_xi - xi d_x.  R(x^2 xi) = x^3 - 2 x xi^2;
    # R^2(x^2 xi) = R(x^3) - 2 R(x xi^2) = -3x^2 xi - 2(x^2 xi... ) compute:
    # R(x^3) = -3 x^2 xi ; R(x xi^2) = x * 2 xi x + xi^2 * (-xi) * ... do it
    # carefully: R(f) = x f_xi - xi f_x.
    # f = x xi^2: f_xi = 2 x xi, f_x = xi^2 -> R f = 2 x^2 xi - xi^3.
    # So R^2(x^2 xi) = -3 x^2 xi - 2 (2 x^2 xi - xi^3) = -7 x^2 xi + 2 xi^3.
    rhs = dblquad_c(
        lambda x, xi: (-7.0 * x * x * xi + 2.0 * xi**3) * weight(x, xi), h
    )
    return lhs, rhs


def rotation_example(h: float = 1.0) -> tuple[complex, complex]:
    """I_{0,1}(F=x) two ways: direct and via the rotation formula (n=1)."""
    direct = dblquad_c(
        lambda x, xi: x * wigner_closed(0, 1, x, xi, h) * gauss2_weight(x, xi, h), h
    )
    # i^1/(beta-alpha)^1 * integral of (x d_xi - xi d_x)(x) = -xi against W_{0,1}
    reduced = 1j * dblquad_c(
        lambda x, xi: -xi * wigner_closed(0, 1, x, xi, h) * gauss2_weight(x, xi, h), h
    )
    return direct, reduced


def heated_gaussian_by_convolution(nu: float, t: float, x: float, xi: float) -> float:
    """(H_t e^{-nu r^2})(x, xi) via the 2-D Gaussian convolution definition."""
    lim = 14.0 + 3.0 * math.sqrt(t)

    def f(u, v):
        ker = math.exp(-((x - u) ** 2 + (xi - v) ** 2) / (2.0 * t)) / (
            2.0 * math.pi * t
        )
        return complex(math.exp(-nu * (u * u + v * v)) * ker)

    return dblquad_c(f, 1.0, lim).real


def heated_I(j: int, nu: float, h: float) -> float:
    """I_{jj} of the t=h/2-heated gaussian symbol, by quadrature."""
    t = h / 2.0
    amp = 1.0 / (1.0 + 2.0 * nu * t)
    nup = nu / (1.0 + 2.0 * nu * t)
    return (
        amp
        * dblquad_c(
            lambda x, xi: math.exp(-nup * (x * x + xi * xi))
            * wigner_closed(j, j, x, xi, h)
            * gauss2_weight(x, xi, h),
            h,
        ).real
    )


def garding_numbers() -> dict:
    mpmath.mp.dps = 40
    out = {}
    # epsilon_j = 2^{-j}, h = 1, S = 1
    lam = lambda j: 81 * mpmath.pi * mpmath.mpf(4) ** (-j)
    out["sum_2j"] = mpmath.nsum(lam, [1, mpmath.inf])
    out["sum_2j_closed"] = 27 * mpmath.pi
    out["prod_2j"] = mpmath.nprod(lambda j: 1 + lam(j), [1, mpmath.inf])
    out["bound_2j_M1"] = -out["sum_2j"] * out["prod_2j"]
    # epsilon_j = j^{-2}, h = 1
    lam2 = lambda j: 81 * mpmath.pi * mpmath.mpf(j) ** (-4)
    out["sum_j2"] = 81 * mpmath.pi * mpmath.zeta(4)
    out["prod_j2"] = mpmath.nprod(lambda j: 1 + lam2(j), [1, mpmath.inf])
    out["zeta4_form"] = 81 * mpmath.pi * mpmath.pi**4 / 90
    return out


def garding_sum_prod(eps: str, h: float) -> tuple[float, float]:
    """sum_j lambda_j and prod_j (1 + lambda_j) for lambda_j = 81 pi h eps_j^2
    (S_eps = 1 for both sequences), in 40-digit mpmath with c = 81 pi h exact.
    j^-2: c zeta(4), and 1 + x^4/j^4 = (1 - z^2/j^2)(1 - conj(z)^2/j^2) at
    z = x e^{i pi/4}, x = c^{1/4}, so the product is |sin(pi z)/(pi z)|^2 by
    the sine product.  2^-j: the sum of c 4^-j, and the q-Pochhammer symbol
    (-c/4; 1/4)_inf."""
    with mpmath.workdps(40):
        c = 81 * mpmath.pi * mpmath.mpf(h)
        if eps == "j^-2":
            z = c ** mpmath.mpf(0.25) * mpmath.expjpi(mpmath.mpf(1) / 4)
            return float(c * mpmath.zeta(4)), float(abs(mpmath.sin(mpmath.pi * z) / (mpmath.pi * z)) ** 2)
        if eps == "2^-j":
            total = mpmath.nsum(lambda j: c * mpmath.mpf(4) ** -j, [1, mpmath.inf])
            return float(total), float(mpmath.qp(-c / 4, mpmath.mpf(1) / 4))
    raise ValueError(f"no oracle for eps {eps!r}")


def hermite_weighted_sup(n: int) -> float:
    """sup_u |H_n(u)| e^{-u^2} (physicists' Hermite), by dense grid."""
    u = np.linspace(-8, 8, 2_000_001)
    hn = special.eval_hermite(n, u)
    return float(np.max(np.abs(hn) * np.exp(-(u**2))))


def classical_hermite(j: int, x: float) -> float:
    """2pi-adapted Hermite function: phi_j(x) = 2^{1/4} e^{-pi x^2} He_j(2 sqrt(pi) x)/sqrt(j!)."""
    c = np.zeros(j + 1)
    c[j] = 1.0
    return (
        2.0**0.25
        * math.exp(-math.pi * x * x)
        * float(hermite_e.hermeval(2.0 * math.sqrt(math.pi) * x, c))
        / math.sqrt(math.gamma(j + 1))
    )


def classical_wigner_direct(j: int, k: int, x: float, eta: float) -> complex:
    """W_cl(phi_j, phi_k)(x, eta) = int e^{-2 i pi z eta} phi_j(x+z/2) phi_k(x-z/2) dz."""
    lim = 30.0

    def f_re(z):
        return math.cos(-2 * math.pi * z * eta) * classical_hermite(
            j, x + z / 2
        ) * classical_hermite(k, x - z / 2)

    def f_im(z):
        return math.sin(-2 * math.pi * z * eta) * classical_hermite(
            j, x + z / 2
        ) * classical_hermite(k, x - z / 2)

    re, _ = integrate.quad(f_re, -lim, lim, limit=400)
    im, _ = integrate.quad(f_im, -lim, lim, limit=400)
    return re + 1j * im


@functools.lru_cache(maxsize=None)
def _genlaguerre(n: int, alpha: int):
    # built once per (n, alpha): dblquad evaluates the same polynomial many times
    return special.genlaguerre(n, alpha)


def classical_wigner_closed(j: int, k: int, x: float, eta: float) -> complex:
    """Bridge closed form: 2 e^{-2 pi r^2} * sqrt(lo!/hi!) (-1)^lo (4 pi)^{m/2} w^m L_lo^{(m)}(4 pi r^2)."""
    r2 = x * x + eta * eta
    m = abs(j - k)
    lo = min(j, k)
    hi = max(j, k)
    lag = _genlaguerre(lo, m)(4.0 * math.pi * r2)
    pref = (
        2.0
        * math.exp(-2.0 * math.pi * r2)
        * math.sqrt(math.gamma(lo + 1) / math.gamma(hi + 1))
        * (-1.0) ** lo
        * (4.0 * math.pi) ** (m / 2.0)
    )
    w = (x + 1j * eta) ** (k - j) if k >= j else (x - 1j * eta) ** (j - k)
    return pref * w * lag


def flandrin_entry(j: int, k: int, a: float) -> complex:
    """M_{jk}(a) = squared-region integral of W_cl(phi_j, phi_k); a = inf -> quarter plane."""
    side = 12.0 if math.isinf(a) else a
    return _flandrin_quad(j, k, side, side)


def flandrin_rect_entry(j: int, k: int, lx: float, ly: float) -> complex:
    """int_{[0,lx) x [0,ly)} W_cl(phi_j, phi_k).  An infinite side is cut at 6,
    where low-degree entries are below 1e-40 (e^{-2 pi r^2} = e^{-226})."""
    return _flandrin_quad(j, k, min(lx, 6.0), min(ly, 6.0))


def flandrin_quarter_entry(j: int, k: int) -> complex:
    """M_{jk}(inf) for j <= k in polar closed form, summed in mpmath.

    W_cl(phi_j, phi_k) is e^{i m theta} (m = k - j) times a radial profile,
    so the quarter-plane angle integral is (e^{i m pi/2} - 1)/(i m) (pi/2 at
    m = 0), and after z = 4 pi r^2 the radial one is

        sqrt(j!/k!) (-1)^j / (4 pi) int_0^inf e^{-z/2} z^{m/2} L_j^{(m)}(z) dz
        = sqrt(j!/k!) (-1)^j / (4 pi) Gamma(b) C(j+m, j) 2^b 2F1(-j, b; m+1; 2),

    b = m/2 + 1 (the Laplace transform of t^{b-1} L_j^{(m)}(t) at s = 1/2).
    """
    m = k - j
    with mpmath.workdps(60):
        b = mpmath.mpf(m) / 2 + 1
        radial = (
            mpmath.gamma(b)
            * mpmath.binomial(j + m, j)
            * mpmath.power(2, b)
            * mpmath.hyp2f1(-j, b, m + 1, 2)
        )
        radial *= mpmath.sqrt(mpmath.factorial(j) / mpmath.factorial(k)) * (-1) ** j / (4 * mpmath.pi)
        angle = mpmath.pi / 2 if m == 0 else (mpmath.expj(m * mpmath.pi / 2) - 1) / (1j * m)
        return complex(angle * radial)


def flandrin_quarter_tops(N: int) -> dict:
    """Top eigenvalue of the quarter-plane matrix on each nested section n <= N."""
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for j in range(N + 1):
        for k in range(j, N + 1):
            M[j, k] = flandrin_quarter_entry(j, k)
            M[k, j] = np.conjugate(M[j, k])
    sections = sorted({n for n in (2, 4, 8, 16, 32, 64) if n <= N} | {N})
    return {n: float(np.linalg.eigvalsh(M[: n + 1, : n + 1])[-1]) for n in sections}


def _flandrin_quad(j: int, k: int, lx: float, ly: float) -> complex:
    re, _ = integrate.dblquad(
        lambda y, x: classical_wigner_closed(j, k, x, y).real,
        0.0,
        lx,
        0.0,
        ly,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    im, _ = integrate.dblquad(
        lambda y, x: classical_wigner_closed(j, k, x, y).imag,
        0.0,
        lx,
        0.0,
        ly,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return re + 1j * im


def bridge_check(j: int, x: float, xi: float, h: float) -> tuple[complex, complex]:
    """lhs = e^{-(x^2+xi^2)/h} W_h(psi_j,psi_j)(x,xi);
    rhs = 1/2 W_cl(gamma psi_j, gamma psi_j)(x, xi/(2 pi h)) with W_cl by direct quadrature."""
    lhs = math.exp(-(x * x + xi * xi) / h) * wigner_closed(j, j, x, xi, h)

    def gpsi(y: float) -> float:
        return (math.pi * h) ** (-0.25) * math.exp(-y * y / (2 * h)) * psi(j, y, h)

    eta = xi / (2 * math.pi * h)
    lim = 30.0 * math.sqrt(h)

    def f_re(z):
        return math.cos(-2 * math.pi * z * eta) * gpsi(x + z / 2) * gpsi(x - z / 2)

    def f_im(z):
        return math.sin(-2 * math.pi * z * eta) * gpsi(x + z / 2) * gpsi(x - z / 2)

    re, _ = integrate.quad(f_re, -lim, lim, limit=400)
    im, _ = integrate.quad(f_im, -lim, lim, limit=400)
    rhs = 0.5 * (re + 1j * im)
    return lhs, rhs


def main() -> None:
    print("== basis ==")
    print("psi_3(1, h=1)              ", repr(psi(3, 1.0)))
    print("-1/sqrt(3)                 ", repr(-1.0 / math.sqrt(3.0)))
    print("psi_1(1, h=1)              ", repr(psi(1, 1.0)))
    print("psi_5(0.7, h=0.5)          ", repr(psi(5, 0.7, 0.5)))
    print("psi_8(-1.3, h=2)           ", repr(psi(8, -1.3, 2.0)))
    print("bargman(0.5, 1, h=1)       ", repr(math.exp(0.5 * math.sqrt(2.0) - 0.125)))
    print("L_2^(1)(0.7)               ", repr(float(special.genlaguerre(2, 1)(0.7))))
    print("L_3^(2)(1.9)               ", repr(float(special.genlaguerre(3, 2)(1.9))))
    print("L_5^(0)(4.2)               ", repr(float(special.genlaguerre(5, 0)(4.2))))
    print("<psi_7,psi_7> h=2          ", repr(inner_product_mu(7, 7, 2.0)))
    print("<psi_3,psi_5> h=0.5        ", repr(inner_product_mu(3, 5, 0.5)))

    print("== gaussian ==")
    for p in (1.0, 2.0, 4.0):
        print(f"C_({p},1) closed           ", repr(c_ps(p, 1.0)))
        print(f"C_({p},1) quadrature       ", repr(c_ps_by_quadrature(p, 1.0)))
    print("C_(4,1)*0.25               ", repr(c_ps(4.0, 1.0) * 0.25))
    print("C_(1,1)*0.25               ", repr(c_ps(1.0, 1.0) * 0.25))

    print("== wigner closed values ==")
    for (j, k, x, xi, h) in [
        (0, 1, 1.0, 1.0, 2.0),
        (1, 1, 0.5, 0.5, 1.0),
        (2, 5, 0.3, -0.7, 0.5),
        (3, 1, 0.8, -0.2, 1.0),
        (4, 4, 1.2, 0.7, 2.0),
    ]:
        print(f"W({j},{k})({x},{xi},h={h})  ", repr(wigner_closed(j, k, x, xi, h)))
    print("W def (1,3,z=0.4,zeta=-0.3,h=0.5)", repr(wigner_definition(1, 3, 0.4, -0.3, 0.5)))
    print("W cls (1,3, same)               ", repr(wigner_closed(1, 3, 0.4, -0.3, 0.5)))
    print("W(K_0.3,K_0.2)(1,0), h=1        ", repr(math.exp(-0.06 + math.sqrt(2.0) * 0.5)))
    print("overlap(2,2,h=1)           ", repr(overlap(2, 2, 1.0)))
    print("overlap(2,5,h=1)           ", repr(overlap(2, 5, 1.0)))

    print("== matrix elements ==")
    print("I00 gaussian nu=1 h=1      ", repr(matrix_element_gaussian(0, 0, 1.0, 1.0)))
    print("I11 gaussian nu=2 h=1      ", repr(matrix_element_gaussian(1, 1, 2.0, 1.0)))
    print("closed (1-nu h)^j/(1+nu h)^{j+1}, j=1,nu=2,h=1:", repr(-1.0 / 9.0))
    print("I22 gaussian nu=2 h=1      ", repr(matrix_element_gaussian(2, 2, 2.0, 1.0)))
    print("closed j=2                 ", repr(1.0 / 27.0))
    print("I33 gaussian nu=0.5 h=2    ", repr(matrix_element_gaussian(3, 3, 0.5, 2.0)))
    print("closed j=3 nu=0.5 h=2      ", repr((1 - 1.0) ** 3 / (1 + 1.0) ** 4))
    print("I01 gaussian nu=1 h=1      ", repr(matrix_element_gaussian(0, 1, 1.0, 1.0)))
    print("I02 gaussian nu=1.5 h=0.5  ", repr(matrix_element_gaussian(0, 2, 1.5, 0.5)))
    print("I44 gaussian nu=0.7 h=0.5  ", repr(matrix_element_gaussian(4, 4, 0.7, 0.5)))
    print("closed j=4 nu=0.7 h=0.5    ", repr((1 - 0.35) ** 4 / (1 + 0.35) ** 5))

    print("== nonpos ==")
    q = lambda h, nu, a: (h * a * a / 2.0) * (1 - h * nu * a * a) / (1 + h * nu * a * a) ** 2
    print("Q(1,2,1)                   ", repr(q(1.0, 2.0, 1.0)), "= -1/18 =", repr(-1.0 / 18.0))
    print("Q(0.5,1,2)                 ", repr(q(0.5, 1.0, 2.0)))
    print("Q(2,0.25,1.5)              ", repr(q(2.0, 0.25, 1.5)))

    print("== ipp ==")
    l1, r1 = ipp_sides()
    print("ipp F=x lhs                ", repr(l1), " -i pi/2 =", repr(-1j * math.pi / 2))
    print("ipp F=x rhs                ", repr(r1))
    l2, r2 = ipp_sides_2()
    print("ipp F=x^2 xi lhs           ", repr(l2))
    print("ipp F=x^2 xi rhs           ", repr(r2))
    d, r = rotation_example()
    print("I01(F=x) direct            ", repr(d), " sqrt(h/2) =", repr(math.sqrt(0.5)))
    print("I01(F=x) rotation          ", repr(r))

    print("== heat ==")
    print("heated gauss conv (nu=1,t=0.5) at (0.7,-0.3):", repr(heated_gaussian_by_convolution(1.0, 0.5, 0.7, -0.3)))
    print("closed same:               ", repr(0.5 * math.exp(-0.5 * (0.7**2 + 0.3**2))))
    print("AW I00 nu=1 h=1 quadrature ", repr(heated_I(0, 1.0, 1.0)))
    print("1/3                        ", repr(1.0 / 3.0))
    print("AW I11 nu=2 h=1 quadrature ", repr(heated_I(1, 2.0, 1.0)))
    print("1/(1+2 nu h)^2 = 1/25      ", repr(1.0 / 25.0))

    print("== garding ==")
    g = garding_numbers()
    for k, v in g.items():
        print(f"{k:18s}", mpmath.nstr(v, 20))
    print("sup|H_1|e^{-u^2}           ", repr(hermite_weighted_sup(1)), " sqrt(2)e^{-1/2} =", repr(math.sqrt(2) * math.exp(-0.5)))
    print("sup|H_2|e^{-u^2}           ", repr(hermite_weighted_sup(2)))

    print("== flandrin ==")
    for (j, k) in [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]:
        print(f"M_({j}{k})(inf)             ", repr(flandrin_entry(j, k, math.inf)))
    for n, top in flandrin_quarter_tops(64).items():
        print(f"top M(inf), section {n:<2d}    ", repr(top))
    print("M_00(a=1)                  ", repr(flandrin_entry(0, 0, 1.0)))
    print("M_01(a=1)                  ", repr(flandrin_entry(0, 1, 1.0)))
    print("W_cl direct(0,0)(0.2,0.3)  ", repr(classical_wigner_direct(0, 0, 0.2, 0.3)))
    print("W_cl closed(0,0)(0.2,0.3)  ", repr(classical_wigner_closed(0, 0, 0.2, 0.3)))
    print("W_cl direct(1,2)(0.2,-0.4) ", repr(classical_wigner_direct(1, 2, 0.2, -0.4)))
    print("W_cl closed(1,2)(0.2,-0.4) ", repr(classical_wigner_closed(1, 2, 0.2, -0.4)))
    lb, rb = bridge_check(1, 0.6, -0.4, 0.7)
    print("bridge lhs (j=1,h=0.7)     ", repr(lb))
    print("bridge rhs                 ", repr(rb))

    print("== stochproj ==")
    print("trigamma(5) = tail^2(n=4) of j^-1:", repr(float(special.polygamma(1, 5))))
    print("K=[[.5,.5],[.5,.5]] eigs   ", repr(np.linalg.eigvalsh(np.array([[0.5, 0.5], [0.5, 0.5]]))))


if __name__ == "__main__":
    main()
