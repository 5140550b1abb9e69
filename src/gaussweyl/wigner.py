"""Gaussian Wigner functions for Hermite pairs and Bargman kernels, plus the
classical (Lebesgue-normalized) Wigner transform they reduce to.

Closed form for the Gaussian-normalized transform, with r^2 = x^2 + xi^2 and
m = |j - k|, lo = min(j, k):

    W(psi_j, psi_k)(x, xi)
        = sqrt(lo!/hi!) (-1)^lo (2/h)^{m/2} w^m L_lo^{(m)}((2/h) r^2),

where w = x + i xi when k >= j and its conjugate otherwise.  The classical
transform is W_cl(u, v)(x, eta) = int e^{-2 i pi z eta} u(x + z/2)
conj(v(x - z/2)) dz; the two are linked by

    e^{-(x^2+xi^2)/h} W_{h,R}(u, v)(x, xi)
        = 1/2 W_cl(gamma u, gamma v)(x, xi / (2 pi h)).
"""

from __future__ import annotations

import math

import numpy as np

from .basis import CalcContext, MultiIndex, _laguerre_rows, hermite_eval, laguerre_eval
from .gaussian import TENSOR_BLOCK, QuadratureConvergenceError, gh_rule, gl_panel_rule, integrate_tensor, ladder

# e^{-z/2} is below double precision past this; points there are masked to 0
# before any power/Laguerre evaluation so no overflow can occur.
Z_CUT = 1380.0

# Largest degree of the classical table: above it the separate zeta**m and
# lgamma prefactor of `classical_wigner_diagonals` can overflow.
MAX_FLANDRIN_N = 128

# Panel doublings `_classical_rect_doubled` tries before it reports a stall.
MAX_DOUBLINGS = 2

# Gauss-Legendre nodes per panel of every classical rectangle sweep.
PANEL_NODES = 16


def wigner_closed(j: int, k: int, x, xi, ctx: CalcContext):
    """Closed-form W_{h,R}(psi_j, psi_k)(x, xi); vectorized over x, xi."""
    if j < 0 or k < 0:
        raise ValueError("degrees must be nonnegative")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lo, hi = min(j, k), max(j, k)
    m = hi - lo
    r2 = x * x + xi * xi
    lag = laguerre_eval(lo, m, 2.0 / ctx.h * r2)
    pref = (
        math.exp(0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1)))
        * (-1.0) ** lo
        * (2.0 / ctx.h) ** (m / 2.0)
    )
    w = x + 1j * xi if k >= j else x - 1j * xi
    val = pref * lag * w**m
    return val if np.shape(val) else complex(val)


def wigner_on_rule(fhat, ghat, z, zeta, ctx: CalcContext, rule):
    """W_{h,R}(fhat, ghat)(z, zeta) by the given Gauss-Hermite rule of
    mu_{R,h/2} applied to the defining integral

        e^{zeta^2/h} int e^{-2 i zeta t / h} fhat(z+t) conj(ghat(z-t)) dmu_{R,h/2}(t);

    vectorized over the points (z, zeta), in blocks of at most TENSOR_BLOCK
    (point, node) pairs.  The factor e^{zeta^2/h} amplifies the rule's error,
    so the route is accurate only where zeta^2/h is moderate.
    """
    h = ctx.h
    z, zeta = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(zeta, dtype=float))
    zs = z.reshape(-1, 1)
    zetas = zeta.reshape(-1, 1)
    t = rule.nodes
    out = np.empty(len(zs), dtype=complex)
    rows = max(1, TENSOR_BLOCK // t.size)
    for lo in range(0, len(zs), rows):
        zc, zetac = zs[lo : lo + rows], zetas[lo : lo + rows]
        vals = np.exp(-2j * zetac * t / h) * np.asarray(fhat(zc + t)) * np.conjugate(np.asarray(ghat(zc - t)))
        out[lo : lo + rows] = (vals @ rule.weights) * np.exp(zetac[:, 0] ** 2 / h)
    return out.reshape(z.shape) if z.shape else complex(out[0])


def wigner_quadrature(fhat, ghat, z: float, zeta: float, ctx: CalcContext):
    """W_{h,R}(fhat, ghat)(z, zeta) by quadrature of the defining integral
    (see `wigner_on_rule`), the order raised on the standard ladder until two
    successive orders agree.
    """
    val, _ = ladder(lambda n: wigner_on_rule(fhat, ghat, z, zeta, ctx, gh_rule(n, ctx.h / 2.0)))
    return val


def wigner_hermite_quadrature(j: int, k: int, z: float, zeta: float, ctx: CalcContext):
    """wigner_quadrature specialized to a Hermite pair (psi_j, psi_k)."""
    return wigner_quadrature(
        lambda t: hermite_eval(j, t, ctx), lambda t: hermite_eval(k, t, ctx), z, zeta, ctx
    )


def wigner_tensor(alpha: MultiIndex, beta: MultiIndex, X, ctx: CalcContext) -> complex:
    """Product over coordinates of 1-D closed forms, at X = (x_1..x_d, xi_1..xi_d)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 1 or X.size % 2 != 0:
        raise ValueError("X must be a flat vector (x_1..x_d, xi_1..xi_d)")
    d = X.size // 2
    if alpha.max_coordinate() > d or beta.max_coordinate() > d:
        raise ValueError(f"multi-index support exceeds dimension {d}")
    val = 1.0 + 0.0j
    for i in sorted(set(alpha.support()) | set(beta.support())):
        val *= wigner_closed(alpha.degree(i), beta.degree(i), X[i - 1], X[d + i - 1], ctx)
    return val


def wigner_bargman(u: complex, v: complex, x: float, xi: float, ctx: CalcContext) -> complex:
    """Wigner function of a Bargman-kernel pair:
    exp(-u v + sqrt(2/h) x (u + v) + i sqrt(2/h) xi (v - u))."""
    c = math.sqrt(2.0 / ctx.h)
    return complex(np.exp(-u * v + c * x * (u + v) + 1j * c * xi * (v - u)))


def overlap(j: int, k: int, ctx: CalcContext) -> float:
    """int W(psi_j, psi_k) dmu_{R^2,h/2}; equals delta_{jk}."""

    def value(n: int) -> complex:
        rule = gh_rule(n, ctx.h / 2.0)
        return integrate_tensor(lambda pts: wigner_closed(j, k, pts[:, 0], pts[:, 1], ctx), rule, 2)

    val, _ = ladder(value, start=max(48, j + k + 16))
    return val.real if abs(val.imag) < 1e-12 else val


# ---------------------------------------------------------------------------
# Classical side: 2pi-adapted Hermite functions and the classical transform.
# ---------------------------------------------------------------------------


def classical_hermite(j: int, x):
    """phi_j(x) = 2^{1/4} e^{-pi x^2} He_j(2 sqrt(pi) x)/sqrt(j!): the Hermite
    basis adapted to the e^{-2 i pi z eta} transform (gamma psi_j at h = 1/(2 pi))."""
    h0 = 1.0 / (2.0 * math.pi)
    x = np.asarray(x, dtype=float)
    return (
        (math.pi * h0) ** (-0.25)
        * np.exp(-math.pi * x * x)
        * hermite_eval(j, x, CalcContext(h=h0))
    )


def _classical_setup(x, eta):
    """Flat points of the classical table: z = 4 pi r^2, e^{-z/2} and
    zeta = 2 sqrt(pi) (x + i eta), so that zeta^m = (4 pi)^{m/2} w^m.  Points
    with z > Z_CUT are masked (e^{-z/2} and zeta set to 0) before any power or
    Laguerre row is formed, so nothing overflows."""
    x = np.asarray(x, dtype=float).ravel()
    eta = np.asarray(eta, dtype=float).ravel()
    z = 4.0 * math.pi * (x * x + eta * eta)
    mask = z <= Z_CUT
    e_half = np.where(mask, np.exp(-np.minimum(z, Z_CUT) / 2.0), 0.0)
    zeta = np.where(mask, 2.0 * math.sqrt(math.pi) * (x + 1j * eta), 0.0)
    return z, e_half, zeta


def _classical_prefactor(lo: int, m: int) -> float:
    """2 sqrt(lo!/(lo+m)!) (-1)^lo, the table's factor beyond zeta^m e^{-z/2} L."""
    return 2.0 * math.exp(0.5 * (math.lgamma(lo + 1) - math.lgamma(lo + m + 1))) * (-1.0) ** lo


def classical_wigner_closed(j: int, k: int, x, eta):
    """W_cl(phi_j, phi_k)(x, eta) in closed form: the h-free classical table.

    Equal to 2 e^{-2 pi r^2} sqrt(lo!/hi!) (-1)^lo (4 pi)^{m/2} w^m
    L_lo^{(m)}(4 pi r^2); independent of any semiclassical parameter.  The
    Laguerre factor is the damped row e^{-z/2} L_lo^{(m)}(z), z = 4 pi r^2.
    """
    x, eta = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(eta, dtype=float))
    z, e_half, zeta = _classical_setup(x, eta)
    lo, m = min(j, k), abs(j - k)
    for g in _laguerre_rows(lo, m, z, e_half):
        pass
    w = zeta if k >= j else np.conjugate(zeta)
    val = (_classical_prefactor(lo, m) * g * w**m).reshape(x.shape)
    return val if x.shape else complex(val)


def classical_wigner_bridge(j: int, k: int, x, eta, ctx: CalcContext):
    """Same table evaluated through the Gaussian closed form at the supplied h:

        W_cl(phi_j, phi_k)(x, eta)
            = 2 e^{-2 pi (x^2+eta^2)} W_{h,R}(psi_j, psi_k)(c x, c eta),

    with c = sqrt(2 pi h).  The h-dependence cancels identically; evaluating at
    two different h values is the standard self-check.
    """
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    c = math.sqrt(2.0 * math.pi * ctx.h)
    val = 2.0 * np.exp(-2.0 * math.pi * (x * x + eta * eta)) * wigner_closed(
        j, k, c * x, c * eta, ctx
    )
    return val if np.shape(val) else complex(val)


def classical_wigner_direct(u, v, x: float, eta: float) -> complex:
    """W_cl(u, v)(x, eta) by direct 400-node Gauss-Legendre quadrature in z on
    [-30, 30] (reference/cross-check path; u, v vectorized callables on R)."""
    t, w = np.polynomial.legendre.leggauss(400)
    z = 30.0 * t
    wz = 30.0 * w
    vals = (
        np.exp(-2j * math.pi * z * eta)
        * np.asarray(u(x + z / 2.0))
        * np.conjugate(np.asarray(v(x - z / 2.0)))
    )
    return complex(np.sum(vals * wz))


def classical_wigner_diagonals(N: int, x, eta):
    """Stream the whole classical Wigner table W_cl(phi_j, phi_k), 0<=j<=k<=N,
    evaluated on a flat point set.

    Yields (j, k, values).  One damped Laguerre sweep per diagonal m = k - j
    gives e^{-z/2} L_j^{(m)}(z), z = 4 pi r^2, for every j at once.
    """
    z, e_half, zeta = _classical_setup(x, eta)
    for m in range(N + 1):
        pw = zeta**m
        for jj, g in enumerate(_laguerre_rows(N - m, m, z, e_half)):
            yield jj, jj + m, _classical_prefactor(jj, m) * g * pw


# ---------------------------------------------------------------------------
# Rectangle integrals of the classical table.
# ---------------------------------------------------------------------------


def flandrin_domain_radius(N: int) -> float:
    """Radius beyond which every W_cl(phi_j, phi_k), j,k <= N, is negligible
    (past the Laguerre turning point with a wide margin).  Every table sweep
    starts here, so this is the one check of the degree limit MAX_FLANDRIN_N."""
    if not 0 <= N <= MAX_FLANDRIN_N:
        raise ValueError(f"the classical table needs Hermite degree N in [0, {MAX_FLANDRIN_N}], got {N}")
    return math.sqrt((4.0 * N + 6.0 * math.sqrt(2.0 * N + 1.0) + 25.0) / (4.0 * math.pi)) + 1.0


def _axis_points(L: float, N: int) -> int:
    # ~4.8 points per oscillation on the side cut at R(N): zero spacing of the
    # table entries is ~0.44/sqrt(N) in the radius, uniformly over the support.
    L = min(L, flandrin_domain_radius(N))
    return max(48, int(math.ceil(4.8 * L * math.sqrt(N + 1.0))) + 32)


def _grid(rule_x, rule_y):
    x = np.repeat(rule_x.nodes, rule_y.nodes.size)
    y = np.tile(rule_y.nodes, rule_x.nodes.size)
    w = np.multiply.outer(rule_x.weights, rule_y.weights).ravel()
    return x, y, w


def _quarter_angle(m: int) -> complex:
    """int_0^{pi/2} e^{i m theta} d theta."""
    return complex(math.pi / 2.0) if m == 0 else (np.exp(0.5j * math.pi * m) - 1.0) / (1j * m)


def _panel_rule(L: float, points: int):
    return gl_panel_rule(0.0, L, max(3, math.ceil(points / PANEL_NODES)), PANEL_NODES)


def _classical_rect(N: int, lx: float, ly: float, points=None, bridge_ctx=None) -> np.ndarray:
    """M_jk = int_{[0,lx) x [0,ly)} W_cl(phi_j, phi_k) du dv, 0 <= j,k <= N, in
    one table sweep on Gauss-Legendre panels of PANEL_NODES nodes (`points` =
    (px, py) per axis).

    Each side is cut at R(N), past which the table is below double precision.
    The quarter plane (both sides inf) separates in polar coordinates,
    W_cl(r, theta) = W_cl(r, 0) e^{i m theta} with m = k - j, into an exact
    angle factor times one radial rule of px points on [0, R(N)].  With
    bridge_ctx the values come from the h-dependent Gaussian bridge on the
    2-D grid instead of the h-free table.
    """
    px, py = points or (_axis_points(lx, N), _axis_points(ly, N))
    polar = math.isinf(lx) and math.isinf(ly) and bridge_ctx is None
    R = flandrin_domain_radius(N)
    lx, ly = min(lx, R), min(ly, R)
    if polar:
        rule = _panel_rule(R, px)
        x, y, w = rule.nodes, np.zeros_like(rule.nodes), rule.weights * rule.nodes
    else:
        rule_x = _panel_rule(lx, px)
        rule_y = rule_x if (ly, py) == (lx, px) else _panel_rule(ly, py)
        x, y, w = _grid(rule_x, rule_y)
        w = w.astype(complex)
    if bridge_ctx is None:
        entries = classical_wigner_diagonals(N, x, y)
    else:
        pairs = ((j, k) for j in range(N + 1) for k in range(j, N + 1))
        entries = ((j, k, classical_wigner_bridge(j, k, x, y, bridge_ctx)) for j, k in pairs)
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for j, k, vals in entries:
        s = complex(np.dot(vals, w))
        M[j, k] = _quarter_angle(k - j) * s if polar else s
        M[k, j] = np.conjugate(M[j, k])
    return M


def _classical_rect_doubled(N: int, lx: float, ly: float, bridge_ctx=None):
    """`_classical_rect` with the points on both axes doubled until two sweeps
    agree entrywise to 1e-9 (each axis starts from at least 3 panels, so every
    doubling refines both rules).  Returns (M, (px, py), agreement) of the
    last sweep; raises QuadratureConvergenceError after MAX_DOUBLINGS."""
    px = max(_axis_points(lx, N), 3 * PANEL_NODES)
    py = max(_axis_points(ly, N), 3 * PANEL_NODES)
    M = _classical_rect(N, lx, ly, (px, py), bridge_ctx)
    agreement = math.inf
    for _ in range(MAX_DOUBLINGS):
        px, py = 2 * px, 2 * py
        M, prev = _classical_rect(N, lx, ly, (px, py), bridge_ctx), M
        agreement = float(np.max(np.abs(M - prev)))
        if agreement <= 1e-9:
            return M, (px, py), agreement
    raise QuadratureConvergenceError(
        f"panel doubling stalled at {agreement:.3e} > 1e-9 ({px}, {py} pts per axis)"
    )
