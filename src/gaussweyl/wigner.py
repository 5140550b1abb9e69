"""Gaussian Wigner functions for Hermite pairs, plus the classical
(Lebesgue-normalized) Wigner transform they reduce to.

Closed form for the Gaussian-normalized transform, with r^2 = x^2 + xi^2 and
m = |j - k|, lo = min(j, k):

    W(psi_j, psi_k)(x, xi)
        = sqrt(lo!/hi!) (-1)^lo (2/h)^{m/2} w^m L_lo^{(m)}((2/h) r^2),

where w = x + i xi when k >= j and its conjugate otherwise.  The classical
transform is W_cl(u, v)(x, eta) = int e^{-2 i pi z eta} u(x + z/2)
conj(v(x - z/2)) dz; the two are linked by

    e^{-(x^2+xi^2)/h} W_{h,R}(u, v)(x, xi)
        = 1/2 W_cl(gamma u, gamma v)(x, xi / (2 pi h)),

with gamma u(y) = (pi h)^{-1/4} e^{-y^2/2h} u(y).  The classical table is
W_cl(phi_j, phi_k) for phi_j(x) = 2^{1/4} e^{-pi x^2} He_j(2 sqrt(pi) x)/sqrt(j!),
which is gamma psi_j at h = 1/(2 pi).
"""

from __future__ import annotations

import math

import numpy as np

from .basis import CalcContext, _laguerre_normalized, hermite_eval, laguerre_eval
from .gaussian import TENSOR_BLOCK, QuadratureConvergenceError, gh_rule, gl_panel_rule, ladder

# Largest Hermite degree of the classical table on a quadrature rule (finite
# boxes, box sections, the polar check), and of the closed quarter plane.
MAX_FLANDRIN_N = 1024
MAX_QUARTER_N = 4096

# Panel doublings `_checked` tries before it reports a stall.
# Each check certifies the rule it returns, so one doubling reaches twice the
# sized points, the finest rule that a pairwise doubling control certifies
# after two.
MAX_DOUBLINGS = 1

# Gauss-Legendre nodes per panel of every classical rectangle sweep, and of
# the sweep on the same panels that checks it.
PANEL_NODES = 16
CHECK_NODES = 20

# The table's normalized Laguerre rows are reduced TABLE_BLOCK at a time;
# between blocks the last two rows are divided by RESCALE at the points where
# they passed it.  Inside R(N) one step grows a row by less than a factor
# 5000 for N <= MAX_FLANDRIN_N, so no row passes the double range within a
# block.
TABLE_BLOCK = 8
RESCALE = 1e150

# sin(pi m / 4) and e^{i pi m / 4} for m mod 8, exact where they are 0 or +-1.
_R2 = math.sqrt(0.5)
_SIN_EIGHTH = np.array([0.0, _R2, 1.0, _R2, 0.0, -_R2, -1.0, -_R2])
_EIGHTH_ROOTS = np.array([1.0, _R2 + _R2 * 1j, 1j, -_R2 + _R2 * 1j, -1.0, -_R2 - _R2 * 1j, -1j, _R2 - _R2 * 1j])


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


# ---------------------------------------------------------------------------
# Classical side: the table of the 2pi-adapted Hermite functions phi_j.
# ---------------------------------------------------------------------------


def _table_radius(N: int) -> float:
    """R(N): past it every W_cl(phi_j, phi_k), j, k <= N, is below double
    precision (past the Laguerre turning point with a wide margin)."""
    return math.sqrt((4.0 * N + 6.0 * math.sqrt(2.0 * N + 1.0) + 25.0) / (4.0 * math.pi)) + 1.0


def _table_points(N: int, x, eta):
    """The flat points of a classical table of degree N that lie inside R(N):
    (mask, z = 4 pi r^2, log z, angle theta).  The points outside are dropped,
    so the table there is exactly 0 and no row can overflow."""
    x = np.asarray(x, dtype=float).ravel()
    eta = np.asarray(eta, dtype=float).ravel()
    z = 4.0 * math.pi * (x * x + eta * eta)
    keep = z <= 4.0 * math.pi * _table_radius(N) ** 2
    z = z[keep]
    log_z = np.log(z, out=np.full_like(z, -np.inf), where=z > 0.0)
    return keep, z, log_z, np.arctan2(eta[keep], x[keep])


def _diagonal_blocks(m: int, nmax: int, z: np.ndarray, log_z: np.ndarray):
    """Yield (n0, rows, scale) for n0 = 0, TABLE_BLOCK, ...: rows[i] * scale is
    the radial profile of diagonal m of the classical table,

        g_n(z) = sqrt(n!/(n+m)!) z^{m/2} e^{-z/2} L_n^{(m)}(z),   n = n0 + i <= nmax,

    so that W_cl(phi_j, phi_{j+m}) = 2 (-1)^j g_j e^{i m theta}.  The rows are
    the normalized Laguerre rows started at 1 under the per-point scale
    z^{m/2} e^{-z/2} / sqrt(m!), formed in logs.  Where the rows pass RESCALE
    they are divided by it before the next block and the scale is raised
    (`scale` is then a new array).  A block is overwritten by the next one."""
    if m == 0:
        log_scale = -0.5 * z
    else:
        log_scale = 0.5 * m * log_z - 0.5 * z - 0.5 * math.lgamma(m + 1.0)
    scale = np.exp(log_scale)
    rows = np.zeros((TABLE_BLOCK, z.size))
    n0 = 0
    for n, _ in enumerate(_laguerre_normalized(nmax, m, z, 1.0, rows)):
        if n == nmax or n % TABLE_BLOCK == TABLE_BLOCK - 1:
            yield n0, rows[: n + 1 - n0], scale
            n0 = n + 1
            # the recurrence reads its last two rows back from the buffer
            last = rows[TABLE_BLOCK - 2 :]
            big = np.any(np.abs(last) > RESCALE, axis=0)
            if big.any():
                last[:, big] /= RESCALE
                log_scale[big] += math.log(RESCALE)
                scale = np.exp(log_scale)


def _table_sums(N: int, r, w, theta1, theta2) -> np.ndarray:
    """S_jk = int W_cl(phi_j, phi_k) over the arcs theta1(r) <= theta <=
    theta2(r), 0 <= j, k <= N (Hermitian), on a radial rule (nodes r inside
    R(N), weights w of r dr).  Diagonal m is 2 (-1)^j g_j e^{i m theta}, so
    the angle integrates exactly: node p weighs it by w_p (e^{i m theta2_p} -
    e^{i m theta1_p})/(i m), w_p (theta2_p - theta1_p) at m = 0.  Each
    diagonal dots the real rows of `_diagonal_blocks` with the real and
    imaginary parts of those weights, one matrix product per block.  BLAS
    divides a product's rows and columns among its threads, never the point
    axis, so the sums do not depend on the thread count."""
    z = 4.0 * math.pi * r * r
    log_z = np.log(z)
    sign = np.where(np.arange(N + 1) % 2 == 0, 2.0, -2.0)
    S = np.zeros((N + 1, N + 1), dtype=complex)
    for m in range(N + 1):
        arc = w * (np.exp(1j * m * theta2) - np.exp(1j * m * theta1)) / (1j * m) if m else w * (theta2 - theta1) + 0j
        weights = last = None
        for n0, rows, scale in _diagonal_blocks(m, N - m, z, log_z):
            if scale is not last:
                weights, last = (arc * scale).view(float).reshape(-1, 2), scale
            sums = rows @ weights
            j = np.arange(n0, n0 + len(rows))
            S[j, j + m] = sign[j] * (sums[:, 0] + 1j * sums[:, 1])
    return S + np.triu(S, 1).conj().T


def classical_wigner_bridge(j: int, k: int, x, eta, ctx: CalcContext):
    """The classical table through the Gaussian closed form at the supplied h:

        W_cl(phi_j, phi_k)(x, eta)
            = 2 e^{-2 pi (x^2+eta^2)} W_{h,R}(psi_j, psi_k)(c x, c eta),

    with c = sqrt(2 pi h).  The h-dependence cancels identically; evaluating at
    two different h values is the standard self-check.
    """
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    c = math.sqrt(2.0 * math.pi * ctx.h)
    val = wigner_closed(j, k, c * x, c * eta, ctx)
    # in place: a fresh grid-sized product per call costs more in page
    # faults than in arithmetic
    val *= 2.0 * np.exp(-2.0 * math.pi * (x * x + eta * eta))
    return val if np.shape(val) else complex(val)


def classical_wigner_diagonals(N: int, x, eta):
    """Stream the whole classical Wigner table W_cl(phi_j, phi_k), 0<=j<=k<=N,
    evaluated on a flat point set.

    Yields (j, k, values).  One normalized Laguerre sweep per diagonal
    m = k - j (`_diagonal_blocks`) gives every j at once.
    """
    keep, z, log_z, theta = _table_points(N, x, eta)
    for m in range(N + 1):
        phase = np.exp(1j * m * theta)
        for n0, rows, scale in _diagonal_blocks(m, N - m, z, log_z):
            for jj, row in enumerate(rows, start=n0):
                vals = np.zeros(keep.size, dtype=complex)
                vals[keep] = 2.0 * (-1.0) ** jj * row * scale * phase
                yield jj, jj + m, vals


# ---------------------------------------------------------------------------
# Rectangle integrals of the classical table.
# ---------------------------------------------------------------------------


def flandrin_domain_radius(N: int) -> float:
    """Radius beyond which every W_cl(phi_j, phi_k), j,k <= N, is negligible
    (past the Laguerre turning point with a wide margin).  Every table sweep
    starts here, so this is the one check of the degree limit MAX_FLANDRIN_N."""
    if not 0 <= N <= MAX_FLANDRIN_N:
        raise ValueError(f"the classical table needs Hermite degree N in [0, {MAX_FLANDRIN_N}], got {N}")
    return _table_radius(N)


def _axis_points(L: float, N: int) -> int:
    # ~4.8 points per oscillation on the side cut at R(N): zero spacing of the
    # table entries is ~0.44/sqrt(N) in the radius, uniformly over the support.
    L = min(L, flandrin_domain_radius(N))
    return max(48, int(math.ceil(4.8 * L * math.sqrt(N + 1.0))) + 32)


def _polar_points(length, sweep, N: int):
    """Points of a piece of the polar rule: as `_axis_points` per unit of
    `length`, plus N + 1 per radian its arc ends sweep (e^{i m theta} turns
    with them, m <= N), plus 32.  Elementwise over arrays."""
    return 4.8 * length * math.sqrt(N + 1.0) + (N + 1.0) * sweep + 32.0


def _polar_rule(N: int, lx: float, ly: float, nodes: int, refine: int):
    """(r, weights of r dr, theta1(r), theta2(r)) for the rectangle
    [0, lx) x [0, ly) cut at R(N): the circle of radius r meets it in the arc
    arccos(min(1, lx/r)) <= theta <= arcsin(min(1, ly/r)).

    Three pieces end at the short side, the long side and the corner.  Where
    a piece starts at c > 0 an arc end moves with a square-root singularity;
    r = c cosh s removes it (arcsin(c/r) = pi/2 - arctan(sinh s)).  Each
    piece has `refine` times one panel per PANEL_NODES of its `_polar_points`,
    with `nodes` Gauss-Legendre nodes in s; the edges are placed where the
    count, tabulated in s, passes equal steps."""
    R = flandrin_domain_radius(N)

    def arc(r):
        with np.errstate(divide="ignore"):  # r = 0 meets the whole quarter
            return np.arccos(np.minimum(1.0, lx / r)), np.arcsin(np.minimum(1.0, ly / r))

    t, v = np.polynomial.legendre.leggauss(nodes)
    pieces = []
    start, width = 0.0, math.pi / 2.0
    for end in sorted(min(e, R) for e in (lx, ly, math.hypot(lx, ly))):
        if end <= start:
            continue
        s = np.linspace(0.0, math.acosh(end / start) if start else end, 4097)
        rs = start * np.cosh(s) if start else s
        theta1, theta2 = arc(rs)
        spent = _polar_points(rs - start, width - (theta2 - theta1), N)
        panels = refine * math.ceil(spent[-1] / PANEL_NODES)
        edges = np.interp(np.linspace(spent[0], spent[-1], panels + 1), spent, s)
        half = 0.5 * (edges[1:] - edges[:-1])
        s = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * t).ravel()
        ws = (half[:, None] * v).ravel()
        if start:
            s, ws = start * np.cosh(s), ws * start * np.sinh(s)
        pieces.append((s, ws))
        start, width = end, float(theta2[-1] - theta1[-1])
    r, w = map(np.concatenate, zip(*pieces))
    return r, w * r, *arc(r)


def _polar_sweep(N: int, lx: float, ly: float, refine: int = 1, nodes=None):
    """(M, points): M_jk = int_{[0,lx) x [0,ly)} W_cl(phi_j, phi_k) du dv,
    0 <= j,k <= N, in one table sweep on `_polar_rule` (`nodes` per panel,
    default PANEL_NODES), and the rule's radial points."""
    r, w, theta1, theta2 = _polar_rule(N, lx, ly, nodes or PANEL_NODES, refine)
    return _table_sums(N, r, w, theta1, theta2), r.size


def _bridge_sweep(N: int, lx: float, ly: float, ctx: CalcContext, refine: int = 1, nodes=None):
    """(M, points): the matrix of `_polar_sweep` from the h-dependent Gaussian
    bridge at ctx.h instead, pair by pair, on a 2-D panel grid
    (`_axis_points` per side cut at R(N)): the independent route."""
    R = flandrin_domain_radius(N)
    nodes = nodes or PANEL_NODES
    rules = {L: gl_panel_rule(0.0, min(L, R), refine * math.ceil(_axis_points(L, N) / PANEL_NODES), nodes)
             for L in {lx, ly}}  # one rule for both sides of a square
    x = np.repeat(rules[lx].nodes, rules[ly].nodes.size)
    y = np.tile(rules[ly].nodes, rules[lx].nodes.size)
    w = np.multiply.outer(rules[lx].weights, rules[ly].weights).ravel()
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for j in range(N + 1):
        for k in range(j, N + 1):
            vals = classical_wigner_bridge(j, k, x, y, ctx)
            vals *= w
            # numpy's pairwise sum: its order does not depend on the thread count
            M[j, k] = np.sum(vals)
            M[k, j] = np.conjugate(M[j, k])
    return M, x.size


def _checked(sweep, N: int, lx: float, ly: float, *args):
    """`sweep(N, lx, ly, *args, refine, nodes)` on PANEL_NODES-node panels,
    checked by the sweep on the same panels with CHECK_NODES nodes.  Only
    while the two disagree entrywise by more than 1e-9 are the panels
    doubled.  Returns (M, points, agreement) of the accepted PANEL_NODES
    sweep; raises QuadratureConvergenceError after MAX_DOUBLINGS."""
    for doubling in range(MAX_DOUBLINGS + 1):
        refine = 2**doubling
        M, points = sweep(N, lx, ly, *args, refine, PANEL_NODES)
        check, _ = sweep(N, lx, ly, *args, refine, CHECK_NODES)
        agreement = float(np.max(np.abs(M - check)))
        if agreement <= 1e-9:
            return M, points, agreement
    raise QuadratureConvergenceError(
        f"panel doubling stalled at {agreement:.3e} > 1e-9 at {refine}x the sized panels"
    )


def _polar_desc(N: int, lx: float, ly: float, points: int, checked: bool) -> str:
    """The report's description of a polar rule of `points` radial points."""
    L = min(math.hypot(lx, ly), flandrin_domain_radius(N))
    spec = f"exact arc, radial GL panels on [0,{L:.6g}], {points} pts, {PANEL_NODES} nodes/panel"
    return spec + (f", checked against {CHECK_NODES} nodes/panel" if checked else "")


# ---------------------------------------------------------------------------
# The quarter plane in closed form.
# ---------------------------------------------------------------------------


def _quarter_plane(N: int) -> np.ndarray:
    """The quarter-plane matrix M(inf), 0 <= j,k <= N, as the real symmetric
    R = D M D*, D = diag(e^{i pi j/4}), which has the same spectrum.

    With m = k - j >= 0 the entry is M_jk = e^{i m pi/4} s_m c_m u_j, where
    e^{i m pi/4} s_m = int_0^{pi/2} e^{i m theta} d theta, s_m = 2 sin(m pi/4)/m
    (pi/2 at m = 0), c_m = Gamma(m/2+1) 2^{m/2+1} / (4 pi sqrt(m!)) and u_j is the normalized
    2F1(-j, m/2+1; m+1; 2) of the exact radial integral, from Gauss's
    contiguous relation:

        u_0 = 1,  u_n = (u_{n-1} + sqrt((n-1)(n-1+m)) u_{n-2}) / sqrt(n (n+m)).

    So R_jk = s_m c_m u_j: exactly 0 at m = 0 mod 4, m > 0, and 1/4 on the
    diagonal.  No quadrature runs.
    """
    if not 0 <= N <= MAX_QUARTER_N:
        raise ValueError(f"the closed quarter plane needs Hermite degree N in [0, {MAX_QUARTER_N}], got {N}")
    m = np.arange(N + 1)
    log_c = [math.lgamma(k / 2.0 + 1.0) + (k / 2.0 + 1.0) * math.log(2.0) - 0.5 * math.lgamma(k + 1.0)
             for k in range(N + 1)]
    angle = np.where(m == 0, math.pi / 2.0, 2.0 * _SIN_EIGHTH[m % 8] / np.maximum(m, 1))
    coef = angle * np.exp(log_c) / (4.0 * math.pi)
    R = np.empty((N + 1, N + 1))
    prev, u = np.zeros(N + 1), np.ones(N + 1)
    for n in range(N + 1):
        L = N + 1 - n
        if n:
            mm = m[:L]
            prev, u = u[:L], (u[:L] + np.sqrt((n - 1.0) * (n - 1.0 + mm)) * prev[:L]) / np.sqrt(n * (n + mm))
        R[n, n:] = R[n:, n] = coef[:L] * u
    return R


def _quarter_plane_matrix(N: int) -> np.ndarray:
    """M(inf) = D* R D in closed form (see `_quarter_plane`); the leading
    block of the degree-N matrix is the matrix of that degree, bit for bit."""
    d = _EIGHTH_ROOTS[np.arange(N + 1) % 8]
    return _quarter_plane(N) * np.multiply.outer(d.conj(), d)


def _box_matrix(N: int, lx: float, ly: float):
    """(M, points, agreement) of `_checked` for M_jk = int_{[0,lx) x [0,ly)}
    W_cl(phi_j, phi_k), 0 <= j,k <= N, from the polar sweep, or from the closed
    quarter plane (0 points, agreement 0.0) when both sides are infinite."""
    if math.isinf(lx) and math.isinf(ly):
        return _quarter_plane_matrix(N), 0, 0.0
    return _checked(_polar_sweep, N, lx, ly)
