"""Partial heat flows on symbols, the telescoping decomposition, and the
anti-Wick / hybrid quadratic forms built from them (a hybrid form is the
Weyl form of the symbol heated on some of its pairs)."""

import math
import time

import numpy as np
import pytest

from gaussweyl import gaussian, heat
from gaussweyl.basis import CalcContext, TruncationSet
from gaussweyl.heat import (
    MAX_TS_PAIRS,
    antiwick_form,
    decomposition_residual,
    heat_apply,
    heat_convolution_eval,
    ts_operators,
)
from gaussweyl.quadform import assemble_matrix, matrix_element, quadratic_form
from gaussweyl.symbols import (
    PhiSpec,
    SymbolDescriptor,
    box_symbol,
    custom_symbol,
    eval_ddot,
    gaussian_symbol,
    mixture_symbol,
    radial_symbol,
    tensor_radial_symbol,
)


def heated_diag(j: int, nu: float, h: float) -> float:
    """Anti-Wick diagonal: heat at t = h/2 sends the Weyl diagonal law to
    1 / (1 + 2 nu h)^{j+1}."""
    return 1.0 / (1.0 + 2.0 * nu * h) ** (j + 1)


def test_heated_gaussian_closed_form():
    sym = gaussian_symbol(1.0, 1.0)
    heated = heat_apply(sym, [1], 0.5)
    assert heated.family == "mixture"
    ((amp, pairs),) = heated.mixture_terms
    assert abs(amp - 0.5) <= 1e-15
    assert pairs == ((1, 0.5),)
    got = eval_ddot(heated, [0.7], [-0.3])
    assert abs(got - 0.37413178378928263) <= 1e-12


def test_heated_gaussian_convolution_route():
    """Dual route: quadrature convolution against the closed nu-shift."""
    got = heat_convolution_eval(gaussian_symbol(1.0, 1.0), [1], 0.5, [0.7], [-0.3])
    assert abs(float(got[0]) - 0.37413178378928263) <= 1e-9
    closed = heat_apply(gaussian_symbol(1.0, 1.0), [1], 0.5)
    for x, xi in [(0.0, 0.0), (-0.4, 1.1)]:
        conv = heat_convolution_eval(gaussian_symbol(1.0, 1.0), [1], 0.5, [x], [xi])
        assert abs(float(conv[0]) - eval_ddot(closed, [x], [xi])) <= 1e-8


def test_heated_custom_two_pairs_matches_closed_mixture():
    """Dual route over two heated pairs (a 4-D grid of shifts): the custom
    evaluator of a mixture, convolved, against the mixture's closed nu-shift."""
    mix = mixture_symbol([(1.0, {1: 1.0, 2: 0.5}), (-0.3, {2: 2.0})], 2)
    custom = custom_symbol(lambda xb, xib: eval_ddot(mix, xb, xib), d=2)
    x = np.array([[0.3, -0.7], [1.1, 0.2]])
    xi = np.array([[0.5, 0.1], [-0.4, 0.9]])
    got = heat_convolution_eval(custom, [1, 2], 0.5, x, xi)
    want = eval_ddot(heat_apply(mix, [1, 2], 0.5), x, xi)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_heat_convolution_refuses_shots_over_the_budget():
    """Three heated pairs start the ladder at 32^6 shifts per point, over the
    default budget: refused before any evaluation, not after minutes."""
    custom = custom_symbol(lambda xb, xib: np.exp(-np.sum(xb**2 + xib**2, axis=-1)), d=3)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget exceeded: 32\\^6"):
        heat_convolution_eval(custom, [1, 2, 3], 0.5, [[0.1, 0.2, 0.3]], [[0.0, 0.1, -0.2]])
    assert time.perf_counter() - start < 1.0


def test_heat_convolution_budget_follows_the_environment(monkeypatch):
    """Each shot reads the module's point budget when it runs."""
    monkeypatch.setattr(gaussian, "QUAD_BUDGET", 1000)
    with pytest.raises(ValueError, match="budget exceeded: 32\\^2 = 1024 points"):
        heat_convolution_eval(gaussian_symbol(1.0, 1.0), [1], 0.5, [0.7], [-0.3])


def test_heat_semigroup():
    sym = radial_symbol(PhiSpec(kind="exp", nu=2.0), 2)
    once = heat_apply(sym, [1, 2], 0.7)
    twice = heat_apply(heat_apply(sym, [1, 2], 0.3), [1, 2], 0.4)
    x = np.array([[0.3, -0.5], [1.0, 0.2]])
    xi = np.array([[0.1, 0.4], [-0.7, 0.0]])
    diff = np.asarray(eval_ddot(once, x, xi)) - np.asarray(eval_ddot(twice, x, xi))
    assert np.max(np.abs(diff)) <= 1e-14


def test_heat_partial_pairs_only():
    # heating pair 1 must leave the pair-2 factor untouched
    sym = tensor_radial_symbol(
        [(PhiSpec(kind="exp", nu=1.0), 1), (PhiSpec(kind="exp", nu=3.0), 1)]
    )
    heated = heat_apply(sym, [1], 0.25)
    ((amp, pairs),) = heated.mixture_terms
    assert abs(amp - 1.0 / 1.5) <= 1e-15
    assert pairs == ((1, 1.0 / 1.5), (2, 3.0))


def test_heat_custom_fallback_matches_closed():
    base = custom_symbol(lambda x, xi: np.exp(-(x[:, 0] ** 2 + xi[:, 0] ** 2)), 1)
    heated = heat_apply(base, [1], 0.3)
    closed = heat_apply(gaussian_symbol(1.0, 1.0), [1], 0.3)
    for x, xi in [(0.0, 0.0), (0.8, -0.2)]:
        got = eval_ddot(heated, [x], [xi])
        assert abs(float(np.asarray(got).ravel()[0]) - eval_ddot(closed, [x], [xi])) <= 1e-8


def test_heated_symbol_is_a_symbol():
    """heat_apply returns the heated SymbolDescriptor: the section builders
    take it as it is, box and custom symbols store no mixture, and a box
    is refused at the call."""
    ctx = CalcContext(h=1.0)
    heated = heat_apply(gaussian_symbol(2.0, 1.0), [1], 0.5)
    assert isinstance(heated, SymbolDescriptor)
    diagonal, _ = assemble_matrix(heated, TruncationSet(1, 3), ctx)
    assert np.max(np.abs(diagonal - [heated_diag(j, 2.0, 1.0) for j in range(4)])) <= 1e-15
    e1 = {(1,): 1.0}
    assert abs(quadratic_form(heated, e1, e1, ctx) - heated_diag(1, 2.0, 1.0)) <= 1e-15
    assert box_symbol(1.0).mixture_terms is None
    assert custom_symbol(lambda x, xi: x[:, 0], 1).mixture_terms is None
    with pytest.raises(ValueError, match="refuses box symbols"):
        heat_apply(box_symbol(2.0), [1], 0.4)


def test_heat_apply_guards():
    sym = gaussian_symbol(1.0, 1.0)
    with pytest.raises(ValueError):
        heat_apply(sym, [1], 0.0)
    with pytest.raises(ValueError):
        heat_apply(sym, [2], 0.5)  # pair index beyond d
    # empty pair set is the identity
    assert heat_apply(sym, [], 0.5) is sym


def test_ts_operators_signs_and_counts():
    sym = radial_symbol(PhiSpec(kind="exp", nu=1.0), 2)
    assert [s for s, _ in ts_operators(sym, [], [1, 2])] == [1]
    assert [s for s, _ in ts_operators(sym, [1], [1, 2])] == [1, -1]
    terms = ts_operators(sym, [1, 2], [1, 2])
    assert [s for s, _ in terms] == [1, -1, -1, 1]
    assert [sorted(pairs) for _, pairs in terms] == [[], [1], [2], [1, 2]]
    # J = empty heats exactly the complement Lambda \ J
    ((_, pairs),) = ts_operators(sym, [], [1, 2])
    assert sorted(pairs) == [1, 2]
    with pytest.raises(ValueError):
        ts_operators(sym, [1, 2], [1])
    big = radial_symbol(PhiSpec(kind="one"), 17)
    with pytest.raises(ValueError):
        ts_operators(big, range(1, 18), range(1, 18))


@pytest.mark.parametrize(
    "sym,lam",
    [
        (gaussian_symbol(1.5, 1.0), [1]),
        (radial_symbol(PhiSpec(kind="polyexp", coeffs=(1.0, -1.0)), 2), [1, 2]),
        (
            tensor_radial_symbol(
                [(PhiSpec(kind="exp", nu=1.0), 2), (PhiSpec(kind="exp", nu=0.5), 1)]
            ),
            [1, 2, 3],
        ),
    ],
)
def test_decomposition_telescopes(sym, lam):
    """sum_{J subset of Lambda} T_J S_{Lambda-J} is the identity."""
    ctx = CalcContext(h=0.8)
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 1.2, (24, sym.d))
    xi = rng.normal(0.0, 1.2, (24, sym.d))
    assert decomposition_residual(sym, lam, ctx, (x, xi)) <= 1e-10


def test_residual_refuses_a_large_lambda_before_any_term(monkeypatch):
    """|Lambda| = 17 would expand 3^17 heated terms: the residual is refused
    before ts_operators or heat_apply runs once."""
    calls = []
    monkeypatch.setattr(heat, "heat_apply", lambda *args: calls.append("heat_apply"))
    monkeypatch.setattr(heat, "ts_operators", lambda *args: calls.append("ts_operators") or [])
    sym = radial_symbol(PhiSpec(kind="exp", nu=1.0), MAX_TS_PAIRS + 1)
    x = np.zeros((2, sym.d))
    with pytest.raises(ValueError, match="--lam names 17 pairs; the expansion cap is 16"):
        decomposition_residual(sym, range(1, sym.d + 1), CalcContext(h=1.0), (x, x))
    assert calls == []


def test_antiwick_diagonal_frozen():
    ctx = CalcContext(h=1.0)
    e0 = {(): 1.0}
    e1 = {(1,): 1.0}
    aw00 = antiwick_form(gaussian_symbol(1.0, 1.0), e0, e0, ctx)
    assert abs(aw00 - 1.0 / 3.0) <= 1e-10
    aw11 = antiwick_form(gaussian_symbol(2.0, 1.0), e1, e1, ctx)
    assert abs(aw11 - 0.04) <= 1e-10
    weyl11 = quadratic_form(gaussian_symbol(2.0, 1.0), e1, e1, ctx)
    assert abs(weyl11 - (-1.0 / 9.0)) <= 1e-10
    assert abs(heated_diag(1, 2.0, 1.0) - 0.04) <= 1e-15
    with pytest.raises(ValueError):
        antiwick_form(box_symbol(1.0), e0, e0, ctx)


@pytest.mark.parametrize("h", [0.5, 1.0])
def test_antiwick_positivity_random(h):
    """Nonnegative symbols give nonnegative anti-Wick forms."""
    ctx = CalcContext(h=h)
    syms = [
        gaussian_symbol(1.0, 1.0),
        radial_symbol(PhiSpec(kind="polyexp", coeffs=(1.0, -1.0)), 1),
    ]
    rng = np.random.default_rng(11)
    for sym in syms:
        for _ in range(10):
            coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
            f = {(j,): coeffs[j] for j in range(6)}
            norm_sq = sum(abs(c) ** 2 for c in f.values())
            val = antiwick_form(sym, f, f, ctx)
            assert abs(val.imag) <= 1e-10 * norm_sq
            assert val.real >= -1e-9 * norm_sq


def hybrid_form(sym, e_pairs, f, g, ctx):
    """Weyl in the pairs of e_pairs, anti-Wick outside: the Weyl form of the
    symbol heated at t = h/2 on the other pairs."""
    rest = set(range(1, sym.d + 1)) - set(e_pairs)
    return quadratic_form(heat_apply(sym, rest, ctx.h / 2.0), f, g, ctx)


def test_hybrid_interpolates_weyl_and_antiwick():
    """On e^{-nu (r_1^2 + r_2^2)}, Weyl in pair 1 and anti-Wick in pair 2
    has the Weyl diagonal law in pair 1 times the anti-Wick one in pair 2;
    all pairs Weyl is the Weyl form, none the anti-Wick form."""
    ctx = CalcContext(h=1.0)
    nu = 2.0
    sym = radial_symbol(PhiSpec(kind="exp", nu=nu), 2)
    for j1, j2 in [(0, 0), (1, 0), (0, 2), (3, 1)]:
        f = {(j1, j2): 1.0}
        want = (1.0 - nu) ** j1 / (1.0 + nu) ** (j1 + 1) * heated_diag(j2, nu, 1.0)
        assert abs(hybrid_form(sym, [1], f, f, ctx) - want) <= 1e-12
    f = {(0, 0): 0.6, (1, 1): 0.8}
    assert abs(hybrid_form(sym, [1, 2], f, f, ctx) - quadratic_form(sym, f, f, ctx)) <= 1e-12
    assert abs(hybrid_form(sym, [], f, f, ctx) - antiwick_form(sym, f, f, ctx)) <= 1e-12


def test_hybrid_nesting():
    """hybrid(E1, F) = hybrid(E2, S_{E2-E1} F) for E1 subset of E2."""
    ctx = CalcContext(h=0.7)
    sym = radial_symbol(PhiSpec(kind="exp", nu=1.0), 2)
    f = {(0, 0): 0.5, (1, 1): 0.5, (2, 0): math.sqrt(0.5)}
    lhs = hybrid_form(sym, [], f, f, ctx)  # anti-Wick
    smoothed = heat_apply(sym, [1], ctx.h / 2.0)
    rhs = hybrid_form(smoothed, [1], f, f, ctx)
    assert abs(lhs - rhs) <= 1e-9


def test_antiwick_vs_weyl_on_matrix_elements():
    """Anti-Wick = Weyl after heating every pair at t = h/2, entrywise."""
    ctx = CalcContext(h=1.0)
    sym = gaussian_symbol(1.0, 1.0)
    heated = heat_apply(sym, [1], 0.5)
    for j in range(4):
        idx = (j,)
        got = matrix_element(heated, idx, idx, ctx)
        assert abs(got - heated_diag(j, 1.0, 1.0)) <= 1e-10
