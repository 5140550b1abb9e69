"""Symbol families: grammar round-trips, reduced evaluation on R^{2d},
radial profiles, and symbol-class (derivative-bound) metadata."""

import math

import numpy as np
import pytest
from scipy import integrate

from gaussweyl.basis import CalcContext, TruncationSet
from gaussweyl.quadform import assemble_matrix
from gaussweyl.symbols import (
    PhiSpec,
    SymbolDomainError,
    SymbolSyntaxError,
    box_symbol,
    const_symbol,
    custom_symbol,
    cv_class_params,
    eval_ddot,
    gaussian_symbol,
    lemma_epsilon,
    mixture_symbol,
    parse_symbol,
    radial_symbol,
    tensor_radial_symbol,
)
from gaussweyl.symbols import _hermite_weighted_sup

ROUND_TRIPS = [
    "const:c=2.5",
    "gaussian:nu=2.0,anorm=1.5",
    "radial:phi=one,d=3",
    "radial:phi=exp:nu=0.7,d=2",
    "radial:phi=polyexp:1.0,-1.0,d=2",
    "tensorradial:(one,1);(exp:nu=2.0,2)",
    "tensorradial:(polyexp:1.0,0.0,-1.0,2);(exp:nu=1.0,1)",
    "box:a=1.0",
    "box:a=inf",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_parse_round_trip(text):
    sym = parse_symbol(text)
    again = parse_symbol(sym.text())
    assert again == sym
    assert again.text() == sym.text()


def test_parse_syntax_errors_carry_column():
    with pytest.raises(SymbolSyntaxError) as exc:
        parse_symbol("const:c=abc")
    assert exc.value.column == 9
    with pytest.raises(SymbolSyntaxError) as exc:
        parse_symbol("")
    assert exc.value.column == 1
    for bad in [
        "nope:1",
        "gaussian:nu=1",
        "radial:phi=exp:nu=1",
        "radial:phi=one,d=2.5",
        "tensorradial:",
        "tensorradial:(one,1",
        "polyexp:",
    ]:
        with pytest.raises(SymbolSyntaxError):
            parse_symbol(bad)


def test_parse_domain_errors_name_parameter():
    with pytest.raises(SymbolDomainError) as exc:
        parse_symbol("box:a=0")
    assert exc.value.param == "a"
    with pytest.raises(SymbolDomainError) as exc:
        parse_symbol("gaussian:nu=-1,anorm=1")
    assert exc.value.param == "nu"
    with pytest.raises(SymbolDomainError):
        parse_symbol("radial:phi=exp:nu=0,d=1")
    with pytest.raises(SymbolDomainError):
        gaussian_symbol(1.0, 0.0)
    with pytest.raises(SymbolDomainError):
        radial_symbol(PhiSpec(kind="one"), 0)
    with pytest.raises(SymbolDomainError):
        tensor_radial_symbol([])


def test_phispec_profiles():
    one = PhiSpec(kind="one")
    assert one.is_increasing() and one.laplace_mean(3.0) == 1.0
    assert one.exp_terms() == [(1.0, 0.0)]

    dec = PhiSpec(kind="exp", nu=2.0)
    assert not dec.is_increasing()
    assert abs(dec.laplace_mean(1.5) - 1.0 / 4.0) <= 1e-15
    assert dec.exp_terms() == [(1.0, 2.0)]
    assert abs(float(dec.value(0.3)) - math.exp(-0.6)) <= 1e-15

    inc = PhiSpec(kind="polyexp", coeffs=(1.0, -1.0))  # 1 - e^{-t}
    assert inc.is_increasing()
    assert abs(inc.laplace_mean(1.0) - 0.5) <= 1e-15
    assert inc.exp_terms() == [(1.0, 0.0), (-1.0, 1.0)]
    t = np.array([0.0, 0.4, 2.0])
    assert np.max(np.abs(inc.value(t) - (1.0 - np.exp(-t)))) <= 1e-15
    assert np.max(np.abs(inc.derivative(t) - np.exp(-t))) <= 1e-15

    # e^{-t} written in polyexp form is decreasing
    assert not PhiSpec(kind="polyexp", coeffs=(0.0, 1.0)).is_increasing()

    with pytest.raises(SymbolDomainError):
        PhiSpec(kind="exp", nu=0.0)
    with pytest.raises(SymbolDomainError):
        PhiSpec(kind="polyexp")
    with pytest.raises(ValueError):
        PhiSpec(kind="weird")


def test_eval_constant_and_gaussian():
    c = const_symbol(2.5)
    assert eval_ddot(c, [0.3], [0.4]) == 2.5
    g = gaussian_symbol(2.0, 1.5)
    x, xi = 0.3, -0.2
    want = math.exp(-2.0 * 1.5**2 * (x * x + xi * xi))
    assert abs(eval_ddot(g, [x], [xi]) - want) <= 1e-15
    pts = np.array([[0.1], [0.5], [-1.0]])
    out = eval_ddot(g, pts, 0.0 * pts)
    assert out.shape == (3,)
    assert abs(out[1] - math.exp(-2.0 * 2.25 * 0.25)) <= 1e-15


def test_eval_radial_and_tensor():
    phi = PhiSpec(kind="polyexp", coeffs=(1.0, -1.0))
    r = radial_symbol(phi, 2)
    x = np.array([0.3, -0.1])
    xi = np.array([0.2, 0.4])
    t = float(np.sum(x * x + xi * xi))
    assert abs(eval_ddot(r, x, xi) - (1.0 - math.exp(-t))) <= 1e-15

    tr = tensor_radial_symbol([(PhiSpec(kind="exp", nu=1.0), 1), (phi, 2)])
    assert tr.d == 3
    x3 = np.array([0.3, -0.1, 0.5])
    xi3 = np.array([0.2, 0.4, -0.6])
    t1 = x3[0] ** 2 + xi3[0] ** 2
    t2 = float(np.sum(x3[1:] ** 2 + xi3[1:] ** 2))
    want = math.exp(-t1) * (1.0 - math.exp(-t2))
    assert abs(eval_ddot(tr, x3, xi3) - want) <= 1e-15

    with pytest.raises(ValueError):
        eval_ddot(r, x3, xi3)  # wrong dimension

    # radial is the one-part tensorradial, apart from its spelling
    one_part = tensor_radial_symbol([(phi, 2)])
    cloud = np.random.default_rng(5).normal(size=(64, 4))
    assert np.array_equal(eval_ddot(one_part, cloud[:, :2], cloud[:, 2:]), eval_ddot(r, cloud[:, :2], cloud[:, 2:]))
    ctx = CalcContext(h=0.5)
    trunc = TruncationSet(2, 4)
    assert np.array_equal(assemble_matrix(one_part, trunc, ctx).diagonal, assemble_matrix(r, trunc, ctx).diagonal)
    assert one_part.text() == "tensorradial:(polyexp:1.0,-1.0,2)"
    assert r.text() == "radial:phi=polyexp:1.0,-1.0,d=2"


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "phi",
    [PhiSpec(kind="one"), PhiSpec(kind="exp", nu=0.7), PhiSpec(kind="polyexp", coeffs=(1.0, -0.5, 0.25))],
    ids=["one", "exp", "polyexp"],
)
def test_laplace_mean_matches_quadrature(phi, d):
    """laplace_mean(h, d) = (1/h^d) int_0^inf Phi(s) s^{d-1}/(d-1)! e^{-s/h} ds,
    integrated by scipy in u = s/h."""
    h = 0.7
    val, _ = integrate.quad(
        lambda u: float(phi.value(h * u)) * u ** (d - 1) / math.factorial(d - 1) * math.exp(-u),
        0.0, math.inf, epsabs=1e-14, epsrel=1e-13,
    )
    assert abs(phi.laplace_mean(h, d) - val) <= 1e-12


def test_eval_box_half_open_and_h_coupling():
    b = box_symbol(2.0)
    ctx = CalcContext(h=0.5)
    xs = 2.0 * math.pi * 0.5 * 2.0  # x-side length 2 pi h a
    assert eval_ddot(b, [0.0], [0.0], ctx) == 1.0
    assert eval_ddot(b, [xs - 1e-9], [1.999], ctx) == 1.0
    assert eval_ddot(b, [xs], [1.0], ctx) == 0.0  # half-open in x
    assert eval_ddot(b, [1.0], [2.0], ctx) == 0.0  # half-open in xi
    assert eval_ddot(b, [-0.01], [1.0], ctx) == 0.0
    with pytest.raises(ValueError):
        eval_ddot(b, [0.5], [0.5])  # box needs the context
    binf = box_symbol(math.inf)
    assert eval_ddot(binf, [123.0], [456.0], ctx) == 1.0
    assert eval_ddot(binf, [-0.1], [1.0], ctx) == 0.0


def test_eval_mixture_and_custom():
    mix = mixture_symbol([(1.0, {}), (-0.5, {1: 1.0, 2: 2.0})], 2)
    x = np.array([0.4, 0.1])
    xi = np.array([-0.3, 0.2])
    r1 = x[0] ** 2 + xi[0] ** 2
    r2 = x[1] ** 2 + xi[1] ** 2
    want = 1.0 - 0.5 * math.exp(-r1 - 2.0 * r2)
    assert abs(eval_ddot(mix, x, xi) - want) <= 1e-15
    # zero rates are dropped from the stored terms
    assert mixture_symbol([(2.0, {1: 0.0})], 2).mixture_terms == ((2.0, ()),)
    with pytest.raises(SymbolDomainError):
        mixture_symbol([(1.0, {0: 1.0})], 2)
    with pytest.raises(SymbolDomainError):
        mixture_symbol([(1.0, {1: -1.0})], 2)

    cus = custom_symbol(lambda x, xi: x[:, 0] ** 2 + xi[:, 1], 2)
    assert eval_ddot(cus, [1.0, 2.0], [3.0, 4.0]) == 5.0
    with pytest.raises(ValueError):
        cus.text()  # custom symbols have no grammar form


def test_pairwise_radial_flag():
    assert const_symbol(1.0).is_pairwise_radial()
    assert gaussian_symbol(1.0, 1.0).is_pairwise_radial()
    assert radial_symbol(PhiSpec(kind="exp", nu=1.0), 2).is_pairwise_radial()
    assert not box_symbol(1.0).is_pairwise_radial()
    assert not custom_symbol(lambda x, xi: x[:, 0], 1).is_pairwise_radial()
    # tensor products expand into a flat gauss mixture over all blocks
    tr = tensor_radial_symbol(
        [(PhiSpec(kind="polyexp", coeffs=(1.0, -1.0)), 1), (PhiSpec(kind="exp", nu=3.0), 1)]
    )
    mix = tr.gauss_mixture()
    assert sorted(c for c, _ in mix) == [-1.0, 1.0]
    assert {tuple(sorted(nus.items())) for _, nus in mix} == {
        ((2, 3.0),),
        ((1, 1.0), (2, 3.0)),
    }


def test_hermite_sup_constants():
    assert abs(_hermite_weighted_sup(1) - math.sqrt(2.0) * math.exp(-0.5)) <= 1e-12
    assert _hermite_weighted_sup(0) == 1.0
    assert _hermite_weighted_sup(2) == 2.0


@pytest.mark.parametrize("n", range(3, 9))
def test_hermite_sup_matches_scipy_grid(n):
    """The weighted recurrence against scipy's eval_hermite on the same grid."""
    from scipy.special import eval_hermite

    u = np.linspace(-math.sqrt(2.0 * n) - 3.0, math.sqrt(2.0 * n) + 3.0, 400_001)
    want = float(np.max(np.abs(eval_hermite(n, u)) * np.exp(-(u**2))))
    assert abs(_hermite_weighted_sup(n) - want) <= 1e-14 * want


def test_cv_class_params_gaussian():
    params = cv_class_params(gaussian_symbol(2.0, 1.0), 2)
    assert abs(params.M - 16.0) <= 1e-12
    assert params.method == "analytic"
    assert params.summable and params.square_summable
    assert params.eps(3) == lemma_epsilon(3) == 1.0 / 9.0
    with pytest.raises(ValueError):
        lemma_epsilon(0)


def test_cv_class_params_guards():
    with pytest.raises(ValueError):
        cv_class_params(box_symbol(1.0), 2)  # not smooth
    with pytest.raises(ValueError):
        cv_class_params(custom_symbol(lambda x, xi: x[:, 0], 1), 2)  # unbounded
    with pytest.raises(ValueError):
        cv_class_params(gaussian_symbol(1.0, 1.0), -1)
    multi = cv_class_params(radial_symbol(PhiSpec(kind="polyexp", coeffs=(1.0, -1.0)), 2), 1)
    assert multi.method == "analytic-majorant"
    assert multi.M > 1.0
