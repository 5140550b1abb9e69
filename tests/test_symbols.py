"""Symbol families: grammar round-trips, reduced evaluation on R^{2d},
radial profiles, and symbol-class (derivative-bound) metadata."""

import math

import numpy as np
import oracles
import pytest
from scipy import integrate

from gaussweyl import symbols
from gaussweyl.basis import CalcContext, TruncationSet
from gaussweyl.heat import heat_apply
from gaussweyl.quadform import ROUTE_CLOSED, assemble_matrix
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
    mixture_symbol,
    parse_symbol,
    radial_symbol,
    tensor_radial_symbol,
)
from gaussweyl.symbols import _H_SUP, _eps_resolver

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


@pytest.mark.parametrize("text, column, message", [
    ("box:a=", 7, "missing value for a"),
    ("const:c", 7, "expected 'c='"),
    ("radial:phi=polyexp:,d=2", 20, "missing coefficients"),
    ("radial:phi=polyexp:1.0,,2.0,d=2", 24, "empty coefficient"),
    ("radial:phi=polyexp:1.0,x,d=2", 24, "expected a real coefficient, got 'x'"),
    ("radial:phi=foo,d=2", 12, "unknown phi spec 'foo'"),
    ("tensorradial:(one)", 18, "expected '(phispec,d)'"),
    ("tensorradial:(one,x)", 19, "expected integer dimension, got 'x'"),
    ("tensorradial:(one,1);", 22, "expected '('"),  # a ';' is followed by a part
])
def test_parse_syntax_error_columns(text, column, message):
    """Each syntax error points at the offending character (1-based)."""
    with pytest.raises(SymbolSyntaxError) as exc:
        parse_symbol(text)
    assert type(exc.value) is SymbolSyntaxError
    assert exc.value.column == column
    assert str(exc.value) == f"syntax error at column {column}: {message}"


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
    for build in (lambda: parse_symbol("tensorradial:(one,0)"), lambda: mixture_symbol([(1.0, {})], 0)):
        with pytest.raises(SymbolDomainError) as exc:
            build()
        assert exc.value.param == "d"
        assert str(exc.value) == "invalid value for 'd': must be >= 1, got 0"


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

    # the same definitions on a seeded cloud, and a three-part product of
    # polyexp profiles Phi(t) = sum_i c_i e^{-i t}
    cloud = np.random.default_rng(11).normal(size=(200, 8))
    t = np.sum(cloud[:, :2] ** 2 + cloud[:, 4:6] ** 2, axis=1)
    assert np.max(np.abs(eval_ddot(r, cloud[:, :2], cloud[:, 4:6]) - (1.0 - np.exp(-t)))) <= 1e-15
    t1 = cloud[:, 0] ** 2 + cloud[:, 4] ** 2
    t2 = np.sum(cloud[:, 1:3] ** 2 + cloud[:, 5:7] ** 2, axis=1)
    want = np.exp(-t1) * (1.0 - np.exp(-t2))
    assert np.max(np.abs(eval_ddot(tr, cloud[:, :3], cloud[:, 4:7]) - want)) <= 1e-15
    three = tensor_radial_symbol([
        (PhiSpec(kind="polyexp", coeffs=(1.0, -0.5, 0.25)), 2),
        (PhiSpec(kind="polyexp", coeffs=(0.5, 1.0)), 1),
        (PhiSpec(kind="polyexp", coeffs=(1.0, 0.0, -1.0)), 1),
    ])
    t1 = np.sum(cloud[:, :2] ** 2 + cloud[:, 4:6] ** 2, axis=1)
    t2 = cloud[:, 2] ** 2 + cloud[:, 6] ** 2
    t3 = cloud[:, 3] ** 2 + cloud[:, 7] ** 2
    want = (1.0 - 0.5 * np.exp(-t1) + 0.25 * np.exp(-2.0 * t1)) * (0.5 + np.exp(-t2)) * (1.0 - np.exp(-2.0 * t3))
    assert np.max(np.abs(eval_ddot(three, cloud[:, :4], cloud[:, 4:]) - want)) <= 1e-15

    with pytest.raises(ValueError):
        eval_ddot(r, x3, xi3)  # wrong dimension

    # radial is the one-part tensorradial, apart from its spelling
    one_part = tensor_radial_symbol([(phi, 2)])
    cloud = np.random.default_rng(5).normal(size=(64, 4))
    assert np.array_equal(eval_ddot(one_part, cloud[:, :2], cloud[:, 2:]), eval_ddot(r, cloud[:, :2], cloud[:, 2:]))
    ctx = CalcContext(h=0.5)
    trunc = TruncationSet(2, 4)
    assert np.array_equal(assemble_matrix(one_part, trunc, ctx)[0], assemble_matrix(r, trunc, ctx)[0])
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
    assert const_symbol(1.0).mixture_terms is not None
    assert gaussian_symbol(1.0, 1.0).mixture_terms is not None
    assert radial_symbol(PhiSpec(kind="exp", nu=1.0), 2).mixture_terms is not None
    assert box_symbol(1.0).mixture_terms is None
    assert custom_symbol(lambda x, xi: x[:, 0], 1).mixture_terms is None
    # tensor products expand into a flat gauss mixture over all blocks
    tr = tensor_radial_symbol(
        [(PhiSpec(kind="polyexp", coeffs=(1.0, -1.0)), 1), (PhiSpec(kind="exp", nu=3.0), 1)]
    )
    mix = tr.mixture_terms
    assert sorted(c for c, _ in mix) == [-1.0, 1.0]
    assert {pairs for _, pairs in mix} == {
        ((2, 3.0),),
        ((1, 1.0), (2, 3.0)),
    }


def test_grammar_symbols_store_their_mixture(monkeypatch):
    """Each smooth grammar symbol expands into its mixture once, when it is
    built: evaluation, the closed law, heat flows and the class norm read the
    stored terms, and the product expansion never runs again."""
    phi = PhiSpec(kind="exp", nu=0.7)
    built = [
        radial_symbol(phi, 2),
        tensor_radial_symbol([(PhiSpec(kind="polyexp", coeffs=(1.0, -0.5)), 1), (PhiSpec(kind="exp", nu=2.0), 2)]),
        gaussian_symbol(2.0, 1.0),
        const_symbol(1.5),
    ]
    # one packing: the grammar constructors store what mixture_symbol stores
    stored = radial_symbol(phi, 2).mixture_terms
    assert stored == mixture_symbol([(c, dict(pairs)) for c, pairs in stored], 2).mixture_terms

    def refuse(*args):
        raise AssertionError("the product expansion ran after construction")

    monkeypatch.setattr(symbols, "iter_product", refuse)
    ctx = CalcContext(h=0.5)
    for sym in built:
        assert sym.mixture_terms
        zeros = np.zeros((3, sym.d))
        assert eval_ddot(sym, zeros, zeros).shape == (3,)
        assert assemble_matrix(sym, TruncationSet(sym.d, 2), ctx)[1]["route"] == ROUTE_CLOSED
        assert heat_apply(sym, [1], 0.5).family == "mixture"
        assert cv_class_params(sym) > 0.0


def test_hermite_sup_constants():
    assert abs(_H_SUP[1] - math.sqrt(2.0) * math.exp(-0.5)) <= 1e-12
    assert _H_SUP[0] == 1.0
    assert _H_SUP[2] == 2.0


def test_cv_class_params_gaussian():
    M = cv_class_params(gaussian_symbol(2.0, 1.0))
    assert abs(M - 16.0) <= 1e-12
    assert _eps_resolver("j^-2")[0](3) == 1.0 / 9.0


def test_cv_class_params_guards():
    with pytest.raises(ValueError):
        cv_class_params(box_symbol(1.0))  # not smooth
    with pytest.raises(ValueError):
        cv_class_params(custom_symbol(lambda x, xi: x[:, 0], 1))  # no derivative bounds


def _oracle_class_norm(nu: float, weights, m: int = 2) -> float:
    """prod over the varying coordinates of max_{a,b<=m} w^{a+b} times the
    derivative sups nu^{n/2} sup|H_n| e^{-u^2}, from the oracle's Hermite sups."""
    sup = [nu ** (n / 2.0) * oracles.hermite_weighted_sup(n) for n in range(m + 1)]
    return math.prod(
        max(w ** (a + b) * sup[a] * sup[b] for a in range(m + 1) for b in range(m + 1))
        for w in weights
    )


def test_cv_class_params_follows_eps():
    """M weights coordinate j by (1/eps_j)^{a+b}: 2^j under 2^-j, j^2 under
    the default; coordinates where the symbol is constant keep weight 1."""
    gauss = gaussian_symbol(2.0, 1.0)
    tensor = parse_symbol("tensorradial:(one,1);(exp:nu=2.0,2)")
    geo_gauss = cv_class_params(gauss, "2^-j")
    assert geo_gauss == pytest.approx(_oracle_class_norm(2.0, [2.0]), rel=1e-9)
    assert geo_gauss == pytest.approx(256.0, rel=1e-12)
    assert _eps_resolver("2^-j")[0](3) == 0.125
    geo_tensor = cv_class_params(tensor, "2^-j")
    assert geo_tensor == pytest.approx(_oracle_class_norm(2.0, [4.0, 8.0]), rel=1e-9)
    assert geo_tensor == pytest.approx(2.0**28, rel=1e-12)
    lemma_tensor = cv_class_params(tensor)
    assert lemma_tensor == pytest.approx(_oracle_class_norm(2.0, [4.0, 9.0]), rel=1e-9)
    assert lemma_tensor == 429981696.0


def test_cv_class_params_zero_eps():
    """eps_j = 0 where the symbol varies puts it in no class; the error names
    the first such coordinate, and constant coordinates never invert eps_j."""
    with pytest.raises(SymbolDomainError, match="coordinate 1") as info:
        cv_class_params(gaussian_symbol(2.0, 1.0), "zero")
    assert info.value.param == "eps"
    with pytest.raises(SymbolDomainError, match="coordinate 2"):
        cv_class_params(parse_symbol("tensorradial:(one,1);(exp:nu=2.0,2)"), "zero")
    assert cv_class_params(const_symbol(2.0), "zero") == 2.0

