import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectracube.expr import (
    BinOp,
    Call,
    Const,
    ExprError,
    Neg,
    Var,
    evaluate,
    parse,
    to_callable,
)

from oracles import print_expr


def ev(src, x=0.0, y=0.0, z=0.0):
    return evaluate(parse(src), x, y, z)


def test_single_variable():
    ast = parse("x")
    assert isinstance(ast, Var) and ast.name == "x"


def test_sqrt_coefficient():
    assert ev("sqrt(x+y+z+42)", 1, 1, 1) == pytest.approx(math.sqrt(45))


def test_cosine_coefficient_at_zero():
    assert ev("5-3*cos(pi*5*x/2)", 0) == pytest.approx(2.0)


def test_constant_and_simple_power():
    assert ev("7", 3, 2, 1) == 7.0
    assert ev("x^2*y", 2, 3, 0) == pytest.approx(12.0)


def test_rank2_coefficient_at_origin():
    assert ev("(1+x^2)*(1+y^2)*(1+z^2)+exp(x+y+z)") == pytest.approx(2.0)


def test_power_binds_tighter_than_unary_minus():
    assert ev("-x^2", 3) == -9.0
    assert ev("(-x)^2", 3) == 9.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_unary_minus_in_exponent():
    assert ev("2^-2") == 0.25


def test_constants():
    assert ev("pi") == pytest.approx(math.pi)
    assert ev("e") == pytest.approx(math.e)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(ExprError, match="unknown identifier 'foo'"):
        parse("foo(3)")


def test_unexpected_character():
    with pytest.raises(ExprError):
        parse("1 ? 2")


def test_division_by_zero_is_an_error():
    with pytest.raises(ExprError, match="division by zero"):
        ev("1/x", 0.0)


def test_sqrt_of_negative_is_domain_error():
    with pytest.raises(ExprError, match="domain error"):
        ev("sqrt(x)", -1.0)


def test_function_overflow_is_an_error_with_offset():
    with pytest.raises(ExprError, match=r"^overflow in exp\(1000\.0\) \(at offset 2\)$"):
        ev("1+exp(1000*x)", 1.0)


def test_print_parse_idempotent():
    sources = [
        "x", "sqrt(x+y+z+42)", "5-3*cos(pi*5*x/2)", "-x^2*y+z/4",
        "(1+x^2)*(1+y^2)*(1+z^2)+exp(x+y+z)", "2^3^2", "abs(x-y)",
    ]
    for src in sources:
        once = print_expr(parse(src))
        twice = print_expr(parse(once))
        assert once == twice


@pytest.mark.parametrize(
    "src,closure",
    [
        ("sqrt(x+y+z+42)", lambda x, y, z: np.sqrt(x + y + z + 42)),
        (
            "(5-3*cos(pi*5*x/2))^2",
            lambda x, y, z: (5 - 3 * np.cos(np.pi * 5 * x / 2)) ** 2,
        ),
        (
            "(1+x^2)*(1+y^2)*(1+z^2)+exp(x+y+z)",
            lambda x, y, z: (1 + x**2) * (1 + y**2) * (1 + z**2) + np.exp(x + y + z),
        ),
        (
            "sin(pi/2*(x+1))*sin(pi/2*(y+1))*sin(pi/2*(z+1))",
            lambda x, y, z: np.sin(np.pi / 2 * (x + 1))
            * np.sin(np.pi / 2 * (y + 1))
            * np.sin(np.pi / 2 * (z + 1)),
        ),
    ],
)
def test_eval_matches_closures_on_random_points(src, closure):
    ast = parse(src)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (1000, 3))
    got = to_callable(ast)(pts[:, 0], pts[:, 1], pts[:, 2])
    want = closure(pts[:, 0], pts[:, 1], pts[:, 2])
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) < 1e-15


def test_ast_shape_of_call():
    ast = parse("sqrt(x+y+z+42)")
    assert isinstance(ast, Call) and ast.func == "sqrt"
    assert isinstance(ast.arg, BinOp)


def test_neg_and_const_nodes():
    ast = parse("-3")
    assert isinstance(ast, Neg) and isinstance(ast.operand, Const)


# --- vectorized evaluation against the scalar oracle --------------------------


def _scalar_loop(ast, xs, ys, zs):
    """The point-by-point reference: values, or the first exception raised."""
    try:
        return np.array([evaluate(ast, *map(float, p)) for p in zip(xs, ys, zs)])
    except ExprError as exc:
        return exc


def _vectorized(ast, xs, ys, zs):
    try:
        return to_callable(ast)(xs, ys, zs)
    except ExprError as exc:
        return exc


@pytest.mark.parametrize(
    "src, offset",
    [
        ("1/(x-x)", 1),
        ("sqrt(x-5)", 0),
        ("0^(-1)", 1),
        ("(-8)^(1/3)", 4),
        ("1/(1/(x-x))", 4),  # finite at the end, a division by zero inside
        ("2+exp(1000*x)", 2),
    ],
)
def test_vectorized_failure_matches_scalar_error(src, offset):
    ast = parse(src)
    xs = np.linspace(-1.0, 1.0, 7)
    want = _scalar_loop(ast, xs, xs, xs)
    got = _vectorized(ast, xs, xs, xs)
    assert isinstance(want, ExprError) and want.offset == offset
    assert type(got) is type(want) and got.offset == want.offset
    assert str(got) == str(want)


_leaves = st.one_of(
    st.sampled_from([Var("x"), Var("y"), Var("z")]),
    # millesimal constants print without an exponent, which parse rejects
    st.integers(-4000, 4000).map(lambda k: Const(k / 1000)),
)
_asts = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), sub).map(
            lambda t: Call(*t)
        ),
        st.tuples(st.sampled_from(list("+-*/^")), sub, sub).map(lambda t: BinOp(*t)),
    ),
    max_leaves=8,
)
_points = st.lists(
    st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 3), min_size=1, max_size=6
)


@settings(max_examples=300, deadline=None)
@given(_asts, _points)
def test_vectorized_agrees_with_scalar_evaluate(tree, points):
    # reparse the printed tree so that every node carries a distinct offset
    ast = parse(print_expr(tree))
    xs, ys, zs = (np.array(c) for c in zip(*points))
    want = _scalar_loop(ast, xs, ys, zs)
    got = _vectorized(ast, xs, ys, zs)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert getattr(got, "offset", None) == getattr(want, "offset", None)
        return
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    finite = np.isfinite(want)
    npt.assert_array_equal(got[~finite], want[~finite])
    npt.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12)
