import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glset.expressions import (Add, Call, DivOp, ExpressionError,
                               ExpressionFunctional, Mul, Neg, Num, PowInt, Sub,
                               Xi, ZERO, diff, evaluate, parse_expression,
                               simplify, to_string)
from glset.functionals import fd_gradient


class TestParser:
    def test_coordinate_and_arithmetic(self):
        p = parse_expression("norm2() - 2*xi(1)")
        assert p.ast == Sub(Call("norm2", ()), Mul(Num(2.0), Xi(1)))
        assert p.max_index == 1

    def test_leading_minus(self):
        p = parse_expression("exp(-norm2())")
        assert p.ast == Call("exp", (Neg(Call("norm2", ())),))

    def test_power_binds_tighter_than_product(self):
        p = parse_expression("2*xi(1)^3")
        assert p.ast == Mul(Num(2.0), PowInt(Xi(1), 3))

    def test_negative_exponent(self):
        p = parse_expression("xi(2)^-2")
        assert p.ast == PowInt(Xi(2), -2)

    def test_two_argument_functions(self):
        p = parse_expression("min(1, abs(xi(1)))")
        assert p.ast == Call("min", (Num(1.0), Call("abs", (Xi(1),))))

    def test_scientific_notation(self):
        assert parse_expression("1.5e-3").ast == Num(0.0015)

    def test_minus_lexes_as_negation(self):
        assert parse_expression("-1.0").ast == Neg(Num(1.0))

    def test_xi_positions_recorded(self):
        p = parse_expression("xi(1) + xi(7)")
        assert p.xi_refs == ((1, 0), (7, 8))
        assert p.max_index == 7

    @pytest.mark.parametrize("src,pos_substr", [
        ("xi(0)", "index"),
        ("bogus(1)", "unknown function"),
        ("1 +", "unexpected end"),
        ("(xi(1)", "expected ')'"),
        ("xi(1) xi(2)", "trailing"),
        ("min(1)", "expected ','"),
        ("xi(1)^2.5", "integer"),
    ])
    def test_errors_carry_position(self, src, pos_substr):
        with pytest.raises(ExpressionError) as exc:
            parse_expression(src)
        assert pos_substr in str(exc.value)
        assert exc.value.pos >= 0


class TestEvaluation:
    def test_vectorized_over_batch(self, rng):
        p = parse_expression("sin(xi(1))*cos(xi(2)) + xi(3)^2")
        xi = rng.standard_normal((40, 3))
        expected = np.sin(xi[:, 0]) * np.cos(xi[:, 1]) + xi[:, 2] ** 2
        assert np.allclose(evaluate(p.ast, xi), expected, rtol=1e-14)

    def test_norm2_uses_all_coordinates(self, rng):
        xi = rng.standard_normal((10, 5))
        out = evaluate(parse_expression("norm2()").ast, xi)
        assert np.allclose(out, np.sum(xi * xi, axis=1), rtol=1e-14)

    def test_min_max_abs(self, rng):
        xi = rng.standard_normal((25, 2))
        out = evaluate(parse_expression("max(abs(xi(1)), xi(2))").ast, xi)
        assert np.allclose(out, np.maximum(np.abs(xi[:, 0]), xi[:, 1]))


LEAVES = st.one_of(
    # nonnegative literals only: a '-' always lexes as negation, so the
    # parser's image contains Neg(Num(1.0)) but never Num(-1.0)
    st.floats(min_value=0, max_value=4, allow_nan=False).map(
        lambda v: Num(round(v, 3) + 0.0)),
    st.integers(min_value=1, max_value=3).map(Xi),
    st.just(Call("norm2", ())),
)


def _branch(children):
    unary = st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "abs"]), children).map(
            lambda t: Call(t[0], (t[1],))),
        st.tuples(children, st.integers(min_value=-2, max_value=3)).map(
            lambda t: PowInt(*t)),
    )
    binary = st.tuples(st.sampled_from([Add, Sub, Mul, DivOp]), children,
                       children).map(lambda t: t[0](t[1], t[2]))
    two_arg = st.tuples(st.sampled_from(["min", "max"]), children,
                        children).map(lambda t: Call(t[0], (t[1], t[2])))
    return st.one_of(unary, binary, two_arg)


ASTS = st.recursive(LEAVES, _branch, max_leaves=12)


class TestRoundTrip:
    @given(ASTS)
    @settings(max_examples=300, deadline=None)
    def test_print_parse_round_trip(self, ast):
        assert parse_expression(to_string(ast)).ast == ast

    @given(ASTS)
    @settings(max_examples=200, deadline=None)
    # a -0.0 that the evaluation memo took for +0.0, a 0*x -> 0 fold that
    # dropped the sign of a zero product, and an x^0 -> 1 that made a
    # column a scalar, whose cube numpy rounds otherwise
    @example(parse_expression("min(0, (-norm2())/(-0))").ast)
    @example(parse_expression("min(norm2(), (-norm2())/(0*xi(2)))").ast)
    @example(parse_expression("(xi(1)^0*4.97010293)^3").ast)
    def test_simplify_preserves_value(self, ast):
        xi = np.array([[0.3, -1.2, 0.7], [2.0, 0.1, -0.4], [0.0, -0.0, 0.0]])
        with np.errstate(all="ignore"):
            a = evaluate(ast, xi)
            b = evaluate(simplify(ast), xi)
        assert same_bits(a, b)


def same_bits(a, b) -> bool:
    """Equal at every point, with NaN at the same points and zeros of the
    same sign."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


SMOOTH_SOURCES = [
    "norm2() - 2*xi(1)",
    "exp(-norm2())",
    "sin(xi(1))*cos(xi(2))",
    "xi(1)^3 + xi(2)^2*xi(3)",
    "exp(-xi(1)^2)/(1 + norm2())",
    "2.5*xi(2) - xi(3)/(2 + xi(1)^2)",
]


class TestSymbolicDerivatives:
    @pytest.mark.parametrize("src", SMOOTH_SOURCES)
    def test_gradient_matches_finite_differences(self, src, rng):
        # 20 random points, relative error <= 1e-6
        f = ExpressionFunctional(src)
        xi = rng.standard_normal((20, 3))
        sym = f.gradient(xi)
        num = fd_gradient(f.value, xi, 1e-5)
        scale = np.maximum(np.abs(sym), 1.0)
        assert np.max(np.abs(sym - num) / scale) <= 1e-6

    def test_documented_example_gradient(self, rng):
        # d/dxi [norm2() - 2 xi_1] = 2 xi + (-2, 0, ...)
        f = ExpressionFunctional("norm2() - 2*xi(1)")
        xi = rng.standard_normal((10, 3))
        expected = 2 * xi
        expected[:, 0] -= 2.0
        assert np.allclose(f.gradient(xi), expected, rtol=1e-14)

    def test_min_derivative_is_piecewise(self):
        f = ExpressionFunctional("min(norm2(), 6)")
        xi = np.array([[1.0, 1.0], [2.0, 2.0]])  # norm2 = 2 and 8
        g = f.gradient(xi)
        assert np.allclose(g[0], 2 * xi[0])
        assert np.allclose(g[1], 0.0)

    def test_abs_derivative_is_sign(self):
        f = ExpressionFunctional("abs(xi(1))")
        xi = np.array([[1.5, 0.0], [-2.0, 0.0]])
        assert np.allclose(f.gradient(xi)[:, 0], [1.0, -1.0])

    def test_laplacian_of_norm2_is_2d(self, rng):
        f = ExpressionFunctional("norm2()")
        for d in (2, 5):
            xi = rng.standard_normal((4, d))
            assert np.allclose(f.laplacian(xi), 2.0 * d)

    def test_independent_node_has_the_zero_derivative(self):
        # no 0*x or x + 0 term is built, so the tree is ZERO itself
        ast = parse_expression("exp(xi(1))*xi(2)/(1 + xi(1)^2) - min(xi(2), 3)").ast
        assert diff(ast, 3) is ZERO
        assert diff(diff(ast, 2), 2) is ZERO

    def test_diff_of_power_rule(self):
        d = simplify(diff(parse_expression("xi(1)^3").ast, 1))
        assert d == Mul(Num(3.0), PowInt(Xi(1), 2))


class TestFunctionalAdapter:
    def test_min_dim_enforced(self):
        f = ExpressionFunctional("xi(4)")
        with pytest.raises(ValueError):
            f.value(np.zeros((3, 2)))

    def test_name_defaults_to_source(self):
        assert ExpressionFunctional("exp(-norm2())").name == "exp(-norm2())"

    def test_constant_expression_gradient_is_zero(self, rng):
        f = ExpressionFunctional("3.5")
        xi = rng.standard_normal((6, 2))
        assert np.all(f.gradient(xi) == 0.0)
        assert np.all(f.value(xi) == 3.5)
