import numpy as np
import pytest

from pxlaplace.expressions import ExprError, parse_expr


class TestParsing:
    def test_addition_with_variable(self):
        e = parse_expr("2+x")
        assert e.evaluate(0.5) == pytest.approx(2.5)

    def test_power_right_associative(self):
        assert parse_expr("2^3^2").evaluate(0.0) == 512.0
        assert parse_expr("2^-1").evaluate(3.0) == 0.5

    def test_binary_min(self):
        assert parse_expr("min(x, 1-x)").evaluate(0.3) == pytest.approx(0.3)

    def test_precedence(self):
        assert parse_expr("1+2*3^2").evaluate(0.0) == 19.0
        assert parse_expr("2^3*4").evaluate(3.0) == 32.0
        # '+', '-', '*' and '/' are left-associative
        assert parse_expr("1-2-3").evaluate(3.0) == -4.0
        assert parse_expr("8/4/2").evaluate(3.0) == 1.0

    def test_unary_minus_binds_before_power(self):
        # a unary minus binds tighter than '^', so -2^2 = (-2)^2
        assert parse_expr("-2^2").evaluate(0.0) == 4.0
        assert parse_expr("-x^2").evaluate(3.0) == 9.0

    def test_vectorized_evaluation(self):
        xs = np.linspace(0, 1, 5)
        out = parse_expr("sin(3.141592653589793*x)").evaluate(xs)
        assert np.allclose(out, np.sin(np.pi * xs))

    def test_two_variables(self):
        e = parse_expr("x*y+1")
        assert e.evaluate(2.0, 3.0) == 7.0
        xs, ys = np.array([1.0, 2.0, 0.5]), np.array([4.0, -1.0, 2.0])
        assert np.array_equal(parse_expr("x-2*y").evaluate(xs, ys),
                              xs - 2 * ys)
        with pytest.raises(ValueError, match="'y' not available"):
            e.evaluate(2.0)


class TestErrors:
    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprError) as err:
            parse_expr("2+*3")
        assert err.value.offset == 2
        with pytest.raises(ExprError, match=r"expected '\)'") as err:
            parse_expr("(1+2")
        assert err.value.offset == 4
        with pytest.raises(ExprError, match=r"expected '\)'") as err:
            parse_expr("min(x,1")
        assert err.value.offset == 7

    def test_unknown_identifier(self):
        with pytest.raises(ExprError, match="unknown identifier"):
            parse_expr("2+z")

    def test_unknown_function(self):
        with pytest.raises(ExprError, match="unknown function"):
            parse_expr("tanh(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ExprError, match="argument"):
            parse_expr("min(x)")

    def test_trailing_input(self):
        with pytest.raises(ExprError, match="trailing"):
            parse_expr("1+2 3")

    def test_empty_input(self):
        with pytest.raises(ExprError):
            parse_expr("   ")


class TestRoundTrip:
    cases = [
        "2+x", "2^3^2", "min(x, 1-x)", "-x^2", "x*(1-x)",
        "sin(3.14*x)+cos(x)/2", "max(abs(x-0.5), exp(-x))",
        "1.5e-3*x", "sqrt(x+2)", "2+0.5*log(x+1)",
    ]

    @pytest.mark.parametrize("src", cases)
    def test_print_reparse_stable(self, src):
        tree = parse_expr(src)
        printed = str(tree)
        assert parse_expr(printed).node == tree.node

    @pytest.mark.parametrize("src", cases)
    def test_print_preserves_values(self, src):
        xs = np.linspace(0.01, 0.99, 7)
        a = parse_expr(src).evaluate(xs)
        b = parse_expr(str(parse_expr(src))).evaluate(xs)
        assert np.array_equal(a, b)
