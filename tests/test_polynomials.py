import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_nonconstant_polynomial, random_polynomial
from polydescent.polynomials import (
    ConstantPolynomialError,
    InvalidExponentError,
    Monomial,
    ParseError,
    Polynomial,
    UnknownVariableError,
    VariableOrder,
    eval_terms,
    parse_polynomial,
)

UX = VariableOrder(["u", "x"])
UXY = VariableOrder(["u", "x", "y"])


class TestParsing:
    def test_two_term_quartic(self):
        p = parse_polynomial("u^2*x^2 - 1", UX)
        assert p.terms == {
            Monomial(((0, 2), (1, 2))): Fraction(1),
            Monomial(): Fraction(-1),
        }

    def test_zero(self):
        p = parse_polynomial("0", UX)
        assert p.terms == {}

    def test_like_terms_collected(self):
        p = parse_polynomial("1/2*x + 1/2*x", VariableOrder(["x"]))
        assert p.terms == {Monomial(((0, 1),)): Fraction(1)}

    def test_parens_and_unary_minus(self):
        p = parse_polynomial("-(x - u)*2", UX)
        q = parse_polynomial("2*u - 2*x", UX)
        assert p == q

    def test_caret_binds_tighter_than_star(self):
        assert parse_polynomial("2*x^3", UX) == parse_polynomial("2*(x^3)", UX)

    def test_zero_exponent(self):
        assert parse_polynomial("x^0", UX) == Polynomial.constant(UX, 1)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError) as exc:
            parse_polynomial("u + w", UX)
        assert exc.value.name == "w"

    def test_syntax_error_has_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("u + + x", UX)
        assert exc.value.offset == 4

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("x $ u", "unexpected character '$'", 2),
            ("1/x", "expected integer denominator", 2),
            ("(x + u", "expected ')'", 6),
        ],
    )
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, UX)
        assert str(exc.value) == f"{message} (at offset {offset})"
        assert exc.value.offset == offset

    def test_bad_exponent(self):
        with pytest.raises(InvalidExponentError):
            parse_polynomial("x^(2)", UX)
        with pytest.raises(ParseError):
            parse_polynomial("x^-2", UX)

    @pytest.mark.parametrize(
        "text, error, offset",
        [
            ("7" * 5000 + "*x", ParseError, 0),
            ("1/" + "7" * 5000 + "*x", ParseError, 2),
            ("x^" + "7" * 5000, InvalidExponentError, 2),
        ],
        ids=["coefficient", "denominator", "exponent"],
    )
    def test_an_integer_literal_too_long_for_int(self, text, error, offset):
        # int() refuses more than sys.get_int_max_str_digits() digits, 4,300
        # by default, with a bare ValueError
        with pytest.raises(error) as exc:
            parse_polynomial(text, UX)
        assert str(exc.value) == f"integer literal of 5000 digits is too long (at offset {offset})"

    @pytest.mark.parametrize(
        "opening, closing",
        [("(", ")"), ("-", ""), ("-(", ")")],
        ids=["parentheses", "unary-minus", "both"],
    )
    def test_nesting_is_limited(self, opening, closing):
        # each level reads one or two tokens; the 201st nested level is
        # refused at its first token, before the parser recurses into it
        def nested(levels):
            return opening * levels + "x" + closing * levels

        assert parse_polynomial(nested(200 // len(opening)), UX) == parse_polynomial("x", UX)
        for levels in (201, 400, 1000):
            with pytest.raises(ParseError) as exc:
                parse_polynomial(nested(levels), UX)
            assert str(exc.value) == "nested more than 200 deep (at offset 200)"
        # a long sequence that does not nest is no deeper than one term
        assert parse_polynomial(" + ".join(["(-x)"] * 1000), UX) == parse_polynomial("-1000*x", UX)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("2x", UX)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/0*x", UX)

    def test_roundtrip_random(self):
        rng = random.Random(20240811)
        order = VariableOrder(["a", "b", "c", "d"])
        for _ in range(300):
            p = random_polynomial(rng, order)
            assert parse_polynomial(str(p), order) == p


class TestEvaluate:
    def test_on_manifold_point(self):
        g1 = parse_polynomial("u^2*x^2 - 1", UX)
        assert g1.evaluate([1.0, 1.0]) == 0.0

    def test_all_zeros_gives_constant_term(self):
        p = parse_polynomial("3*u*x + x^2 - 5/2", UX)
        assert p.evaluate([0.0, 0.0]) == -2.5

    def test_hand_arithmetic(self):
        # independent oracle: 0.8^4 + 0.6^2 - 1 computed by hand
        g = parse_polynomial("u^4 + x^2 - 1", UX)
        expected = 0.8**4 + 0.6**2 - 1.0  # = -0.2304
        assert g.evaluate([0.8, 0.6]) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.2304, abs=1e-15)


class TestFloatRange:
    """A power past the float range saturates like an overflowing product or sum."""

    @pytest.mark.parametrize(
        "text, point, expected",
        [
            ("u^2", [1e200, 0.0], math.inf),
            ("-u^3", [-1e200, 0.0], math.inf),
            ("u^3 + x", [-1e200, 5.0], -math.inf),
            ("u^2 - x^2", [1e200, 1e200], math.nan),
            ("3*u^2*x^5", [1e-20, 1e100], math.inf),
        ],
    )
    @pytest.mark.parametrize("as_array", [False, True], ids=["floats", "ndarray"])
    def test_evaluation_saturates(self, text, point, expected, as_array):
        p = parse_polynomial(text, UX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy scalars would warn
            got = p.evaluate(np.array(point) if as_array else point)
        assert got == expected or (math.isnan(expected) and math.isnan(got))

    def test_table_evaluation_never_raises(self):
        # 2*u^2 + x^3: each power overflows alone, and together they cancel
        terms = [(2.0, ((0, 2),)), (1.0, ((1, 3),))]
        assert eval_terms(terms, [1e200, 1.0]) == math.inf
        assert eval_terms(terms, [1.0, -1e200]) == -math.inf
        assert math.isnan(eval_terms(terms, [1e200, -1e200]))
        assert eval_terms(terms, [1e-200, 0.0]) == 0.0  # underflow is not overflow

    def test_compile_saturates_at_the_float_limit(self):
        # float() rounds a magnitude from 2**1024 - 2**970 on to 2**1024 and
        # raises there; compile counts it as the signed infinity instead
        limit = 2**1024 - 2**970
        with pytest.raises(OverflowError):
            float(Fraction(limit))
        table = Polynomial.constant(UX, limit - 1).compile()
        assert table == [(sys.float_info.max, ())]
        assert Polynomial.constant(UX, limit).compile() == [(math.inf, ())]
        assert Polynomial.constant(UX, -limit).compile() == [(-math.inf, ())]
        # a rational just below the limit stays finite
        below = Fraction(3 * limit - 1, 3)
        assert Polynomial.constant(UX, below).compile() == [(sys.float_info.max, ())]
        assert Polynomial.constant(UX, Fraction(1, 2**1100)).compile() == [(0.0, ())]

    def test_coefficient_past_the_float_range_evaluates_saturated(self):
        p = parse_polynomial("x - 2" + "0" * 308 + "*u", UX)
        assert p.evaluate([1.0, 0.0]) == -math.inf
        assert math.isnan(p.evaluate([0.0, 0.0]))


class TestCoefficientTables:
    """One float table per power of a variable, its factor dropped, in term order."""

    def test_in_a_variable_that_is_not_the_main_one(self):
        p = parse_polynomial("x^2*y - 3*u*x + 5 + 2*x^2 + y^2", UXY)
        tables = p.coefficient_tables(1)
        assert tables == [
            [(5.0, ()), (1.0, ((2, 2),))],
            [(-3.0, ((0, 1),))],
            [(1.0, ((2, 1),)), (2.0, ())],
        ]
        vals = [0.3, 1.7, -0.9]
        x = vals[1]
        total = sum(eval_terms(t, vals) * x**e for e, t in enumerate(tables))
        assert total == pytest.approx(p.evaluate(vals))

    def test_an_absent_variable_gives_the_compiled_table(self):
        p = parse_polynomial("u^3 - 2*x*u + 7", UXY)
        assert p.coefficient_tables(2) == [p.compile()]
        assert Polynomial(UXY, {}).coefficient_tables(0) == [[]]

    def test_coefficients_saturate_as_compile_does(self):
        big = "2" + "0" * 308
        p = parse_polynomial(f"{big}*y^2 - {big}*x", UXY)
        assert p.coefficient_tables(2) == [[(-math.inf, ((1, 1),))], [], [(math.inf, ())]]


class TestMonomial:
    @pytest.mark.parametrize("exps", [((1, 2), (0, 1)), ((0, 1), (0, 2))])
    def test_indices_must_be_sorted_and_distinct(self, exps):
        with pytest.raises(ValueError, match="sorted and distinct"):
            Monomial(exps)

    @pytest.mark.parametrize("e", [0, -1])
    def test_exponents_must_be_positive(self, e):
        with pytest.raises(ValueError, match="exponents must be positive"):
            Monomial(((0, e),))


class TestInputChecks:
    @pytest.mark.parametrize(
        "names, message",
        [
            ([], "variable order must be nonempty"),
            (["x", "x"], "variable order contains duplicate names"),
            (["x", "2y"], "invalid variable name '2y'"),
        ],
    )
    def test_bad_variable_order(self, names, message):
        with pytest.raises(ValueError, match=message):
            VariableOrder(names)

    def test_variable_order_is_a_tuple_of_names(self):
        assert isinstance(UX, tuple)
        assert UX == ("u", "x") and hash(UX) == hash(("u", "x"))
        assert (UX.index("x"), "u" in UX, "y" in UX) == (1, True, False)
        assert repr(UXY) == "VariableOrder(u, x, y)"
        with pytest.raises(ValueError):
            UX.index("y")

    def test_arithmetic_across_orders(self):
        with pytest.raises(ValueError, match="different variable orders"):
            parse_polynomial("x", UX) + parse_polynomial("x", UXY)

    @pytest.mark.parametrize("var", [-1, 2])
    def test_derivative_index_out_of_range(self, var):
        with pytest.raises(ValueError, match=f"variable index {var} out of range"):
            parse_polynomial("u*x", UX).derivative(var)

    @pytest.mark.parametrize("point", [[1.0], [1.0, 2.0, 3.0]])
    def test_evaluate_point_of_the_wrong_length(self, point):
        with pytest.raises(ValueError, match="point length"):
            parse_polynomial("u*x", UX).evaluate(point)


class TestDerivative:
    def test_gradient_entries(self):
        g = parse_polynomial("u^4 + x^2 - 1", UX)
        assert g.derivative(UX.index("x")) == parse_polynomial("2*x", UX)
        assert g.derivative(UX.index("u")) == parse_polynomial("4*u^3", UX)

    def test_constant(self):
        c = Polynomial.constant(UX, Fraction(7, 3))
        assert not c.derivative(0).terms

    def test_linearity_and_product_rule(self):
        rng = random.Random(7)
        order = VariableOrder(["a", "b", "c"])
        for _ in range(100):
            p = random_polynomial(rng, order)
            q = random_polynomial(rng, order)
            v = rng.randrange(3)
            assert (p + q).derivative(v) == p.derivative(v) + q.derivative(v)
            assert (p * q).derivative(v) == p.derivative(v) * q + p * q.derivative(v)

    def test_finite_difference(self):
        rng = random.Random(99)
        h = 1e-6
        for _ in range(100):
            nv = rng.randint(1, 5)
            order = VariableOrder([f"z{i}" for i in range(nv)])
            p = random_polynomial(rng, order)
            z = [rng.uniform(-1, 1) for _ in range(nv)]
            for v in range(nv):
                zp = list(z)
                zm = list(z)
                zp[v] += h
                zm[v] -= h
                fd = (p.evaluate(zp) - p.evaluate(zm)) / (2 * h)
                exact = p.derivative(v).evaluate(z)
                assert abs(fd - exact) <= 1e-6 * (1 + abs(exact))


class TestMainVariable:
    def test_examples(self):
        order = VariableOrder(["z1", "z2", "z3", "z4"])
        assert parse_polynomial("z1^2*z2^2 - 1", order).main_variable() == 1
        assert parse_polynomial("z3 + z1", order).main_variable() == 2
        assert parse_polynomial("5", order).main_variable() is None


class TestDecompose:
    def test_quartic_member(self):
        p = parse_polynomial("u^2*x^2 - 1", UX)
        initial, d, rank, tail, head = p.decompose()
        assert initial == parse_polynomial("u^2", UX)
        assert d == 2
        assert rank == Monomial(((UX.index("x"), 2),))
        assert tail == parse_polynomial("-1", UX)
        assert head == parse_polynomial("u^2*x^2", UX)

    def test_linear_member(self):
        order = VariableOrder(["u", "x", "y1"])
        p = parse_polynomial("y1 + u", order)
        initial, d, rank, tail, _ = p.decompose()
        assert initial == Polynomial.constant(order, 1)
        assert d == 1
        assert rank == Monomial(((order.index("y1"), 1),))
        assert tail == parse_polynomial("u", order)

    def test_quintic_member(self):
        p = parse_polynomial("u^2 + x^3 + y^5", UXY)
        initial, d, rank, tail, head = p.decompose()
        assert initial == Polynomial.constant(UXY, 1)
        assert d == 5
        assert rank == Monomial(((UXY.index("y"), 5),))
        assert tail == parse_polynomial("u^2 + x^3", UXY)
        # exact re-expansion
        assert initial * Polynomial(UXY, {rank: Fraction(1)}) + tail == p
        assert head + tail == p

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomialError):
            Polynomial.constant(UX, 5).decompose()

    def test_reconstruction_random(self):
        rng = random.Random(123)
        order = VariableOrder(["a", "b", "c", "d"])
        for _ in range(500):
            p = random_nonconstant_polynomial(rng, order)
            initial, d, rank, tail, head = p.decompose()
            v = p.main_variable()
            assert initial * Polynomial(order, {rank: Fraction(1)}) + tail == p
            assert head == p - tail
            assert tail.degree_in(v) < d
            assert v not in initial.variables()
