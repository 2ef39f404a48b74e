"""Polynomial text/JSON parsing, exact decimal literals, render round trips."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsep import ExactPoly, GaussianRational, ParseError, parse_polynomial
from rootsep.parsing import MAX_POWER_BITS, MAX_POWER_DEGREE, _Parser, poly_to_json, render_exact_poly


def gr(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


class TestExpanded:
    def test_simple(self):
        p = parse_polynomial("x^2 - 1")
        assert p.coeffs == (gr(-1), gr(0), gr(1))

    def test_cubic(self):
        p = parse_polynomial("x^3 - 2*x + 1")
        assert p.coeffs == (gr(1), gr(-2), gr(0), gr(1))

    def test_rational_literals(self):
        p = parse_polynomial("x^2 - 5/2*x + 1")
        assert p.coeff(1) == gr(Fraction(-5, 2))
        assert isinstance(p, ExactPoly)

    def test_imaginary_unit(self):
        p = parse_polynomial("x^2 - 2*i*x - 1")
        assert p.coeff(1) == gr(0, -2)

    def test_double_star_power(self):
        assert parse_polynomial("x**2 - 1") == parse_polynomial("x^2 - 1")

    def test_implicit_multiplication(self):
        assert parse_polynomial("2x + 1") == parse_polynomial("2*x + 1")


class TestFactored:
    def test_square_times_linear(self):
        p = parse_polynomial("(x-1)^2*x")
        assert p.coeffs == (gr(0), gr(1), gr(-2), gr(1))

    def test_two_factors(self):
        p = parse_polynomial("(x-1)^2*(x+2)")
        assert p.coeffs == (gr(2), gr(-3), gr(0), gr(1))

    def test_nested_negation(self):
        p = parse_polynomial("-(x-1)*(x+1)")
        assert p.coeffs == (gr(1), gr(0), gr(-1))


class TestNumericMode:
    """Decimal literals: each is read as the exact rational it denotes, so no
    input is rounded into a floating-point (numeric) polynomial."""

    def test_decimal_is_exact(self):
        p = parse_polynomial("x^2 - 0.5")
        assert isinstance(p, ExactPoly)
        assert p == parse_polynomial("x^2 - 1/2")

    def test_decimal_value(self):
        # 0.1 has no finite binary expansion; it is still exactly 1/10
        assert parse_polynomial("x - 0.25") == parse_polynomial("x - 1/4")
        assert parse_polynomial("x - 0.1") == parse_polynomial("x - 1/10")

    def test_rational_stays_exact(self):
        assert isinstance(parse_polynomial("x - 1/4"), ExactPoly)


class TestJsonInput:
    def test_gaussian_coeffs(self):
        text = '{"coeffs": [[-1, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]}'
        assert parse_polynomial(text) == parse_polynomial("x^2 - 1")

    def test_fractions(self):
        text = '{"coeffs": [[1, 2, -1, 3], [1, 1, 0, 1]]}'
        p = parse_polynomial(text)
        assert p.coeff(0) == gr(Fraction(1, 2), Fraction(-1, 3))

    def test_bad_shape(self):
        with pytest.raises(ParseError):
            parse_polynomial('{"coeffs": [[1, 2]]}')

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_polynomial('{"coeffs": [[1, 0, 0, 1]]}')


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x^2 + $")
        assert err.value.position == 6

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_polynomial("(x-1")

    def test_fractional_exponent(self):
        # a decimal exponent is rejected even when its value is an integer
        for text in ("x^(1/2)", "x^2.0"):
            with pytest.raises(ParseError):
                parse_polynomial(text)

    def test_division_by_polynomial(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/x")

    def test_unknown_name(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("y^2")
        assert err.value.position == 0

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^2 - 1 1")


def _random_exact_poly(rng):
    deg = rng.randint(0, 6)
    coeffs = []
    for _ in range(deg):
        coeffs.append(
            GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.4 else Fraction(0),
            )
        )
    coeffs.append(GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 7)), Fraction(0)))
    return ExactPoly.from_coeffs(coeffs)


def test_render_parse_round_trip():
    rng = random.Random(314)
    for _ in range(60):
        p = _random_exact_poly(rng)
        text = render_exact_poly(p)
        assert parse_polynomial(text) == p


def test_json_round_trip():
    import json

    rng = random.Random(315)
    for _ in range(30):
        p = _random_exact_poly(rng)
        assert parse_polynomial(json.dumps(poly_to_json(p))) == p


class _TermByTermParser(_Parser):
    """The reference parser: every literal goes through GaussianRational, a
    division multiplies by the inverse constant, a power is e
    multiplications, and a sum is added up term by term."""

    def expr(self) -> ExactPoly:
        t = self.peek()
        negate = t.kind == "op" and t.text in "+-" and self.take().text == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            acc = acc - rhs if op == "-" else acc + rhs
        return acc

    def term(self) -> ExactPoly:
        acc = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == "*":
                self.take()
                acc = acc * self.factor()
            elif t.kind == "op" and t.text == "/":
                self.take()
                divisor = self.factor()
                assert not divisor.is_zero and divisor.degree == 0
                acc = acc.scale(GaussianRational.of(1) / divisor.coeff(0))
            elif t.kind == "name" or (t.kind == "op" and t.text == "("):
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> ExactPoly:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            acc = ExactPoly.constant(1)
            for _ in range(self.exponent()):
                acc = acc * base
            return acc
        return base

    def atom(self) -> ExactPoly:
        t = self.peek()
        if t.kind == "number":
            self.take()
            return ExactPoly.constant(GaussianRational(t.value, Fraction(0)))
        if t.kind == "name" and t.text.lower() == "i":
            self.take()
            return ExactPoly.constant(GaussianRational(Fraction(0), Fraction(1)))
        return super().atom()


README_INPUTS = [
    "x^2 - 1",
    "(x-1)^2*(x+2)",
    "(x-1)*(x-1-1/1000000000000000000000000000000)*(x-3)",
    "(x-0.5)^2*(x+1.25)",
    "x^24 - 2*(100*x - 1)^2",
    "(x-10^200)*(x+2*10^200)*(x-3)",
    "x*(x-1)*(x-2)",
    "(x-1)^2*x",
    "(x-0.3)^6",
]
# powers of 0 and of x, implicit products, divisions and cancelling terms
EDGE_INPUTS = [
    "-x^3 + (2-i)x^0 - (x+i)^5 + 3/4*x^7 - 0^0 + 0^3*x",
    "x^5/4 - (x+1)^3/(2-3*i) + 5/6/7",
    "2*x^2 - x*x - x^2 + 0.25",
]


@pytest.mark.parametrize("text", README_INPUTS + EDGE_INPUTS)
def test_parser_matches_the_term_by_term_parser(text):
    assert parse_polynomial(text) == _TermByTermParser(text).parse()


small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
exact_polys = st.lists(
    st.builds(GaussianRational, small_fractions, st.one_of(st.just(Fraction(0)), small_fractions)),
    min_size=1, max_size=18,
).map(ExactPoly.from_coeffs)


@settings(max_examples=120, deadline=None)
@given(exact_polys, st.lists(st.tuples(small_fractions, st.integers(0, 5)), max_size=3))
def test_round_trip_matches_the_term_by_term_parser(p, powers):
    # the rendered expansion, and a product of powers of linear factors
    text = render_exact_poly(p)
    assert parse_polynomial(text) == _TermByTermParser(text).parse() == p
    factored = "*".join([f"({text})"] + [f"(x-({q}))^{e}" for q, e in powers])
    assert parse_polynomial(factored) == _TermByTermParser(factored).parse()


class TestPowerLimits:
    def test_degree_limit(self):
        assert parse_polynomial(f"x^{MAX_POWER_DEGREE}").degree == MAX_POWER_DEGREE
        assert parse_polynomial(f"(x^2 + 1)^{MAX_POWER_DEGREE // 2}").degree == MAX_POWER_DEGREE
        for text in (f"x^{MAX_POWER_DEGREE + 1}", "x^1000000000", f"(x^2 + 1)^{MAX_POWER_DEGREE // 2 + 1}"):
            with pytest.raises(ParseError) as exc:
                parse_polynomial(text)
            # at the exponent, before anything is expanded
            assert exc.value.position == text.rindex("^") + 1

    def test_bit_limit(self):
        # 2^e needs e bits, (1/4)^e 2e bits of denominator
        assert parse_polynomial(f"2^{MAX_POWER_BITS}").coeff(0).re == 2**MAX_POWER_BITS
        assert parse_polynomial(f"(1/4)^{MAX_POWER_BITS // 2}").coeff(0).re == Fraction(1, 2**MAX_POWER_BITS)
        huge = "9" * 400  # beyond the float range
        for text in (f"2^{MAX_POWER_BITS + 1}", f"(1/4)^{MAX_POWER_BITS // 2 + 1}", "(x + 2^30)^700", f"2^{huge}"):
            with pytest.raises(ParseError) as exc:
                parse_polynomial(text)
            assert exc.value.position == text.rindex("^") + 1

    def test_every_example_input_is_legal(self):
        # the largest constant of the examples, and powers of 0, 1 and i of
        # any size
        huge = "9" * 400
        assert parse_polynomial("(x-10^200)*(x+2*10^200)*(x-3)").degree == 3
        assert parse_polynomial("0^1000000000 + x").degree == 1
        assert parse_polynomial(f"(-1)^{huge} + i^{huge} + x").coeff(0) == GaussianRational.of(-1, -1)
