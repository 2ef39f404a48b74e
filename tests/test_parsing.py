"""Polynomial text/JSON parsing, exact decimal literals, render round trips."""
import random
from fractions import Fraction

import pytest

from rootsep import ExactPoly, GaussianRational, ParseError, parse_polynomial
from rootsep.parsing import poly_to_json, render_exact_poly


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
