"""Exact polynomial arithmetic: evaluation, derivative, gcd, square-free."""
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsep import ExactPoly, GaussianRational, ValidationError, gcd_exact
import rootsep.poly
from rootsep.poly import (
    _IOTA,
    _Q,
    _square_free_mod_q,
    _subresultant_chain,
    square_free_decomposition,
)

from oracles import numeric_coeffs


def P(*coeffs):
    return ExactPoly.from_coeffs(list(coeffs))


X2_MINUS_1 = P(-1, 0, 1)
CUBIC = P(1, -2, 0, 1)  # x^3 - 2x + 1


class TestEval:
    def test_constant_term(self):
        assert X2_MINUS_1.eval_exact(0) == GaussianRational.of(-1)

    def test_root(self):
        assert X2_MINUS_1.eval_exact(1) == GaussianRational.of(0)

    def test_cubic_at_two(self):
        # 8 - 4 + 1
        assert CUBIC.eval_exact(2) == GaussianRational.of(5)

    def test_ball_eval_matches_exact(self):
        # the Jensen oracle's numeric evaluation agrees with the exact one
        with mpmath.mp.workprec(128):
            assert mpmath.polyval(numeric_coeffs(CUBIC), 2) == 5
            # (1/2 - i)^3 - 2 (1/2 - i) + 1 = -11/8 + 9i/4, exact in binary
            assert mpmath.polyval(numeric_coeffs(CUBIC), mpmath.mpc(0.5, -1)) == mpmath.mpc(-1.375, 2.25)
            assert CUBIC.eval_exact(GaussianRational.of(Fraction(1, 2), -1)) == GaussianRational.of(Fraction(-11, 8), Fraction(9, 4))

    def test_gaussian_point(self):
        # (i)^2 - 1 = -2
        assert X2_MINUS_1.eval_exact(GaussianRational.of(0, 1)) == GaussianRational.of(-2)


class TestDerivative:
    def test_quadratic(self):
        assert X2_MINUS_1.derivative() == P(0, 2)

    def test_constant_gives_zero_poly(self):
        d = P(5).derivative()
        assert d.is_zero
        with pytest.raises(ValueError):
            _ = d.degree

    def test_cubic(self):
        assert CUBIC.derivative() == P(-2, 0, 3)

    def test_degree_drop(self):
        rng = random.Random(11)
        for _ in range(20):
            deg = rng.randint(1, 9)
            coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 5)]
            p = P(*coeffs)
            assert p.derivative().degree == p.degree - 1


class TestGcd:
    def test_common_linear_factor(self):
        assert gcd_exact(X2_MINUS_1, P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        g = gcd_exact(P(1, 0, 1), X2_MINUS_1)
        assert g == P(1)

    def test_factor_intersection(self):
        a = ExactPoly.from_roots([1, 0], [2, 1])   # (x-1)^2 x
        b = ExactPoly.from_roots([1, 0], [1, 2])   # (x-1) x^2
        assert gcd_exact(a, b) == P(0, -1, 1)      # x^2 - x

    def test_both_zero_rejected(self):
        with pytest.raises(ValidationError):
            gcd_exact(ExactPoly.zero(), ExactPoly.zero())

    def test_gcd_with_derivative_degree(self):
        # deg gcd(P, P') = d - r
        rng = random.Random(5)
        for _ in range(25):
            roots, mults = _random_root_system(rng)
            p = ExactPoly.from_roots(roots, mults, rng.choice([1, 2, -1]))
            g = gcd_exact(p, p.derivative())
            r = len(roots)
            d = sum(mults)
            if d == r:
                assert g == P(1)
            else:
                assert g.degree == d - r


def _random_root_system(rng, max_roots=4, max_mult=4):
    n = rng.randint(1, max_roots)
    roots = []
    while len(roots) < n:
        q = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), 1) if rng.random() < 0.3 else Fraction(0),
        )
        if q not in roots:
            roots.append(q)
    mults = [rng.randint(1, max_mult) for _ in roots]
    return roots, mults


class TestSquareFree:
    def test_already_square_free(self):
        assert square_free_decomposition(X2_MINUS_1) == [(X2_MINUS_1, 1)]

    def test_double_linear(self):
        p = ExactPoly.from_roots([1, 0], [2, 1])
        assert square_free_decomposition(p) == [(P(0, 1), 1), (P(-1, 1), 2)]

    def test_pure_cube(self):
        p = ExactPoly.from_roots([1], [3])
        assert square_free_decomposition(p) == [(P(-1, 1), 3)]

    def test_constant_rejected(self):
        with pytest.raises(ValidationError):
            square_free_decomposition(P(7))

    def test_reconstruction_round_trip(self):
        rng = random.Random(23)
        for _ in range(40):
            roots, mults = _random_root_system(rng)
            lead = GaussianRational.of(rng.choice([1, 2, -3, Fraction(1, 2)]))
            p = ExactPoly.from_roots(roots, mults, lead)
            rebuilt = ExactPoly.constant(p.leading)
            for factor, mult in square_free_decomposition(p):
                for _ in range(mult):
                    rebuilt = rebuilt * factor
            assert rebuilt == p

    def test_distinct_count(self):
        rng = random.Random(29)
        for _ in range(20):
            roots, mults = _random_root_system(rng)
            p = ExactPoly.from_roots(roots, mults)
            r = sum(f.degree for f, _ in square_free_decomposition(p))
            assert r == len(roots)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 primes as bases: deterministic below
    3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert n < 3_317_044_064_679_887_385_961_981
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _chain_decomposition(p: ExactPoly):
    """square_free_decomposition(p) with the F_q test switched off, and its
    heads."""
    real = rootsep.poly._square_free_mod_q
    rootsep.poly._square_free_mod_q = lambda nums: False
    try:
        out = square_free_decomposition(p)
    finally:
        rootsep.poly._square_free_mod_q = real
    return list(out), out.heads


def _chain_gcd_degree(p: ExactPoly) -> int:
    pm = p.monic()
    chain = _subresultant_chain(pm.nums, pm.derivative().nums)
    return len(chain[min(chain)]) - 1


# Gaussian-rational coefficients; parts near q and iota, and the numerator
# (iota, -1) that vanishes mod q, make unlucky reductions likely
_ints = st.one_of(st.integers(-9, 9), st.sampled_from([_Q, -_Q, 2 * _Q, _IOTA, _IOTA + 1]))
_dens = st.one_of(st.integers(1, 6), st.just(_Q))
_scalars = st.builds(
    lambda a, b, c, real: GaussianRational(Fraction(a, c), Fraction(0 if real else b, c)),
    _ints, _ints, _dens, st.booleans(),
)
_leads = st.one_of(_scalars.filter(lambda c: not c.is_zero),
                   st.just(GaussianRational.of(_IOTA, -1)), st.just(GaussianRational.of(_Q)))
_factors = st.lists(
    st.tuples(st.lists(_scalars, min_size=1, max_size=3), st.sampled_from((1, 1, 1, 2, 3))),
    min_size=1, max_size=3,
)


def _product(factors, lead) -> ExactPoly:
    p = ExactPoly.constant(lead)
    for low, mult in factors:
        f = ExactPoly.from_coeffs([*low, 1])
        for _ in range(mult):
            p = p * f
    return p


class TestSquareFreeModQ:
    def test_constants(self):
        assert _is_prime(_Q) and _Q < 2**62
        assert _Q % 4 == 1 and (_IOTA * _IOTA + 1) % _Q == 0
        # strong pseudoprimes: to bases 2, 3, 5, 7, and to every prime base
        # up to 23; both are rejected
        assert not _is_prime(3_215_031_751) and not _is_prime(3_825_123_056_546_413_051)

    @settings(max_examples=200, deadline=None)
    @given(_factors, _leads)
    def test_never_square_free_with_a_repeated_factor(self, factors, lead):
        # a verdict of square-free is a proof: the chain's gcd is 1, and the
        # decomposition is the one the chain gives
        p = _product(factors, lead)
        if p.degree == 0:
            return
        proved = _square_free_mod_q(p.monic().nums)
        if any(mult > 1 for _, mult in factors):
            assert not proved
        if proved:
            assert _chain_gcd_degree(p) == 0
        decomposition = square_free_decomposition(p)
        assert (list(decomposition), decomposition.heads) == _chain_decomposition(p)

    @pytest.mark.parametrize("p", [
        # lc = q vanishes mod q
        P(5, -2, 0, _Q),
        # lc = iota - i: the numerator (iota, -1) maps to 0
        P(1, 0, GaussianRational.of(_IOTA, -1)),
        # x (x - q) is square-free, but its image x^2 is not
        P(0, -_Q, 1),
    ])
    def test_unlucky_prime_falls_back_to_the_chain(self, p, monkeypatch):
        chains = []
        real_chain = rootsep.poly._subresultant_chain

        def chain_spy(a, b):
            chains.append(len(a) - 1)
            return real_chain(a, b)

        expected = _chain_decomposition(p)
        assert not _square_free_mod_q(p.monic().nums)
        monkeypatch.setattr(rootsep.poly, "_subresultant_chain", chain_spy)
        decomposition = square_free_decomposition(p)
        assert chains == [p.degree]
        assert decomposition == [(p.monic(), 1)] == expected[0]
        assert decomposition.heads == expected[1] and chains == [p.degree]


class TestZeroPolynomial:
    def test_flagged(self):
        z = ExactPoly.zero()
        assert z.is_zero
        with pytest.raises(ValueError):
            _ = z.degree
        with pytest.raises(ValueError):
            _ = z.leading

    def test_trimming(self):
        assert P(0, 0, 0).is_zero


# ---------------------------------------------------------------------------
# the stored form against coefficientwise GaussianRational arithmetic
# ---------------------------------------------------------------------------

ZERO = GaussianRational.of(0)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, st.one_of(st.just(Fraction(0)), rationals))
coeff_lists = st.lists(gaussians, max_size=6)
nonzero_lists = coeff_lists.filter(lambda cs: any(not c.is_zero for c in cs))


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


def _pad(cs, n):
    return list(cs) + [ZERO] * (n - len(cs))


def _ref_mul(a, b):
    out = [ZERO] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _checked(p):
    """p, after checking that its fields are in lowest terms."""
    assert p.den > 0
    assert gcd(p.den, *(part for c in p.nums for part in c)) == 1
    assert not p.nums or p.nums[-1] != (0, 0)
    return p


class TestStoredForm:
    @settings(max_examples=80, deadline=None)
    @given(coeff_lists, coeff_lists)
    def test_ring_operations(self, a, b):
        n = max(len(a), len(b))
        pa, pb = P(*a), P(*b)
        assert _checked(pa + pb).coeffs == _trim(x + y for x, y in zip(_pad(a, n), _pad(b, n)))
        assert _checked(pa - pb).coeffs == _trim(x - y for x, y in zip(_pad(a, n), _pad(b, n)))
        assert _checked(pa * pb).coeffs == _ref_mul(a, b)
        assert _checked(-pa).coeffs == _trim(-x for x in a)

    @settings(max_examples=50, deadline=None)
    @given(coeff_lists, gaussians)
    def test_scale_and_derivative(self, a, c):
        p = P(*a)
        assert _checked(p.scale(c)).coeffs == _trim(x * c for x in a)
        assert _checked(p.derivative()).coeffs == _trim(x * k for k, x in enumerate(a))[1:]

    @settings(max_examples=50, deadline=None)
    @given(nonzero_lists)
    def test_monic(self, a):
        lead = _trim(a)[-1]
        assert _checked(P(*a).monic()).coeffs == _trim(x / lead for x in a)

    @settings(max_examples=50, deadline=None)
    @given(coeff_lists, nonzero_lists)
    def test_exact_quotient(self, a, b):
        p, q = P(*a), P(*b)
        assert _checked((p * q) // q) == p

    @settings(max_examples=50, deadline=None)
    @given(coeff_lists, nonzero_lists, gaussians.filter(lambda c: not c.is_zero))
    def test_equal_values_compare_and_hash_equal(self, a, b, c):
        p = P(*a)
        others = [
            P(*(list(a) + [0, 0])),
            (p * P(*b)) // P(*b),
            p.scale(c).scale(1 / c),
            (p + P(*b)) - P(*b),
        ]
        for other in others:
            assert other == p
            assert hash(other) == hash(p)

    @settings(max_examples=50, deadline=None)
    @given(coeff_lists, nonzero_lists, nonzero_lists)
    def test_division_by_a_non_divisor_raises(self, a, b, c):
        q = P(*b) * P(0, 1)  # degree >= 1
        rem = P(*c)
        if rem.degree >= q.degree:
            rem = ExactPoly.constant(rem.leading)
        with pytest.raises(ValueError):
            (P(*a) * q + rem) // q
