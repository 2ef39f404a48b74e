"""Ball arithmetic: enclosure of exact results, and the stored modulus."""
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsep import GaussianRational
from rootsep.balls import CBall, RBall, _slack, working_precision
from rootsep.errors import BallDomainError


def _q(x) -> Fraction:
    """The exact rational value of an mpf."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _reach(ball) -> Fraction:
    """rad plus the midpoint cushion that `lo`, `hi` and `overlaps` add."""
    return _q(ball.rad) + _q(_slack(ball.mid))


def _encloses_real(ball: RBall, x: Fraction) -> bool:
    return abs(_q(ball.mid) - x) <= _reach(ball)


def _encloses_complex(ball: CBall, z: GaussianRational) -> bool:
    dre = _q(ball.mid.real) - z.re
    dim = _q(ball.mid.imag) - z.im
    return dre * dre + dim * dim <= _reach(ball) ** 2


def _encloses_modulus(ball: RBall, z: GaussianRational) -> bool:
    """|z| lies in the ball, decided on squares."""
    lo = _q(ball.mid) - _reach(ball)
    hi = _q(ball.mid) + _reach(ball)
    return (lo <= 0 or lo * lo <= z.norm()) and z.norm() <= hi * hi


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# mixed signs, zero, integers and fractions that no binary float holds exactly
rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
)
gaussians = st.builds(GaussianRational, rationals, rationals)
precisions = st.sampled_from([24, 64, 200])


def _operands(make, x, y):
    """(ball, exact) pairs: the exact inputs, and results of one operation,
    among them x - x, whose midpoint is 0 and whose radius need not be."""
    bx, by = make(x), make(y)
    return [(bx, x), (by, y), (bx - bx, x - x), (bx * by, x * y), (bx - by, x - y)]


class TestEnclosure:
    @settings(max_examples=150, deadline=None)
    @given(rationals, rationals, precisions)
    def test_real_operations(self, x, y, bits):
        with working_precision(bits):
            operands = _operands(RBall.exact, x, y)
            for ba, a in operands:
                assert _encloses_real(ba, a)
                assert _encloses_real(ba.abs(), abs(a))
                for bb, b in operands:
                    for op, f in OPS.items():
                        if op == "/" and bb.contains(0):
                            continue
                        assert _encloses_real(f(ba, bb), f(a, b)), (op, a, b)

    @settings(max_examples=100, deadline=None)
    @given(gaussians, gaussians, precisions)
    def test_complex_operations(self, z, w, bits):
        with working_precision(bits):
            operands = _operands(CBall.exact, z, w)
            for ba, a in operands:
                assert _encloses_complex(ba, a)
                assert _encloses_modulus(ba.abs(), a)
                for bb, b in operands:
                    for op, f in OPS.items():
                        if op == "/" and bb.contains_zero():
                            continue
                        assert _encloses_complex(f(ba, bb), f(a, b)), (op, a, b)

    @settings(max_examples=60, deadline=None)
    @given(gaussians, precisions)
    def test_division_by_a_ball_holding_zero_raises(self, z, bits):
        with working_precision(bits):
            bz = CBall.exact(z)
            with pytest.raises(BallDomainError):
                bz / (bz - bz)

    @pytest.mark.xfail(strict=True, reason="radii are rounded to nearest, not upward")
    def test_product_of_tight_balls_at_zero(self):
        # the corner points ra, rb of two balls centred on 0 multiply to
        # ra*rb, but the product's radius is ra*rb rounded to nearest (here
        # down) and a zero midpoint adds no cushion; open in ROADMAP item 3
        with working_precision(64):
            ra = mpmath.mpf(2**60 - 1) / 2**60
            rb = mpmath.mpf(2**60 - 3) / 2**60
            prod = RBall(0, ra) * RBall(0, rb)
            assert _encloses_real(prod, _q(ra) * _q(rb))


class TestStoredModulus:
    def _made_at(self, bits):
        with working_precision(bits):
            z = CBall.exact(GaussianRational.of(Fraction(1, 3), Fraction(2, 7)))
            w = CBall.exact(GaussianRational.of(Fraction(5, 11), Fraction(-1, 13)))
            return z * w - w

    def test_ball_from_another_precision_takes_the_modulus_again(self):
        made_low = self._made_at(64)
        with working_precision(256):
            made_here = CBall(made_low.mid, made_low.rad)
            y = CBall.exact(GaussianRational.of(Fraction(7, 9), Fraction(3, 5)))
            pairs = [
                (made_low * y, made_here * y),
                (y * made_low, y * made_here),
                (y / made_low, y / made_here),
                (-made_low * y, -made_here * y),
                (made_low.conj() * y, made_here.conj() * y),
            ]
            for got, want in pairs:
                assert repr(got.mid) == repr(want.mid)
                assert repr(got.rad) == repr(want.rad)
            got, want = made_low.abs(), made_here.abs()
            assert repr(got.mid) == repr(want.mid) and repr(got.rad) == repr(want.rad)
            assert made_low.contains_zero() == made_here.contains_zero()

    def test_stored_modulus_matches_a_fresh_one(self):
        with working_precision(128):
            z = self._made_at(128)
            fresh = CBall(z.mid, z.rad)
            y = CBall.exact(GaussianRational.of(Fraction(-2, 3), Fraction(1, 9)))
            for got, want in ((z * y, fresh * y), (y / z, y / fresh), (z.abs(), fresh.abs())):
                assert repr(got.mid) == repr(want.mid)
                assert repr(got.rad) == repr(want.rad)
