"""Ball arithmetic: enclosure of exact results, the modulus of a disk, and
the grid products a rung table reports."""
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_hypot

from rootsep import GaussianRational
from rootsep.balls import (
    RAD_BITS,
    CBall,
    RBall,
    RungTable,
    grid_cball,
    json_real,
    working_precision,
)
from rootsep.errors import BallDomainError

from oracles import exact_det, vandermonde_matrix


def _t(x) -> Fraction:
    """The exact rational value of a raw libmp tuple."""
    sign, man, exp, _ = x
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _q(x) -> Fraction:
    """The exact rational value of an mpf."""
    return _t(x._mpf_)


def _encloses_real(ball: RBall, x: Fraction) -> bool:
    return abs(_q(ball.mid) - x) <= _q(ball.rad)


def _encloses_complex(ball: CBall, z: GaussianRational) -> bool:
    dre = _q(ball.mid.real) - z.re
    dim = _q(ball.mid.imag) - z.im
    return dre * dre + dim * dim <= _q(ball.rad) ** 2


def _encloses_modulus(ball: RBall, z: GaussianRational) -> bool:
    """|z| lies in the ball, decided on squares."""
    lo = _q(ball.mid) - _q(ball.rad)
    hi = _q(ball.mid) + _q(ball.rad)
    return (lo <= 0 or lo * lo <= z.norm()) and z.norm() <= hi * hi


OPS = {"*": operator.mul, "/": operator.truediv}

# mixed signs, zero, integers and fractions that no binary float holds exactly
rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
)
gaussians = st.builds(GaussianRational, rationals, rationals)
# a real ball is nonnegative: every real the pipeline builds is one
nonnegatives = rationals.map(abs)
precisions = st.sampled_from([24, 64, 200])

# dyadic midpoints, exact at every precision used here, among them 0
dyadics = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda m, s: m / Fraction(2) ** s, st.integers(-(2**20), 2**20), st.integers(-8, 30)),
)
# tight radii just below 1, radii near 2^-1100, and plain ones
radii = st.one_of(
    st.just(Fraction(0)),
    st.integers(1, 64).map(lambda k: Fraction(2**60 - k, 2**60)),
    st.integers(-(2**20), 2**20).map(lambda k: Fraction(2**40 + k, 2**1140)),
    st.fractions(min_value=0, max_value=10, max_denominator=10**6),
)


def _mpf(x: Fraction):
    """x as an mpf, exactly (x is dyadic)."""
    return mpmath.mp.make_mpf(from_man_exp(x.numerator, -(x.denominator.bit_length() - 1)))


def _dyadic_above(x: Fraction) -> Fraction:
    """A dyadic rational >= x >= 0."""
    k = max(0, x.denominator.bit_length() - x.numerator.bit_length()) + 40
    return Fraction(-(-x.numerator * 2**k // x.denominator), 2**k)


def _real_ball(mid: Fraction, rad: Fraction):
    """The interval [mid - rad, mid + rad], mid >= 0, and points of it: the
    midpoint and both ends, a negative lower end raised to 0."""
    return RBall(_mpf(mid), rad), [mid, max(Fraction(0), mid - rad), mid + rad]


def _complex_ball(re: Fraction, im: Fraction, rad: Fraction):
    """The disk, and points of it: the centre and four points on the rim."""
    ball = CBall(mpmath.mpc(_mpf(re), _mpf(im)), rad)
    points = [(re, im), (re + rad, im), (re - rad, im), (re, im + rad), (re, im - rad)]
    return ball, [GaussianRational(a, b) for a, b in points]


def _holds_zero(ball: RBall) -> bool:
    return ball.lo <= 0 <= ball.hi


def _operands(x, y):
    """(ball, exact) pairs: the exact inputs, and results of one operation."""
    bx, by = RBall.exact(x), RBall.exact(y)
    out = [(bx, x), (by, y), (bx * by, x * y)]
    if y:
        out.append((bx / by, x / y))
    return out


class TestEnclosure:
    @settings(max_examples=150, deadline=None)
    @given(nonnegatives, nonnegatives, precisions)
    def test_real_operations(self, x, y, bits):
        with working_precision(bits):
            operands = _operands(x, y)
            for ba, a in operands:
                assert _encloses_real(ba, a)
                for bb, b in operands:
                    for op, f in OPS.items():
                        if op == "/" and _holds_zero(bb):
                            continue
                        assert _encloses_real(f(ba, bb), f(a, b)), (op, a, b)

    @settings(max_examples=100, deadline=None)
    @given(gaussians, precisions)
    def test_complex_operations(self, z, bits):
        # a CBall is a value: it is built from a Gaussian rational, rounded,
        # and its modulus is its one real ball
        with working_precision(bits):
            ball = CBall.from_gaussian(z)
            assert _encloses_complex(ball, z)
            assert _encloses_modulus(ball.abs(), z)

    @settings(max_examples=150, deadline=None)
    @given(dyadics, radii, dyadics, radii, precisions)
    def test_real_balls_with_tight_and_tiny_radii(self, x, rx, y, ry, bits):
        with working_precision(bits):
            bx, xs = _real_ball(abs(x), rx)
            by, ys = _real_ball(abs(y), ry)
            for op, f in OPS.items():
                if op == "/" and _holds_zero(by):
                    continue
                got = f(bx, by)
                for a in xs:
                    for b in ys:
                        assert _encloses_real(got, f(a, b)), (op, a, b)

    @settings(max_examples=100, deadline=None)
    @given(dyadics, dyadics, radii, precisions)
    def test_complex_balls_with_tight_and_tiny_radii(self, a, b, ra, bits):
        with working_precision(bits):
            bz, zs = _complex_ball(a, b, ra)
            for z in zs:
                assert _encloses_modulus(bz.abs(), z)

    @settings(max_examples=60, deadline=None)
    @given(nonnegatives, dyadics, radii, precisions)
    def test_division_by_a_ball_holding_zero_raises(self, x, y, ry, bits):
        # a radius of at least |mid| reaches 0
        with working_precision(bits):
            with pytest.raises(BallDomainError):
                RBall.exact(x) / RBall(_mpf(y), abs(y) + ry)

    @settings(max_examples=60, deadline=None)
    @given(rationals, dyadics, radii, precisions)
    def test_negative_input_raises_and_a_negative_lower_end_is_raised_to_zero(self, x, y, ry, bits):
        with working_precision(bits):
            if x < 0:
                with pytest.raises(BallDomainError):
                    RBall.exact(x)
            if y + ry < 0:
                with pytest.raises(BallDomainError):
                    RBall(_mpf(y), ry)
            else:
                ball = RBall(_mpf(y), ry)
                assert ball.lo >= 0 and (y - ry > 0 or ball.lo == 0)

    def test_a_modulus_reaching_zero_has_lower_end_zero(self):
        # a negative lower end, were it kept, would square into a positive one
        with working_precision(64):
            m = CBall(0, Fraction(1, 3)).abs()
            assert m.lo == 0 and (m * m).lo == 0
            assert _q(m.hi) >= Fraction(1, 3)
            table = RungTable.build([CBall(0, 1), CBall(mpmath.mpc(0.5, 0.5), 1)])
            d = table.distance(0, 1)
            assert d.lo == 0 and (d * d).lo == 0

    def test_product_of_tight_balls_at_zero(self):
        # the intervals [0, ra] and [0, rb] multiply to [0, ra rb], whose
        # upper end must be rounded up
        with working_precision(64):
            ra = mpmath.mpf(2**60 - 1) / 2**60
            rb = mpmath.mpf(2**60 - 3) / 2**60
            prod = RBall(0, ra) * RBall(0, rb)
            assert _encloses_real(prod, _q(ra) * _q(rb))

    def test_radii_carry_at_most_rad_bits(self):
        with working_precision(200):
            z = CBall.from_gaussian(GaussianRational.of(Fraction(1, 3), Fraction(2, 7)))
            w = RBall.exact(Fraction(5, 11))
            balls = (z, z.abs(), w * w, w / (w * w), w.sqrt(), w.root(3), w.powr(mpmath.mpf(1.5)), w.powi(-3))
            for ball in balls:
                assert ball.rad._mpf_[3] <= RAD_BITS


class TestEndpointMaps:
    """lo/hi, sqrt, root and powr, decided on exact powers."""

    @settings(max_examples=150, deadline=None)
    @given(dyadics, radii, precisions)
    def test_lo_hi_round_outward(self, x, rx, bits):
        with working_precision(bits):
            ball, points = _real_ball(abs(x), rx)
            for p in points:
                assert _q(ball.lo) <= p <= _q(ball.hi)
            assert 0 <= ball.lo <= ball.mid <= ball.hi

    @settings(max_examples=150, deadline=None)
    @given(dyadics, radii, precisions, st.sampled_from([2, 3, 5]))
    def test_sqrt_and_root(self, x, rx, bits, k):
        with working_precision(bits):
            ball, points = _real_ball(abs(x) + _dyadic_above(rx), rx)
            for name, got, n in (("sqrt", ball.sqrt(), 2), ("root", ball.root(k), k)):
                lo = _q(got.mid) - _q(got.rad)
                hi = _q(got.mid) + _q(got.rad)
                for p in points:
                    assert (lo <= 0 or lo**n <= p) and p <= hi**n, (name, p)

    @settings(max_examples=100, deadline=None)
    @given(dyadics, radii, precisions, st.sampled_from([(3, 2), (-1, 2), (5, 4), (-3, 1), (7, 8)]))
    def test_powr(self, x, rx, bits, e):
        num, den = e
        with working_precision(bits):
            ball, points = _real_ball(abs(x) + 2 * _dyadic_above(rx) + Fraction(1, 8), rx)
            got = ball.powr(mpmath.mpf(num) / den)
            lo = _q(got.mid) - _q(got.rad)
            hi = _q(got.mid) + _q(got.rad)
            for p in points:
                # p^(num/den) in [lo, hi], raised to the power den
                assert (lo <= 0 or lo**den <= p**num) and p**num <= hi**den, p

    def test_domain_errors(self):
        with working_precision(64):
            with pytest.raises(BallDomainError):
                RBall(1, 1).powi(-2)
            with pytest.raises(BallDomainError):
                RBall(1, 1).powr(mpmath.mpf(0.5))
            # mpmath's nan and infinities have mantissa 0, as zero does; only
            # the exponent 0 gives exactly 1
            one = RBall.exact(3).powr(mpmath.mpf(0))
            assert one.mid == 1 and one.rad == 0
            for e in ("nan", "inf", "-inf"):
                with pytest.raises(BallDomainError):
                    RBall.exact(3).powr(mpmath.mpf(e))


class TestModulusBounds:
    @settings(max_examples=200, deadline=None)
    @given(dyadics, dyadics, st.integers(-1200, 1200), precisions)
    def test_bounds_bracket_the_modulus(self, re, im, shift, bits):
        scale = Fraction(2) ** shift
        z = GaussianRational(re * scale, im * scale)
        with working_precision(bits):
            got = CBall(mpmath.mpc(_mpf(z.re), _mpf(z.im))).abs()
            assert got.rad._mpf_[3] <= RAD_BITS
            assert _encloses_modulus(got, z)

    def test_bound_where_hypot_undershoots(self):
        # mpf_hypot rounds x^2 + y^2 to nearest before its upward square
        # root, so its 'u' result lies below |x + iy| here; the modulus of
        # the disk still holds |x + iy|, at every precision
        x = from_man_exp(871384697841, 0)
        y = from_man_exp(206330329985, -7)
        z = GaussianRational(_t(x), _t(y))
        assert _t(mpf_hypot(x, y, RAD_BITS, "u")) ** 2 < z.norm()
        ball = CBall(mpmath.mpc(mpmath.mp.make_mpf(x), mpmath.mp.make_mpf(y)))
        for bits in (24, RAD_BITS, 64):
            with mpmath.mp.workprec(bits):
                assert _encloses_modulus(ball.abs(), z)


# root disks for the grid products: exact zeros and small rationals scaled
# by 2^-200, 1 or 2^200, or by 2^-3000 like a real root's imaginary noise,
# each widened by a radius from 0 up to 2^-1100 .. 2^-20
det_scales = st.sampled_from(
    [Fraction(1, 2**3000), Fraction(1, 2**200), Fraction(1), Fraction(2**200)]
)
det_parts = st.builds(
    lambda a, b, scale: Fraction(a, b) * scale,
    st.integers(-50, 50), st.integers(1, 12), det_scales,
)
_det_widened = st.tuples(
    st.builds(GaussianRational, det_parts, det_parts),
    st.one_of(
        st.just(Fraction(0)),
        st.integers(1, 2**20).map(lambda k: Fraction(k, 2**1120)),
        st.integers(1, 2**20).map(lambda k: Fraction(k, 2**40)),
    ),
    # where the point sits in the widened disk, as a unit-bounded offset
    st.sampled_from([(0, 0), (1, 0), (0, -1), (Fraction(-3, 5), Fraction(4, 5))]),
)
# one disk in five an exact zero
det_entries = st.integers(0, 4).flatmap(
    lambda k: _det_widened if k else st.just((GaussianRational.of(0), Fraction(0), (0, 0)))
)

# real disks: a real midpoint, and a point of the disk on the real line
_real_widened = st.tuples(
    st.builds(GaussianRational, det_parts, st.just(Fraction(0))),
    _det_widened.map(lambda entry: entry[1]),
    st.sampled_from([(0, 0), (1, 0), (-1, 0), (Fraction(1, 3), 0)]),
)
real_det_entries = st.integers(0, 4).flatmap(
    lambda k: _real_widened if k else st.just((GaussianRational.of(0), Fraction(0), (0, 0)))
)


class TestDeterminant:
    """det W, the product of the root differences on the rung grid, holds
    the Vandermonde determinant of a point in each disk."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(det_entries, min_size=1, max_size=6), precisions)
    def test_encloses_the_determinant_of_a_point_in_each_ball(self, entries, bits):
        self._check_enclosure(entries, bits)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(real_det_entries, min_size=1, max_size=6), precisions)
    def test_real_matrices_enclose_the_determinant(self, entries, bits):
        # real disks multiply on the X parts alone: det W stays real
        det_w = self._check_enclosure(entries, bits)
        assert det_w.mid.imag == 0

    @staticmethod
    def _check_enclosure(entries, bits):
        with working_precision(bits):
            balls, points = [], []
            for g, widen, (a, b) in entries:
                rounded = CBall.from_gaussian(g)
                balls.append(CBall(rounded.mid, _q(rounded.rad) + widen))
                points.append(g + GaussianRational(widen * a, widen * b))
            det_w = RungTable.build(balls).det_w
        assert _encloses_complex(det_w, exact_det(vandermonde_matrix(points)))
        return det_w

    def test_exact_part_below_the_grid_floors_into_the_radius(self):
        # 1 + 3 2^-3000 + 3i 2^-3000 on the grid 2^-3000, at 64 bits: the
        # real part rounds to 1 and its exact error joins the radius
        with working_precision(64):
            got = grid_cball(2**3000 + 3, 3, 0, 3000)
        assert got.mid.real == 1 and got.rad > 0
        assert _encloses_complex(got, GaussianRational.of(1 + Fraction(3, 2**3000), Fraction(3, 2**3000)))


class TestStoredModulus:
    def test_ball_from_another_precision_takes_the_modulus_again(self):
        # a CBall stores its midpoint and radius only, so a ball made at
        # another precision gives the same modulus as a fresh copy
        assert CBall.__slots__ == ("_m", "_r")
        with working_precision(64):
            made_low = CBall.from_gaussian(GaussianRational.of(Fraction(1, 3), Fraction(2, 7)))
        with working_precision(256):
            made_here = CBall(made_low.mid, made_low.rad)
            got, want = made_low.abs(), made_here.abs()
            assert repr(got.mid) == repr(want.mid) and repr(got.rad) == repr(want.rad)


class TestJson:
    def test_nonzero_values_below_the_double_range_are_strings(self):
        tiny = mpmath.ldexp(1, -4000)
        assert json_real(tiny) == mpmath.nstr(tiny, 17)
        assert json_real(-tiny) == mpmath.nstr(-tiny, 17)
        assert json_real(mpmath.mpf(0)) == 0.0
        assert json_real(mpmath.mpf(0.25)) == 0.25
        assert json_real(mpmath.ldexp(1, 4000)) == mpmath.nstr(mpmath.ldexp(1, 4000), 17)
        assert RBall(tiny, tiny).to_json() == {"mid": mpmath.nstr(tiny, 17), "rad": mpmath.nstr(tiny, 17)}

    def test_midpoint_parts_below_the_double_range_stay_floats(self):
        tiny = mpmath.ldexp(1, -4000)
        got = CBall(mpmath.mpc(2, tiny), tiny).to_json()
        assert got["re"] == 2.0 and got["im"] == 0.0
        assert got["rad"] == mpmath.nstr(tiny, 17)
