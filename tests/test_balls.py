"""Ball arithmetic: enclosure of exact results, the modulus of a disk, and
the grid products a rung table reports."""
import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_hypot

from rootsep import GaussianRational
from rootsep.balls import (
    RAD_BITS,
    CBall,
    RBall,
    RungTable,
    _dyadic,
    _on_one_grid,
    _scaled_floor,
    grid_cball,
    grid_rball,
    json_real,
    working_precision,
)
from rootsep.errors import BallDomainError
from rootsep.invariants import _abs_ball

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


def _mpc(re: Fraction, im: Fraction):
    """re + i im as an mpc, exactly (both parts are dyadic)."""
    return mpmath.mp.make_mpc((_mpf(re)._mpf_, _mpf(im)._mpf_))


#: the grid the test intervals and disks are placed on: finer than every
#: dyadic and radius the strategies draw
_S = 3200


def _interval(lo: Fraction, hi: Fraction) -> RBall:
    """An interval holding [lo, hi], through `grid_rball`: the ends floored
    and ceiled onto the grid 2^-_S, then rounded outward."""
    return grid_rball(math.floor(lo * 2**_S), math.ceil(hi * 2**_S), _S)


def _disk(g: GaussianRational, widen: Fraction = Fraction(0)) -> CBall:
    """A disk holding every point within `widen` of g, through `grid_cball`:
    g's parts floored onto the grid 2^-_S, one unit of radius for each
    inexact floor, `widen` rounded up, and the midpoint rounded to the
    working precision with its error added to the radius."""
    x, y = math.floor(g.re * 2**_S), math.floor(g.im * 2**_S)
    units = (x != g.re * 2**_S) + (y != g.im * 2**_S) + math.ceil(widen * 2**_S)
    return grid_cball(x, y, units, _S)


def _real_ball(mid: Fraction, rad: Fraction):
    """The interval [mid - rad, mid + rad], mid >= 0, and points of it: the
    midpoint and both ends, a negative lower end raised to 0."""
    return _interval(mid - rad, mid + rad), [mid, max(Fraction(0), mid - rad), mid + rad]


def _complex_ball(re: Fraction, im: Fraction, rad: Fraction):
    """The disk, its radius rounded up to a dyadic, and points of it: the
    centre and four points on the rim."""
    ball = CBall(_mpc(re, im), _mpf(_dyadic_above(rad)))
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
        # a CBall is a value: the rung grid reports it, rounded, and its
        # modulus is its one real ball
        with working_precision(bits):
            ball = _disk(z)
            assert _encloses_complex(ball, z)
            assert _encloses_modulus(ball.abs(), z)

    @settings(max_examples=150, deadline=None)
    @given(gaussians, precisions)
    def test_modulus_of_an_exact_value(self, g, bits):
        # an exact |lc|, |Disc| or |sDisc| enters a bound through
        # `_abs_ball`: lo^2 <= |g|^2 <= hi^2, compared in Fractions
        with working_precision(bits):
            got = _abs_ball(g)
        lo, hi = _q(got.lo), _q(got.hi)
        assert 0 <= lo and lo * lo <= g.norm() <= hi * hi

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
                RBall.exact(x) / _interval(y - abs(y) - ry, y + abs(y) + ry)

    @settings(max_examples=60, deadline=None)
    @given(rationals, dyadics, radii, precisions)
    def test_negative_input_raises_and_a_negative_lower_end_is_raised_to_zero(self, x, y, ry, bits):
        with working_precision(bits):
            if x < 0:
                with pytest.raises(BallDomainError):
                    RBall.exact(x)
            if y + ry < 0:
                with pytest.raises(BallDomainError):
                    _interval(y - ry, y + ry)
            else:
                ball = _interval(y - ry, y + ry)
                assert ball.lo >= 0 and (y - ry > 0 or ball.lo == 0)

    def test_a_modulus_reaching_zero_has_lower_end_zero(self):
        # a negative lower end, were it kept, would square into a positive one
        with working_precision(64):
            m = CBall(mpmath.mpc(0), _mpf(_dyadic_above(Fraction(1, 3)))).abs()
            assert m.lo == 0 and (m * m).lo == 0
            assert _q(m.hi) >= Fraction(1, 3)
            one = mpmath.mpf(1)
            table = RungTable.build([CBall(mpmath.mpc(0), one), CBall(mpmath.mpc(0.5, 0.5), one)])
            d = table.distance(0, 1)
            assert d.lo == 0 and (d * d).lo == 0

    def test_product_of_tight_balls_at_zero(self):
        # the intervals [0, ra] and [0, rb] multiply to [0, ra rb], whose
        # upper end must be rounded up
        with working_precision(64):
            ra = mpmath.mpf(2**60 - 1) / 2**60
            rb = mpmath.mpf(2**60 - 3) / 2**60
            prod = _interval(Fraction(0), _q(ra)) * _interval(Fraction(0), _q(rb))
            assert _encloses_real(prod, _q(ra) * _q(rb))

    def test_radii_carry_at_most_rad_bits(self):
        with working_precision(200):
            z = _disk(GaussianRational.of(Fraction(1, 3), Fraction(2, 7)))
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
                _interval(Fraction(0), Fraction(2)).powi(-2)
            with pytest.raises(BallDomainError):
                _interval(Fraction(0), Fraction(2)).powr(mpmath.mpf(0.5))
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
            got = CBall(_mpc(z.re, z.im), mpmath.mpf(0)).abs()
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
        ball = CBall(mpmath.mp.make_mpc((x, y)), mpmath.mpf(0))
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
                balls.append(_disk(g, widen))
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
            made_low = _disk(GaussianRational.of(Fraction(1, 3), Fraction(2, 7)))
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
        # the interval [0, 2 tiny]
        assert grid_rball(0, 2, 4000).to_json() == {"mid": mpmath.nstr(tiny, 17), "rad": mpmath.nstr(tiny, 17)}

    def test_midpoint_parts_below_the_double_range_stay_floats(self):
        tiny = mpmath.ldexp(1, -4000)
        got = CBall(mpmath.mpc(2, tiny), tiny).to_json()
        assert got["re"] == 2.0 and got["im"] == 0.0
        assert got["rad"] == mpmath.nstr(tiny, 17)


# signed mantissas, among them 0, and exponents from 2^-1100 up
_mantissas = st.one_of(st.just(0), st.integers(-(2**80), 2**80))
_exponents = st.integers(-1100, 60)
_shifts = st.integers(-1200, 1200)


class TestDyadic:
    """`_dyadic` and `_scaled_floor`, the one route by which a binary number
    becomes integers, against the exact value."""

    @settings(max_examples=200, deadline=None)
    @given(_mantissas, _exponents, _shifts)
    @example(-3, -2, 0)  # -3/4 floors to -1
    def test_mpf_and_raw_tuple(self, m, e, w):
        x = Fraction(m) * Fraction(2) ** e
        value = mpmath.mp.make_mpf(from_man_exp(m, e))
        for form in (value, value._mpf_):
            dm, de = _dyadic(form)
            assert Fraction(dm) * Fraction(2) ** de == x
            assert _scaled_floor(form, w) == math.floor(x * Fraction(2) ** w)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), _shifts)
    @example(-0.75, 1)  # floors to -2
    def test_float(self, f, w):
        dm, de = _dyadic(f)
        assert Fraction(dm) * Fraction(2) ** de == Fraction(f)
        assert _scaled_floor(f, w) == math.floor(Fraction(f) * Fraction(2) ** w)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_mantissas, _exponents), max_size=6), st.lists(st.floats(-1e300, 1e300), max_size=3))
    def test_one_grid(self, pairs, floats):
        values = [mpmath.mp.make_mpf(from_man_exp(m, e)) for m, e in pairs] + floats
        ints, w = _on_one_grid(values)
        exact = [_q(x) if isinstance(x, mpmath.mpf) else Fraction(x) for x in values]
        assert w >= 0 and [Fraction(n, 2**w) for n in ints] == exact
        # w is the finest bit: no coarser grid holds every value
        assert w == 0 or any(n % 2 for n in ints)
