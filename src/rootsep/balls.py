"""Midpoint-radius ball arithmetic on raw `mpmath.libmp` tuples.

Representation. A ball keeps its midpoint as raw libmp tuples
(sign, man, exp, bc), one for an `RBall` and a (re, im) pair for a `CBall`,
and its radius as one raw tuple of at most `RAD_BITS` bits. The `mid` and
`rad` properties wrap them as mpf/mpc for callers. A ball {x : |x - mid| <=
rad} contains its value: nothing is implied beyond the radius, and a radius
of exactly zero marks a value known to be an exact binary number.

Midpoints. Every operation rounds its midpoint to nearest at the ambient
mpmath precision p; callers set it once per pipeline run via
`working_precision`. Each real part is rounded once (`mpc_div` rounds twice,
at p + 10 and then at p), so a part below 2^t, with t = exp + bc read off
its tuple, is off by less than 2^(t - p). The cushion the radius takes for
this is 2^(t + 2 - p), with t the larger of the parts: a power of two read
off the tuples, with no modulus taken.

Radii. Every radius operation rounds upward at `RAD_BITS` bits
(`mpf_add`/`mpf_mul`/`mpf_div(..., RAD_BITS, 'u')`; radii are nonnegative, so
rounding away from zero is rounding up), so a radius is never below the
exact error term it stands for, also when the midpoint is 0.

Moduli. Products and quotients need |mid|. A `CBall` takes a `RAD_BITS`-bit
upper bound of it once (squares, their sum and the square root all rounded
up) and keeps it; the bound does not depend on the precision. Division and
`contains_zero` take the matching lower bound, rounded down throughout.
`mpf_hypot` serves neither: it rounds the sum of squares to nearest before
its directed square root. `lo`/`hi` round outward, and `sqrt`, `root`,
`powr` and `max1` map outward-rounded endpoints.

Determinants. `ball_det` eliminates on one grid of Gaussian integers per
matrix. An entry becomes (X + iY) / 2^w with its radius R a nonnegative int
in units of 2^-w, where w = p + `DET_GUARD_BITS` - min t and t = exp + bc of
the larger part of each entry whose midpoint clears its radius (t > exp +
bc of the radius, so |mid| > rad): every such entry keeps at least p bits
relative to its own modulus. An entry that does not clear its radius, such
as a midpoint of rounding noise below it, does not set the grid; it floors
into its radius units, as does a part far below the grid. Every rounding is
counted upward in whole units: each floored part adds 2 units (a floor
moves a part by less than 1), at the conversion, in each part of a
multiplier f = x/p and in each part of a product f t. The radius of f is
ceil((R_x |p|_lo + |x|_hi R_p) 2^w / (|p|_lo (|p|_lo - R_p))), and the
update c - f t adds ceil((|f|_hi R_t + R_f (|t|_hi + R_t)) / 2^w) to R_c,
with the moduli bounds from `math.isqrt` of X^2 + Y^2. The pivot is the
entry of largest exact X^2 + Y^2, the first on ties, and one with
isqrt(X^2 + Y^2) <= R may contain zero. When the pivot, the rest of its row
and a row's entry in its column are real, f is real and that row's update
changes X and R only: its Y products are all 0. An entry is converted to
the grid when its column is searched for a pivot, and the rest of its row
only when the row takes part in an update, so a triangular matrix costs
its diagonal. Only the pivots become balls again, with exact dyadic
midpoints and radii rounded up to RAD_BITS bits; the determinant is the
sign times their product.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpc_add,
    mpc_div,
    mpc_mul,
    mpc_neg,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_hypot,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_nthroot,
    mpf_pos,
    mpf_pow,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
)

from .errors import BallDomainError
from .gaussian import GaussianRational

#: extra bits carried internally above the user-requested precision
GUARD_BITS = 24

#: bits of every radius and modulus bound, all rounded in the safe direction
RAD_BITS = 30

_make_mpf = mp.make_mpf
_make_mpc = mp.make_mpc
_new = object.__new__


@contextmanager
def working_precision(bits: int):
    """Set the ambient mpmath precision (plus guard bits) for a pipeline run."""
    with mp.workprec(bits + GUARD_BITS):
        yield


def json_real(x) -> float | str:
    """x as a JSON number, or as the string `mpmath.nstr(x, 17)` when the
    float would misstate it: beyond the double range it is Infinity, which
    strict JSON does not have, and below it a nonzero x would read 0.0,
    which for a radius means exact."""
    f = float(x)
    return f if math.isfinite(f) and (f or not x) else mpmath.nstr(x, 17)


def _json_part(x) -> float | str:
    """A midpoint part: as `json_real`, except that a part below the double
    range is written 0.0, like the noise-level imaginary part of a real
    root."""
    f = float(x)
    return f if math.isfinite(f) else mpmath.nstr(x, 17)


# --- raw tuple helpers ------------------------------------------------------


def _up_add(a, b):
    return mpf_add(a, b, RAD_BITS, "u")


def _up_mul(a, b):
    return mpf_mul(a, b, RAD_BITS, "u")


def _real_cushion(m, prec):
    """2^(t + 2 - p) for a midpoint below 2^t, t = exp + bc, rounded at p
    bits; 0 for a zero midpoint, which is exact."""
    return (0, 1, m[2] + m[3] + 2 - prec, 1) if m[1] else fzero


def _complex_cushion(m, prec):
    re, im = m
    if re[1]:
        t = re[2] + re[3]
        if im[1]:
            t = max(t, im[2] + im[3])
    elif im[1]:
        t = im[2] + im[3]
    else:
        return fzero
    return (0, 1, t + 2 - prec, 1)


def _mod_up(m):
    """An upper bound of |re + i im| at RAD_BITS bits."""
    re, im = m
    if not im[1]:
        return mpf_abs(re, RAD_BITS, "u")
    if not re[1]:
        return mpf_abs(im, RAD_BITS, "u")
    s = mpf_add(mpf_mul(re, re, RAD_BITS, "u"), mpf_mul(im, im, RAD_BITS, "u"), RAD_BITS, "u")
    return mpf_sqrt(s, RAD_BITS, "u")


def _mod_down(m):
    """A lower bound of |re + i im| at RAD_BITS bits."""
    re, im = m
    if not im[1]:
        return mpf_abs(re, RAD_BITS, "d")
    if not re[1]:
        return mpf_abs(im, RAD_BITS, "d")
    s = mpf_add(mpf_mul(re, re, RAD_BITS, "d"), mpf_mul(im, im, RAD_BITS, "d"), RAD_BITS, "d")
    return mpf_sqrt(s, RAD_BITS, "d")


def _radius(rad):
    """A radius given by a caller, rounded up to RAD_BITS bits."""
    if isinstance(rad, mpf):
        t = rad._mpf_
    elif isinstance(rad, int):
        t = from_int(rad)
    elif isinstance(rad, Fraction):
        t = from_rational(rad.numerator, rad.denominator, RAD_BITS, "u")
    elif isinstance(rad, float):
        t = from_float(rad)
    else:
        t = mpf(rad)._mpf_
    if t[0]:
        raise ValueError("negative radius")
    return mpf_pos(t, RAD_BITS, "u")


def _exact_real(x, prec):
    """(midpoint, radius) tuples of a real number rounded at prec bits."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            v = from_rational(x.numerator, x.denominator, prec, "n")
            return v, _real_cushion(v, prec)
        x = x.numerator
    if isinstance(x, int):
        v = from_int(x)
        if v[3] <= prec:
            return v, fzero
        v = mpf_pos(v, prec, "n")
        return v, _real_cushion(v, prec)
    if isinstance(x, mpf):
        return x._mpf_, fzero
    if isinstance(x, float):
        return from_float(x), fzero
    return mpf(x)._mpf_, fzero


def _ends(m, r, prec):
    """[mid - rad, mid + rad] rounded outward at prec bits."""
    if not r[1]:
        return m, m
    return mpf_sub(m, r, prec, "f"), mpf_add(m, r, prec, "c")


def _bracket(y, prec):
    """Tuples at prec bits below and above the value that y approximates:
    y is off by less than 2^-(prec + 10) |y|, as a result computed at
    prec + 20 bits or more to within a few of its ulps is."""
    if not y[1]:
        return y, y
    e = (0, 1, y[2] + y[3] - prec - 10, 1)
    return mpf_sub(y, e, prec, "f"), mpf_add(y, e, prec, "c")


def _span(a, b, prec):
    """(midpoint, radius) of a ball holding the interval [a, b], where a and
    b carry at most prec bits."""
    if a == b:
        return a, fzero
    m = mpf_shift(mpf_add(a, b, prec, "n"), -1)
    r = mpf_sub(b, m, RAD_BITS, "u")
    s = mpf_sub(m, a, RAD_BITS, "u")
    return m, (s if mpf_lt(r, s) else r)


def _mid_product(a, b, prec):
    """The complex midpoint product, with a shortcut for real midpoints."""
    if a[1][1] or b[1][1]:
        return mpc_mul(a, b, prec, "n")
    return mpf_mul(a[0], b[0], prec, "n"), fzero


def _product_radius(r, x, y):
    """r + |mid x| rad y + rad x (|mid y| + rad y), rounded up: r plus what
    the product of the balls x and y adds to a radius."""
    rx, ry = x._r, y._r
    if ry[1]:
        r = _up_add(r, _up_mul(x._mag(), ry))
        if rx[1]:
            r = _up_add(r, _up_mul(rx, _up_add(y._mag(), ry)))
    elif rx[1]:
        r = _up_add(r, _up_mul(rx, y._mag()))
    return r


def _powi(self, n: int):
    """Integer power of a ball by binary exponentiation."""
    if n == 0:
        return type(self).one()
    if n < 0:
        return type(self).one() / self.powi(-n)
    result = None
    base = self
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _rball(m, r) -> "RBall":
    b = _new(RBall)
    b._m = m
    b._r = r
    return b


def _cball(m, r, a=None) -> "CBall":
    b = _new(CBall)
    b._m = m
    b._r = r
    b._a = a
    return b


class RBall:
    """Real interval [mid - rad, mid + rad]."""

    __slots__ = ("_m", "_r")

    def __init__(self, mid, rad=0):
        self._m = (mid if isinstance(mid, mpf) else mpf(mid))._mpf_
        self._r = _radius(rad)

    @property
    def mid(self) -> mpf:
        return _make_mpf(self._m)

    @property
    def rad(self) -> mpf:
        return _make_mpf(self._r)

    def _mag(self):
        """An upper bound of |mid|."""
        return mpf_abs(self._m, RAD_BITS, "u")

    @staticmethod
    def exact(x) -> "RBall":
        return _rball(*_exact_real(x, mp.prec))

    @staticmethod
    def one() -> "RBall":
        return _rball(fone, fzero)

    @property
    def lo(self) -> mpf:
        return _make_mpf(_ends(self._m, self._r, mp.prec)[0])

    @property
    def hi(self) -> mpf:
        return _make_mpf(_ends(self._m, self._r, mp.prec)[1])

    @staticmethod
    def _coerce(other) -> "RBall | None":
        if isinstance(other, RBall):
            return other
        if isinstance(other, (int, Fraction, mpf)):
            return RBall.exact(other)
        return None

    def __add__(self, other):
        o = other if type(other) is RBall else self._coerce(other)
        if o is None:
            return NotImplemented
        prec = mp.prec
        m = mpf_add(self._m, o._m, prec, "n")
        return _rball(m, _up_add(_up_add(self._r, o._r), _real_cushion(m, prec)))

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is RBall else self._coerce(other)
        if o is None:
            return NotImplemented
        prec = mp.prec
        m = mpf_sub(self._m, o._m, prec, "n")
        return _rball(m, _up_add(_up_add(self._r, o._r), _real_cushion(m, prec)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is RBall else self._coerce(other)
        if o is None:
            return NotImplemented
        prec = mp.prec
        m = mpf_mul(self._m, o._m, prec, "n")
        return _rball(m, _product_radius(_real_cushion(m, prec), self, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is RBall else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, ra, rb = self._m, o._m, self._r, o._r
        lb = mpf_sub(mpf_abs(b), rb, RAD_BITS, "d")
        if lb[0] or not lb[1]:
            raise BallDomainError("division by a ball containing zero")
        prec = mp.prec
        m = mpf_div(a, b, prec, "n")
        num = ra
        if rb[1]:
            q = mpf_div(mpf_abs(a, RAD_BITS, "u"), mpf_abs(b, RAD_BITS, "d"), RAD_BITS, "u")
            num = _up_add(num, _up_mul(q, rb))
        return _rball(m, _up_add(mpf_div(num, lb, RAD_BITS, "u"), _real_cushion(m, prec)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _rball(mpf_neg(self._m), self._r)

    def abs(self) -> "RBall":
        return _rball(mpf_abs(self._m), self._r)

    def sqrt(self) -> "RBall":
        prec = mp.prec
        lo, hi = _ends(self._m, self._r, prec)
        if hi[0]:
            raise BallDomainError("sqrt of a negative ball")
        a = fzero if lo[0] else mpf_sqrt(lo, prec, "f")
        return _rball(*_span(a, mpf_sqrt(hi, prec, "c"), prec))

    def root(self, k: int) -> "RBall":
        """k-th root of a nonnegative ball."""
        if k == 1:
            return self
        prec = mp.prec
        lo, hi = _ends(self._m, self._r, prec)
        if hi[0]:
            raise BallDomainError("root of a negative ball")
        a = fzero if lo[0] else _bracket(mpf_nthroot(lo, k, prec + 20), prec)[0]
        return _rball(*_span(a, _bracket(mpf_nthroot(hi, k, prec + 20), prec)[1], prec))

    powi = _powi

    def powr(self, e) -> "RBall":
        """Real power of a strictly positive ball (monotone endpoints)."""
        t = (e if isinstance(e, mpf) else mpf(e))._mpf_
        if not t[1]:
            return RBall.one()
        prec = mp.prec
        lo, hi = _ends(self._m, self._r, prec)
        if lo[0] or not lo[1]:
            raise BallDomainError("real power of a ball touching zero")
        # x^e = exp(e log x) loses about log2|e log x| bits to the logarithm
        wp = prec + 20 + max(abs(hi[2] + hi[3]), abs(lo[2] + lo[3])).bit_length() + max(0, t[2] + t[3])
        ya = _bracket(mpf_pow(lo, t, wp), prec)
        yb = _bracket(mpf_pow(hi, t, wp), prec)
        a = ya[0] if mpf_le(ya[0], yb[0]) else yb[0]
        b = yb[1] if mpf_le(ya[1], yb[1]) else ya[1]
        return _rball(*_span(a, b, prec))

    def max1(self) -> "RBall":
        """Enclosure of max(1, x)."""
        prec = mp.prec
        lo, hi = _ends(self._m, self._r, prec)
        if mpf_le(fone, lo):
            return self
        if mpf_le(hi, fone):
            return RBall.one()
        return _rball(*_span(fone, hi, prec))

    def contains(self, x) -> bool:
        x = (x if isinstance(x, mpf) else mpf(x))._mpf_
        lo, hi = _ends(self._m, self._r, mp.prec)
        return mpf_le(lo, x) and mpf_le(x, hi)

    def overlaps(self, other: "RBall") -> bool:
        """False only when the two balls are certainly disjoint."""
        gap = mpf_abs(mpf_sub(self._m, other._m, RAD_BITS, "d"))
        return mpf_le(gap, _up_add(self._r, other._r))

    def __repr__(self):
        return f"RBall({mpmath.nstr(self.mid, 17)} +/- {mpmath.nstr(self.rad, 5)})"

    def to_json(self) -> dict:
        return {"mid": json_real(self.mid), "rad": json_real(self.rad)}


class CBall:
    """Complex disk {z : |z - mid| <= rad}.

    Each ball keeps a RAD_BITS-bit upper bound of |mid| once a product or
    quotient has needed it. The bound is taken from the
    exact midpoint, so it is the same at every precision.
    """

    __slots__ = ("_m", "_r", "_a")

    def __init__(self, mid, rad=0):
        self._m = (mid if isinstance(mid, mpc) else mpc(mid))._mpc_
        self._r = _radius(rad)
        self._a = None

    @property
    def mid(self) -> mpc:
        return _make_mpc(self._m)

    @property
    def rad(self) -> mpf:
        return _make_mpf(self._r)

    def _mag(self):
        """The cached upper bound of |mid|."""
        a = self._a
        if a is None:
            a = self._a = _mod_up(self._m)
        return a

    @staticmethod
    def exact(x) -> "CBall":
        if isinstance(x, GaussianRational):
            return CBall.from_gaussian(x)
        if isinstance(x, mpc):
            return _cball(x._mpc_, fzero)
        if isinstance(x, complex):
            return _cball((from_float(x.real), from_float(x.imag)), fzero)
        m, r = _exact_real(x, mp.prec)
        return _cball((m, fzero), r)

    @staticmethod
    def from_gaussian(g: GaussianRational) -> "CBall":
        prec = mp.prec
        re, rr = _exact_real(g.re, prec)
        im, ri = _exact_real(g.im, prec)
        return _cball((re, im), _up_add(rr, ri))

    @staticmethod
    def one() -> "CBall":
        return _cball((fone, fzero), fzero, fone)

    @staticmethod
    def _coerce(other) -> "CBall | None":
        if isinstance(other, CBall):
            return other
        if isinstance(other, RBall):
            return _cball((other._m, fzero), other._r)
        if isinstance(other, (int, Fraction, GaussianRational, mpf, mpc, complex)):
            return CBall.exact(other)
        return None

    def __add__(self, other):
        o = other if type(other) is CBall else self._coerce(other)
        if o is None:
            return NotImplemented
        prec = mp.prec
        m = mpc_add(self._m, o._m, prec, "n")
        return _cball(m, _up_add(_up_add(self._r, o._r), _complex_cushion(m, prec)))

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is CBall else self._coerce(other)
        if o is None:
            return NotImplemented
        prec = mp.prec
        m = mpc_sub(self._m, o._m, prec, "n")
        return _cball(m, _up_add(_up_add(self._r, o._r), _complex_cushion(m, prec)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is CBall else self._coerce(other)
        if o is None:
            return NotImplemented
        prec = mp.prec
        m = _mid_product(self._m, o._m, prec)
        return _cball(m, _product_radius(_complex_cushion(m, prec), self, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is CBall else self._coerce(other)
        if o is None:
            return NotImplemented
        ra, rb = self._r, o._r
        low = _mod_down(o._m)
        lb = mpf_sub(low, rb, RAD_BITS, "d")
        if lb[0] or not lb[1]:
            raise BallDomainError("division by a ball containing zero")
        prec = mp.prec
        m = mpc_div(self._m, o._m, prec, "n")
        num = ra
        if rb[1]:
            num = _up_add(num, _up_mul(mpf_div(self._mag(), low, RAD_BITS, "u"), rb))
        return _cball(m, _up_add(mpf_div(num, lb, RAD_BITS, "u"), _complex_cushion(m, prec)))

    def __neg__(self):
        return _cball(mpc_neg(self._m), self._r, self._a)

    def abs(self) -> RBall:
        re, im = self._m
        if not im[1]:
            return _rball(mpf_abs(re), self._r)
        if not re[1]:
            return _rball(mpf_abs(im), self._r)
        prec = mp.prec
        a = mpf_hypot(re, im, prec, "n")
        return _rball(a, _up_add(self._r, _real_cushion(a, prec)))

    def conj(self) -> "CBall":
        re, im = self._m
        return _cball((re, mpf_neg(im)), self._r, self._a)

    powi = _powi

    def contains_zero(self) -> bool:
        return mpf_le(_mod_down(self._m), self._r)

    def overlaps(self, other: "CBall") -> bool:
        """False only when the two disks are certainly disjoint."""
        gap = _mod_down(mpc_sub(self._m, other._m, RAD_BITS, "d"))
        return mpf_le(gap, _up_add(self._r, other._r))

    def __repr__(self):
        return f"CBall({mpmath.nstr(self.mid, 17)} +/- {mpmath.nstr(self.rad, 5)})"

    def to_json(self) -> dict:
        mid = self.mid
        return {
            "re": _json_part(mid.real),
            "im": _json_part(mid.imag),
            "rad": json_real(self.rad),
        }


def ball_product(items, one=None):
    total = one
    for x in items:
        total = x if total is None else total * x
    if total is None:
        return RBall.one() if one is None else one
    return total


def ball_row_norm(row: "list[CBall]") -> RBall:
    """Euclidean norm of a complex ball vector: the norm of the midpoints,
    bracketed by sums of squares rounded down and up, widened by the norm
    of the radii (the triangle inequality)."""
    prec = mp.prec
    below = above = rads = fzero
    for z in row:
        for part in z._m:
            if part[1]:
                below = mpf_add(below, mpf_mul(part, part, prec, "d"), prec, "d")
                above = mpf_add(above, mpf_mul(part, part, prec, "u"), prec, "u")
        if z._r[1]:
            rads = _up_add(rads, _up_mul(z._r, z._r))
    m, r = _span(mpf_sqrt(below, prec, "f"), mpf_sqrt(above, prec, "c"), prec)
    return _rball(m, _up_add(r, mpf_sqrt(rads, RAD_BITS, "u")))


#: bits the determinant grid keeps beyond the working precision
DET_GUARD_BITS = 8


def _ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for an int n >= 0."""
    s = math.isqrt(n)
    return s + (s * s < n)


def _grid_part(part, w: int) -> tuple[int, bool]:
    """part times 2^w truncated toward 0, and whether that lost bits."""
    sign, man, exp, _ = part
    k = exp + w
    if k >= 0:
        v = man << k
        return (-v if sign else v), False
    v = man >> -k
    return (-v if sign else v), v << -k != man


def _grid_entry(z: CBall, w: int) -> tuple[int, int, int]:
    """(X, Y, R) with the disk of z inside {(X + iY + e) / 2^w : |e| <= R}:
    the parts truncated toward 0, the radius rounded up, and 2 units more
    for each part that lost bits."""
    (re, im), rad = z._m, z._r
    x, lost_x = _grid_part(re, w) if re[1] else (0, False)
    y, lost_y = _grid_part(im, w) if im[1] else (0, False)
    r = 2 * (lost_x + lost_y)
    if rad[1]:
        k = rad[2] + w
        r += rad[1] << k if k >= 0 else -(-rad[1] >> -k)
    return x, y, r


def _grid_row(row: "list[CBall]", k: int, w: int) -> list[list[int]]:
    """[X, Y, R] lists of a row on the grid from column k on, with zeros
    before it: the columns that the elimination has passed."""
    pad = [0] * k
    xs, ys, rs = zip(*[_grid_entry(z, w) for z in row[k:]])
    return [pad + list(xs), pad + list(ys), pad + list(rs)]


def _det_grid(matrix: "list[list[CBall]]") -> int:
    """The w of `ball_det`'s grid: p + DET_GUARD_BITS - min t, t = exp + bc
    of the larger part of each entry whose midpoint clears its radius
    (t > exp + bc of the radius, so |mid| >= 2^(t - 1) > rad)."""
    low = None
    for row in matrix:
        for z in row:
            (re, im), rad = z._m, z._r
            if re[1]:
                t = re[2] + re[3]
                if im[1]:
                    t = max(t, im[2] + im[3])
            elif im[1]:
                t = im[2] + im[3]
            else:
                continue
            if (not rad[1] or t > rad[2] + rad[3]) and (low is None or t < low):
                low = t
    return max(0, mp.prec + DET_GUARD_BITS - (0 if low is None else low))


def _grid_pivot(x: int, y: int, r: int, w: int) -> CBall:
    """The ball (x + iy +/- r) / 2^w: an exact midpoint, the radius rounded
    up to RAD_BITS bits."""
    return _cball(
        (from_man_exp(x, -w), from_man_exp(y, -w)),
        from_man_exp(r, -w, RAD_BITS, "u") if r else fzero,
    )


def _eliminate(rows, k1, pivot, tail, w) -> None:
    """row -= (x / p) pivot row on columns k1 and on, for each (row, x, y,
    r) in `rows`, with (x, y, r) the row's entry in the pivot column; the
    pivot is (px, py, pr, |p|_lo, |P|^2) and the tail (tx, ty, tr, reach)
    the pivot row's [X, Y, R] from k1 on and |t|_hi + R_t."""
    px, py, pr, lo, best = pivot
    tx, ty, tr, reach = tail
    den = lo * (lo - pr)
    for (xr, yr, rr), x, y, r in rows:
        fr = ((x * px + y * py) << w) // best
        fi = ((y * px - x * py) << w) // best
        # |x/p - X/P| <= (R_x |P| + |X| R_p) / (|P| (|P| - R_p)), falling in |P|
        rf = -(-((r * lo + _ceil_sqrt(x * x + y * y) * pr) << w) // den) + 4
        fm = _ceil_sqrt(fr * fr + fi * fi)
        xr[k1:] = [c - ((fr * a - fi * b) >> w) for c, a, b in zip(xr[k1:], tx, ty)]
        yr[k1:] = [c - ((fr * b + fi * a) >> w) for c, a, b in zip(yr[k1:], tx, ty)]
        # + |f| R_t + R_f (|t| + R_t), rounded up, and 2 units per floored part
        rr[k1:] = [c - (-(fm * a + rf * b) >> w) + 4 for c, a, b in zip(rr[k1:], tr, reach)]


def _eliminate_real(rows, k1, pivot, tail, w) -> None:
    """`_eliminate` where the pivot, its row's tail and every x are real:
    f is real, the Y products are all 0 and Y stays as it is. Only X and R
    change, by the same amounts as in `_eliminate`."""
    px, _, pr, lo, best = pivot
    tx, _, tr, reach = tail
    den = lo * (lo - pr)
    for (xr, _, rr), x, _, r in rows:
        f = ((x * px) << w) // best
        rf = -(-((r * lo + abs(x) * pr) << w) // den) + 4
        fm = abs(f)
        xr[k1:] = [c - ((f * a) >> w) for c, a in zip(xr[k1:], tx)]
        rr[k1:] = [c - (-(fm * a + rf * b) >> w) + 4 for c, a, b in zip(rr[k1:], tr, reach)]


def ball_det(matrix: "list[list[CBall]]") -> CBall:
    """Determinant by LU elimination on one grid of Gaussian integers, with
    partial pivoting on the exact squared moduli (first row on ties).

    The entries go to (X + iY) / 2^w with radii in units of 2^-w (see the
    module docstring), the elimination runs on Python ints with every
    rounding counted upward in whole units, and only the pivots become balls
    again: the determinant is the sign times their product. Entries reach
    the grid lazily, and real rows skip the imaginary parts.

    Raises BallDomainError when a pivot ball may contain zero, which callers
    treat as a certification failure at the current precision.
    """
    n = len(matrix)
    if not n:
        return CBall.one()
    w = _det_grid(matrix)
    rows = list(matrix)
    # [X, Y, R] of a row once it has taken part in an update, else None
    grid: list = [None] * n
    pivots = []
    sign = 1
    for k in range(n):
        col = [(g[0][k], g[1][k], g[2][k]) if g else _grid_entry(rows[i][k], w)
               for i, g in enumerate(grid[k:], k)]
        piv, best = 0, col[0][0] ** 2 + col[0][1] ** 2
        for i in range(1, len(col)):
            a = col[i][0] ** 2 + col[i][1] ** 2
            if a > best:
                piv, best = i, a
        if piv:
            rows[k], rows[k + piv] = rows[k + piv], rows[k]
            grid[k], grid[k + piv] = grid[k + piv], grid[k]
            col[0], col[piv] = col[piv], col[0]
            sign = -sign
        px, py, pr = col[0]
        lo = math.isqrt(best)
        if lo <= pr:
            raise BallDomainError("singular-to-precision pivot in ball determinant")
        pivots.append(_grid_pivot(px, py, pr, w))
        active = [(i, c) for i, c in enumerate(col[1:], k + 1) if c[0] or c[1] or c[2]]
        if not active:
            continue
        k1 = k + 1
        g = grid[k] or _grid_row(rows[k], k1, w)
        tx, ty, tr = g[0][k1:], g[1][k1:], g[2][k1:]
        real = not (py or any(ty))
        mods = [abs(a) for a in tx] if real else [_ceil_sqrt(a * a + b * b) for a, b in zip(tx, ty)]
        tail = (tx, ty, tr, [m + c for m, c in zip(mods, tr)])
        pivot = (px, py, pr, lo, best)
        updates = []
        for i, (x, y, r) in active:
            if grid[i] is None:
                grid[i] = _grid_row(rows[i], k1, w)
            updates.append((grid[i], x, y, r))
        if real:
            _eliminate_real([u for u in updates if not u[2]], k1, pivot, tail, w)
            updates = [u for u in updates if u[2]]
        if updates:
            _eliminate(updates, k1, pivot, tail, w)
    det = ball_product(pivots)
    return -det if sign < 0 else det
