"""Midpoint-radius arithmetic over mpmath arbitrary-precision floats.

Every operation propagates the exact interval term and then pads the radius
with a small multiple of the midpoint's ulp, so the enclosure also absorbs
the rounding of the midpoint computation itself. All arithmetic happens at
the ambient mpmath precision; callers set it once per pipeline run via
`working_precision`.

Real balls (RBall) and complex balls (CBall) are immutable value objects.
A radius of exactly zero marks a value known to be an exact binary number.
A CBall also keeps |mid| and the precision it was taken at: every operation
computes the modulus of its result for the cushion, and later products,
quotients, `abs` and zero tests at the same precision read it instead of
taking another complex `hypot`.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from .errors import BallDomainError
from .gaussian import GaussianRational

#: extra bits carried internally above the user-requested precision
GUARD_BITS = 24

_ZERO = mpf(0)


@contextmanager
def working_precision(bits: int):
    """Set the ambient mpmath precision (plus guard bits) for a pipeline run."""
    with mp.workprec(bits + GUARD_BITS):
        yield


def json_real(x) -> float | str:
    """x as a JSON number, or as the string `mpmath.nstr(x, 17)` when it
    lies beyond the double range, where a float would be Infinity, which
    strict JSON does not have. Values below the range round to 0.0 as
    usual."""
    f = float(x)
    return f if math.isfinite(f) else mpmath.nstr(x, 17)


def _pad(a: mpf, prec: int) -> mpf:
    # 2^6 ulp cushion at precision `prec` for a midpoint of modulus `a`
    if a == 0:
        return _ZERO
    return mpmath.ldexp(a, 8 - prec)


def _slack(mid) -> mpf:
    # the cushion for the rounding of `mid` at the current precision
    return _pad(abs(mid), mp.prec)


def _as_mpf_pair(q: Fraction) -> tuple[mpf, mpf]:
    """Round a Fraction to the current precision; return (value, radius)."""
    if q.denominator == 1:
        v = mpf(q.numerator)
        if v == q.numerator:
            return v, _ZERO
        return v, _slack(v)
    v = mpf(q.numerator) / mpf(q.denominator)
    return v, 2 * _slack(v)


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


class RBall:
    """Real interval [mid - rad, mid + rad]."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=0):
        self.mid = mpf(mid) if not isinstance(mid, mpf) else mid
        r = mpf(rad) if not isinstance(rad, mpf) else rad
        if r < 0:
            raise ValueError("negative radius")
        self.rad = r

    @staticmethod
    def exact(x) -> "RBall":
        if isinstance(x, Fraction):
            v, r = _as_mpf_pair(x)
            return RBall(v, r)
        if isinstance(x, int):
            v = mpf(x)
            return RBall(v, _ZERO if v == x else _slack(v))
        return RBall(mpf(x), _ZERO)

    @staticmethod
    def one() -> "RBall":
        return RBall(mpf(1), _ZERO)

    @property
    def lo(self) -> mpf:
        if self.rad == 0:
            return self.mid
        return self.mid - self.rad - _slack(self.mid)

    @property
    def hi(self) -> mpf:
        if self.rad == 0:
            return self.mid
        return self.mid + self.rad + _slack(self.mid)

    def _coerce(self, other) -> "RBall | None":
        if isinstance(other, RBall):
            return other
        if isinstance(other, (int, Fraction)) or isinstance(other, mpf):
            return RBall.exact(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.mid + o.mid
        return RBall(m, self.rad + o.rad + _slack(m))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.mid - o.mid
        return RBall(m, self.rad + o.rad + _slack(m))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.mid * o.mid
        r = abs(self.mid) * o.rad + abs(o.mid) * self.rad + self.rad * o.rad
        return RBall(m, r + _slack(m))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        lb = abs(o.mid) - o.rad - _slack(o.mid)
        if lb <= 0:
            raise BallDomainError("division by a ball containing zero")
        m = self.mid / o.mid
        r = (self.rad + abs(m) * o.rad) / lb
        return RBall(m, r + _slack(m))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RBall(-self.mid, self.rad)

    def abs(self) -> "RBall":
        return RBall(abs(self.mid), self.rad)

    def sqrt(self) -> "RBall":
        lo = self.mid - self.rad
        if lo < 0:
            lo = _ZERO
        hi = self.mid + self.rad
        if hi < 0:
            raise BallDomainError("sqrt of a negative ball")
        slo = mpmath.sqrt(lo)
        shi = mpmath.sqrt(hi)
        m = (slo + shi) / 2
        return RBall(m, (shi - slo) / 2 + 2 * _slack(m))

    def root(self, k: int) -> "RBall":
        """k-th root of a nonnegative ball."""
        if k == 1:
            return self
        lo = self.mid - self.rad
        if lo < 0:
            lo = _ZERO
        hi = self.mid + self.rad
        if hi < 0:
            raise BallDomainError("root of a negative ball")
        slo = mpmath.root(lo, k) if lo > 0 else _ZERO
        shi = mpmath.root(hi, k) if hi > 0 else _ZERO
        m = (slo + shi) / 2
        return RBall(m, (shi - slo) / 2 + 2 * _slack(m))

    powi = _powi

    def powr(self, e) -> "RBall":
        """Real power of a strictly positive ball (monotone endpoints)."""
        e = mpf(e) if not isinstance(e, mpf) else e
        if e == 0:
            return RBall.one()
        lo = self.mid - self.rad
        if lo <= 0:
            raise BallDomainError("real power of a ball touching zero")
        hi = self.mid + self.rad
        a = lo**e
        b = hi**e
        if a > b:
            a, b = b, a
        m = (a + b) / 2
        return RBall(m, (b - a) / 2 + 4 * _slack(m))

    def max1(self) -> "RBall":
        """Enclosure of max(1, x)."""
        if self.mid - self.rad >= 1:
            return self
        hi = self.mid + self.rad
        if hi <= 1:
            return RBall.one()
        m = (1 + hi) / 2
        return RBall(m, (hi - 1) / 2 + _slack(m))

    def contains(self, x) -> bool:
        x = mpf(x) if not isinstance(x, mpf) else x
        return self.lo <= x <= self.hi

    def overlaps(self, other: "RBall") -> bool:
        return abs(self.mid - other.mid) <= self.rad + other.rad + _slack(self.mid) + _slack(other.mid)

    def __repr__(self):
        return f"RBall({mpmath.nstr(self.mid, 17)} +/- {mpmath.nstr(self.rad, 5)})"

    def to_json(self) -> dict:
        return {"mid": json_real(self.mid), "rad": json_real(self.rad)}


class CBall:
    """Complex disk {z : |z - mid| <= rad}.

    Each ball keeps |mid| together with the mpmath precision it was taken
    at, so operations that need the modulus again at that precision read it
    instead of computing another `hypot`. A ball used at another precision
    takes the modulus afresh; the stored value never changes a result.
    """

    __slots__ = ("mid", "rad", "_mod", "_mod_prec")

    def __init__(self, mid, rad=0):
        self.mid = mid if isinstance(mid, mpc) else mpc(mid)
        r = mpf(rad) if not isinstance(rad, mpf) else rad
        if r < 0:
            raise ValueError("negative radius")
        self.rad = r
        self._mod = None
        self._mod_prec = 0

    @staticmethod
    def _of(mid: mpc, rad: mpf, mod: mpf, prec: int) -> "CBall":
        """A ball whose |mid| = mod was taken at precision prec."""
        b = object.__new__(CBall)
        b.mid = mid
        b.rad = rad
        b._mod = mod
        b._mod_prec = prec
        return b

    def _modulus(self, prec: int) -> mpf:
        """|mid| at precision prec (the ambient one)."""
        if self._mod_prec != prec:
            self._mod = abs(self.mid)
            self._mod_prec = prec
        return self._mod

    @staticmethod
    def exact(x) -> "CBall":
        if isinstance(x, GaussianRational):
            return CBall.from_gaussian(x)
        if isinstance(x, Fraction):
            v, r = _as_mpf_pair(x)
            return CBall(mpc(v), r)
        if isinstance(x, int):
            v = mpf(x)
            return CBall(mpc(v), _ZERO if v == x else _slack(v))
        return CBall(mpc(x), _ZERO)

    @staticmethod
    def from_gaussian(g: GaussianRational) -> "CBall":
        re, rr = _as_mpf_pair(g.re)
        im, ri = _as_mpf_pair(g.im)
        return CBall(mpc(re, im), rr + ri)

    @staticmethod
    def one() -> "CBall":
        return CBall(mpc(1), _ZERO)

    def _coerce(self, other) -> "CBall | None":
        if isinstance(other, CBall):
            return other
        if isinstance(other, RBall):
            return CBall(mpc(other.mid), other.rad)
        if isinstance(other, (int, Fraction, GaussianRational)) or isinstance(other, (mpf, mpc, complex)):
            return CBall.exact(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.mid + o.mid
        prec = mp.prec
        a = abs(m)
        return CBall._of(m, self.rad + o.rad + _pad(a, prec), a, prec)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.mid - o.mid
        prec = mp.prec
        a = abs(m)
        return CBall._of(m, self.rad + o.rad + _pad(a, prec), a, prec)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.mid * o.mid
        prec = mp.prec
        r = self._modulus(prec) * o.rad + o._modulus(prec) * self.rad + self.rad * o.rad
        a = abs(m)
        return CBall._of(m, r + 2 * _pad(a, prec), a, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = mp.prec
        om = o._modulus(prec)
        lb = om - o.rad - _pad(om, prec)
        if lb <= 0:
            raise BallDomainError("division by a ball containing zero")
        m = self.mid / o.mid
        a = abs(m)
        r = (self.rad + a * o.rad) / lb
        return CBall._of(m, r + 2 * _pad(a, prec), a, prec)

    def __neg__(self):
        return CBall._of(-self.mid, self.rad, self._mod, self._mod_prec)

    def abs(self) -> RBall:
        prec = mp.prec
        a = self._modulus(prec)
        return RBall(a, self.rad + _pad(a, prec))

    def conj(self) -> "CBall":
        return CBall._of(mpc(self.mid.real, -self.mid.imag), self.rad, self._mod, self._mod_prec)

    powi = _powi

    def contains_zero(self) -> bool:
        prec = mp.prec
        a = self._modulus(prec)
        return a <= self.rad + _pad(a, prec)

    def overlaps(self, other: "CBall") -> bool:
        prec = mp.prec
        return abs(self.mid - other.mid) <= (
            self.rad + other.rad + _pad(self._modulus(prec), prec) + _pad(other._modulus(prec), prec)
        )

    def __repr__(self):
        return f"CBall({mpmath.nstr(self.mid, 17)} +/- {mpmath.nstr(self.rad, 5)})"

    def to_json(self) -> dict:
        return {
            "re": json_real(self.mid.real),
            "im": json_real(self.mid.imag),
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
    """Euclidean norm of a complex ball vector."""
    total = RBall.exact(0)
    for z in row:
        a = z.abs()
        total = total + a * a
    return total.sqrt()


def ball_det(matrix: "list[list[CBall]]") -> CBall:
    """Determinant by LU elimination with partial pivoting on |midpoint|.

    Raises BallDomainError when a pivot ball contains zero, which callers
    treat as a certification failure at the current precision.
    """
    n = len(matrix)
    prec = mp.prec
    m = [row[:] for row in matrix]
    det = CBall.one()
    sign = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda i: m[i][k]._modulus(prec))
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        if pivot.contains_zero():
            raise BallDomainError("singular-to-precision pivot in ball determinant")
        det = det * pivot
        for i in range(k + 1, n):
            if m[i][k].mid == 0 and m[i][k].rad == 0:
                continue
            f = m[i][k] / pivot
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - f * m[k][j]
    if sign < 0:
        det = -det
    return det
