"""Midpoint-radius ball arithmetic on raw `mpmath.libmp` tuples.

Representation. A ball keeps its midpoint as raw libmp tuples
(sign, man, exp, bc), one for an `RBall` and a (re, im) pair for a `CBall`,
and its radius as one raw tuple of at most `RAD_BITS` bits. The `mid` and
`rad` properties wrap them as mpf/mpc for callers. A ball {x : |x - mid| <=
rad} contains its value: nothing is implied beyond the radius, and a radius
of exactly zero marks a value known to be an exact binary number.

Midpoints. Every operation rounds its midpoint to nearest at the ambient
mpmath precision p; callers set it once per pipeline run via
`working_precision`. A midpoint below 2^t, with t = exp + bc read off its
tuple, is then off by less than 2^(t - p), and the radius takes the cushion
2^(t + 2 - p) for it: a power of two read off the tuple.

Radii. Every radius operation rounds upward at `RAD_BITS` bits
(`mpf_add`/`mpf_mul`/`mpf_div(..., RAD_BITS, 'u')`; radii are nonnegative, so
rounding away from zero is rounding up), so a radius is never below the
exact error term it stands for, also when the midpoint is 0.

Values and arithmetic. Only `RBall` computes: products, quotients, integer
and real powers and roots, which the bound assembly runs. A `CBall` is a
value: a root enclosure or a value the rung table reports, with no
arithmetic; `CBall.abs` is its one real ball. `lo`/`hi` round outward, and
`sqrt`, `root` and `powr` map outward-rounded endpoints.

The rung table. Each rung's certificate runs on Gaussian integers, and
only the values it reports become balls. A `RootSet` builds one
`RungTable` (`RootSet.table`), once, at its own precision, and every
root-dependent factor of a bound reads it: the LHS, |sDisc_{d-r}| through
det W, M(P) through max(1, |v_j|), the certificate and the root distances.
It puts every root midpoint on one grid (X + iY) / 2^w, with w
GRID_GUARD_BITS above the finest bit of any midpoint part, so the midpoints
are exact; a radius R is an int in units of 2^-w, rounded up. Root
differences are then exact, with radius R_i + R_j, and their products
(det W, the edge product, the step factors) are exact Gaussian-integer
products with radius prod(A + R) - prod(A), A = ceil|X + iY| by
`math.isqrt`. The table does not depend on the graph: `RungTable.edges`
takes the products over the edges of one, and `bounds` runs W_1's column
recurrence exactly on the same grid and checks the reduction identity on
those integers modulo q: a wrong W_1 passes at the midpoints only if the
prime ideal (q, i - iota) divides the difference of the two sides, and at a
second, hashed point with probability below r^2/q. `grid_cball` and `grid_rball` turn
grid values back into balls: the midpoint rounded to the working precision
with its exact rounding error added to the radius, and moduli as isqrt
brackets at the working precision (`grid_sqrt`: the grid of an exact root
can be coarse), widened by R.

Brackets. A value that is a product of many factors, such as a power of
max(1, |v_j|) (`RungTable.max1_power`, the one route for those powers) or
a row-norm bound, is carried as a bracket (lo, hi) of raw tuples, each
product and power rounded outward to `bracket_bits`, GRID_GUARD_BITS above
the working precision (`bracket_mul`, and `mpf_pow_int`, which rounds in
one direction throughout). Only the result becomes a ball (`bracket_ball`).
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
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
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_hypot,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_nthroot,
    mpf_pos,
    mpf_pow,
    mpf_pow_int,
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


def _at_prec(prec: int):
    """A context at mpmath precision `prec`: none is entered when `prec` is
    the ambient precision already, as on every nested call of a rung."""
    return nullcontext() if mp.prec == prec else mp.workprec(prec)


def working_precision(bits: int):
    """Set the ambient mpmath precision (plus guard bits) for a pipeline run."""
    return _at_prec(bits + GUARD_BITS)


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
    """(midpoint, radius) tuples of an int, Fraction or mpf rounded at prec
    bits."""
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
    return x._mpf_, fzero


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


def _rball(m, r) -> "RBall":
    b = _new(RBall)
    b._m = m
    b._r = r
    return b


def _cball(m, r) -> "CBall":
    b = _new(CBall)
    b._m = m
    b._r = r
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

    def __mul__(self, other):
        if type(other) is not RBall:
            return NotImplemented
        prec = mp.prec
        m = mpf_mul(self._m, other._m, prec, "n")
        return _rball(m, _product_radius(_real_cushion(m, prec), self, other))

    def __truediv__(self, other):
        if type(other) is not RBall:
            return NotImplemented
        a, b, ra, rb = self._m, other._m, self._r, other._r
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

    def powi(self, n: int) -> "RBall":
        """Integer power by binary exponentiation."""
        if n == 0:
            return RBall.one()
        if n < 0:
            return RBall.one() / self.powi(-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def powr(self, e) -> "RBall":
        """Real power of a strictly positive ball (monotone endpoints), for a
        finite exponent."""
        t = (e if isinstance(e, mpf) else mpf(e))._mpf_
        if t == fzero:
            return RBall.one()
        if not t[1]:  # nan and the infinities carry no mantissa
            raise BallDomainError("real power with a non-finite exponent")
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

    def overlaps(self, other: "RBall") -> bool:
        """False only when the two balls are certainly disjoint."""
        gap = mpf_abs(mpf_sub(self._m, other._m, RAD_BITS, "d"))
        return mpf_le(gap, _up_add(self._r, other._r))

    def __repr__(self):
        return f"RBall({mpmath.nstr(self.mid, 17)} +/- {mpmath.nstr(self.rad, 5)})"

    def to_json(self) -> dict:
        return {"mid": json_real(self.mid), "rad": json_real(self.rad)}


class CBall:
    """Complex disk {z : |z - mid| <= rad}: a value, with no arithmetic.

    Root enclosures and the values a rung table reports are CBalls; every
    computation on them runs on the rung grid (see the module docstring).
    """

    __slots__ = ("_m", "_r")

    def __init__(self, mid, rad=0):
        self._m = (mid if isinstance(mid, mpc) else mpc(mid))._mpc_
        self._r = _radius(rad)

    @property
    def mid(self) -> mpc:
        return _make_mpc(self._m)

    @property
    def rad(self) -> mpf:
        return _make_mpf(self._r)

    @staticmethod
    def from_gaussian(g: GaussianRational) -> "CBall":
        prec = mp.prec
        re, rr = _exact_real(g.re, prec)
        im, ri = _exact_real(g.im, prec)
        return _cball((re, im), _up_add(rr, ri))

    @staticmethod
    def one() -> "CBall":
        return _cball((fone, fzero), fzero)

    def abs(self) -> RBall:
        re, im = self._m
        if not im[1]:
            return _rball(mpf_abs(re), self._r)
        if not re[1]:
            return _rball(mpf_abs(im), self._r)
        prec = mp.prec
        a = mpf_hypot(re, im, prec, "n")
        return _rball(a, _up_add(self._r, _real_cushion(a, prec)))

    def __repr__(self):
        return f"CBall({mpmath.nstr(self.mid, 17)} +/- {mpmath.nstr(self.rad, 5)})"

    def to_json(self) -> dict:
        mid = self.mid
        return {
            "re": _json_part(mid.real),
            "im": _json_part(mid.imag),
            "rad": json_real(self.rad),
        }


def ball_product(items) -> RBall:
    """The product of real balls, RBall.one() for none."""
    total = None
    for x in items:
        total = x if total is None else total * x
    return RBall.one() if total is None else total


#: bits the rung grid, and every bracket, keep beyond the working precision
GRID_GUARD_BITS = 8


def _ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for an int n >= 0."""
    s = math.isqrt(n)
    return s + (s * s < n)


def _grid_part(part, w: int) -> int:
    """part times 2^w truncated toward 0."""
    sign, man, exp, _ = part
    k = exp + w
    v = man << k if k >= 0 else man >> -k
    return -v if sign else v


def _scaled(z: CBall) -> tuple[int, int, int, int]:
    """(X, Y, R, s) with z = (X + iY +/- R) / 2^s exactly, s the finest bit
    of any part, at least 0."""
    (re, im), rad = z._m, z._r
    s = 0
    for t in (re, im, rad):
        if t[1] and -t[2] > s:
            s = -t[2]
    return _grid_part(re, s), _grid_part(im, s), _grid_part(rad, s), s


def _place(x: int, y: int, r: int, k: int) -> tuple[int, int, int]:
    """(x + iy +/- r) 2^k as ints: exact for k >= 0, else each part floored
    with one unit of radius per floored part (a floor moves a part by less
    than one unit) and the radius rounded up."""
    if k >= 0:
        return x << k, y << k, r << k
    fx, fy = x >> -k, y >> -k
    return fx, fy, -(-r >> -k) + (fx << -k != x) + (fy << -k != y)


# --- the rung grid: values and brackets back as balls -------------------------


def grid_cball(x: int, y: int, r: int, s: int) -> CBall:
    """The ball (x + iy +/- r) / 2^s, its midpoint rounded to the working
    precision: the rounding error joins r exactly, and the radius is rounded
    up to RAD_BITS bits."""
    prec = mp.prec
    re, im = from_man_exp(x, -s, prec, "n"), from_man_exp(y, -s, prec, "n")
    # rounding keeps the exponent at -s or above, so 2^s re is an int
    r += abs(x - _grid_part(re, s)) + abs(y - _grid_part(im, s))
    return _cball((re, im), from_man_exp(r, -s, RAD_BITS, "u") if r else fzero)


def grid_rball(lo: int, hi: int, s: int) -> RBall:
    """A ball holding [lo, hi] / 2^s, lo <= hi: the midpoint rounded to the
    working precision, the radius its exact distance to the farther end,
    rounded up to RAD_BITS bits."""
    m = from_man_exp(lo + hi, -(s + 1), mp.prec, "n")
    mid = _grid_part(m, s + 1)
    r = max(2 * hi - mid, mid - 2 * lo)
    return _rball(m, from_man_exp(r, -(s + 1), RAD_BITS, "u") if r else fzero)


def grid_sqrt(n: int, s: int) -> tuple[int, int, int]:
    """(lo, hi, t) with lo / 2^t <= sqrt(n) / 2^s <= hi / 2^t, t >= s, and
    hi - lo <= 1 a unit at least GRID_GUARD_BITS below the working
    precision relative to sqrt(n): the isqrt bracket of n 4^(t - s)."""
    k = max(0, mp.prec + GRID_GUARD_BITS - n.bit_length() // 2)
    n <<= 2 * k
    return math.isqrt(n), _ceil_sqrt(n), s + k


def bracket_bits() -> int:
    """The bits every bracket keeps: GRID_GUARD_BITS above the working
    precision."""
    return mp.prec + GRID_GUARD_BITS


def bracket_mul(a, b) -> tuple:
    """The product of two brackets (lo, hi) of nonnegative numbers, raw
    tuples rounded outward to `bracket_bits`."""
    p = bracket_bits()
    return mpf_mul(a[0], b[0], p, "f"), mpf_mul(a[1], b[1], p, "c")


def bracket_ball(b) -> RBall:
    """A ball holding the bracket b = (lo, hi), lo <= hi: the midpoint
    rounded to the working precision, the radius rounded up."""
    return _rball(*_span(b[0], b[1], mp.prec))


# --- the rung table -----------------------------------------------------------


def _grid_product(items) -> tuple[int, int, int, int]:
    """The exact product of grid values (x, y, h, l), each x + iy with a
    radius h - l: (X, Y, H, L), X + iY the product of the midpoints and H -
    L its radius, H the product of the h and L of the l. With h = A + R and
    l = A, A >= |x + iy|, H - L = prod(A + R) - prod(A) bounds |prod z -
    prod(x + iy)| for z in the disks: expanding prod(x + iy + e), every
    term with an e is at most its majorant in A and R. The product runs as
    a balanced tree, which keeps Python's big-int multiplications even."""
    items = list(items)
    if not items:
        return 1, 0, 1, 1
    while len(items) > 1:
        paired = [
            (a * c - b * d, a * d + b * c, h * g, l * m)
            for (a, b, h, l), (c, d, g, m) in zip(items[::2], items[1::2])
        ]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def _grid_ball(product, n: int, w: int) -> CBall:
    """A `_grid_product` of n factors on the grid 2^-w as a ball."""
    x, y, h, l = product
    return grid_cball(x, y, h - l, n * w)


@dataclass(frozen=True)
class EdgeProducts:
    """The products over the edges of one graph, read off a rung table.

    sources[j] lists the sources of the edges finishing at j, and steps[i]
    is the exact `_grid_product` of (v_j - v_source) for the row replaced at
    step i, highest row first, with its factor count (None for rows without
    incoming edges). Each edge finishes at one row, so edge_product is the
    product of the steps, taken on the grid.
    """

    sources: tuple
    steps: tuple
    edge_product: CBall


@dataclass(frozen=True)
class RungTable:
    """One rung's root differences on one grid of Gaussian integers (see
    the module docstring); a `RootSet` builds its own once, on first use.

    nodes[j] = (X, Y, A + R, A) is root j, (X + iY) / 2^w exactly, with its
    radius R in units of 2^-w, rounded up, and A = ceil|X + iY|. diff[i, j]
    = (X_j - X_i, Y_j - Y_i, A + R, A) for i < j, R = R_i + R_j and A =
    ceil|X + iY|, is v_j - v_i exactly; when no root has a radius, A is 0
    throughout, so products carry radius 0 without any square root. det_w,
    the product over i < j of (v_j - v_i), is one exact product; max1[j] is
    the bracket (lo, hi) of max(1, |v_j|) over its disk: the `grid_sqrt`
    bracket of X^2 + Y^2 widened by R, as two exact raw tuples, whose
    powers `max1_power` takes; and edge_base is r/sqrt(3). Everything the
    table hands out, these balls and those of `distance` and `edges`, is
    taken at `prec`, the precision it was built at.
    """

    prec: int
    w: int
    nodes: tuple
    diff: dict
    max1: tuple
    edge_base: RBall
    det_w: CBall
    _edges: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def build(values: "list[CBall]") -> "RungTable":
        """The table of the root balls `values`, at the ambient precision."""
        r = len(values)
        w = max([0, *(-part[2] for v in values for part in v._m if part[1])]) + GRID_GUARD_BITS
        grid = [_place(x, y, rad, w - s) for x, y, rad, s in map(_scaled, values)]
        with_radius = any(rad for _, _, rad in grid)
        nodes = []
        for x, y, rad in grid:
            a = (_ceil_sqrt(x * x + y * y) if y else abs(x)) if with_radius else 0
            nodes.append((x, y, a + rad, a))
        diff = {}
        for j, (xj, yj, rj) in enumerate(grid):
            for i in range(j):
                xi, yi, ri = grid[i]
                x, y = xj - xi, yj - yi
                if with_radius:
                    a = _ceil_sqrt(x * x + y * y) if y else abs(x)
                    diff[i, j] = (x, y, a + ri + rj, a)
                else:
                    diff[i, j] = (x, y, 0, 0)
        max1 = []
        for x, y, rad in grid:
            lo, hi, t = grid_sqrt(x * x + y * y, w)
            rad, one = rad << (t - w), 1 << t
            max1.append((from_man_exp(max(one, lo - rad), -t), from_man_exp(max(one, hi + rad), -t)))
        return RungTable(
            prec=mp.prec,
            w=w,
            nodes=tuple(nodes),
            diff=diff,
            max1=tuple(max1),
            edge_base=RBall.exact(r) / RBall.exact(3).sqrt(),
            det_w=_grid_ball(_grid_product(diff.values()), len(diff), w),
        )

    def max1_power(self, j: int, k: int) -> tuple:
        """The bracket of max(1, |v_j|)^k, rounded outward to
        `bracket_bits` at the table's precision: the one route for these
        powers, which the row-norm bounds and the Mahler measure read."""
        lo, hi = self.max1[j]
        with _at_prec(self.prec):
            p = bracket_bits()
            return mpf_pow_int(lo, k, p, "f"), mpf_pow_int(hi, k, p, "c")

    def indistinct(self) -> "tuple[int, int] | None":
        """The first pair (i, j) whose difference may be 0 (X^2 + Y^2 <=
        R^2, decided exactly), or None."""
        for key, (x, y, h, l) in self.diff.items():
            if x * x + y * y <= (h - l) ** 2:
                return key
        return None

    def distance(self, i: int, j: int) -> RBall:
        """|v_j - v_i| as a ball."""
        x, y, h, l = self.diff[min(i, j), max(i, j)]
        with _at_prec(self.prec):
            lo, hi, t = grid_sqrt(x * x + y * y, self.w)
            r = (h - l) << (t - self.w)
            return grid_rball(lo - r, hi + r, t)

    def edges(self, g) -> EdgeProducts:
        """The step products and the edge product of the graph `g`, taken
        once per graph."""
        done = self._edges.get(g.oriented)
        if done is not None:
            return done
        r = len(self.nodes)
        # tuple() of lists throughout: of a generator it allocates 10 slots
        # and shrinks them, which leaves one more tuple on the free list of
        # the result's size per call, until that list holds 2000
        sources = tuple([tuple([a for a, _ in g.edges_into(j)]) for j in range(r)])
        steps = tuple([
            (_grid_product([self.diff[a, j] for a in sources[j]]), len(sources[j])) if sources[j] else None
            for j in range(r - 1, 0, -1)
        ])
        with _at_prec(self.prec):
            edge_product = _grid_ball(
                _grid_product([s[0] for s in steps if s is not None]), g.edge_count, self.w
            )
        done = self._edges[g.oriented] = EdgeProducts(sources, steps, edge_product)
        return done
