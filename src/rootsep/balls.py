"""Real intervals and complex disks on raw `mpmath.libmp` tuples.

Real values. Every real the pipeline builds is nonnegative: a modulus, a
root distance, a product, power or root of those, and its verdict reads
only the two ends of such values. An `RBall` is a closed interval [lo, hi],
0 <= lo <= hi, its ends raw libmp tuples (sign, man, exp, bc) rounded
outward at the ambient mpmath precision, which callers set once per
pipeline run via `working_precision`. A product is (lo lo' rounded down,
hi hi' up), a quotient (lo / hi' down, hi / lo' up), and `sqrt`, `root`,
`powi` and `powr` map the ends. Every constructor raises a negative lower
end to 0 and refuses an interval below 0 (`BallDomainError`). The `mid` and
`rad` a report writes are derived when read, at the bits the ends carry.

Complex values. A `CBall` is a disk {z : |z - mid| <= rad}: a root
enclosure, its `mpc` midpoint and `mpf` radius as root finding certified
them, the radius rounded up to `RAD_BITS` bits, or a value the rung table
reports. A radius of exactly zero marks a value known to be an exact binary
number. A `CBall` is a value, with no arithmetic, and nothing else becomes
one: an exact number enters a bound as an `RBall` of its modulus.
`CBall.abs` is its one real interval: the square roots of the exact re^2 +
im^2, rounded down and up, widened by the radius.

The rung table. Each rung's certificate runs on Gaussian integers, and
only the values it reports become balls. A `RootSet` builds one
`RungTable` (`RootSet.table`), once, at its own precision, and every
root-dependent factor of a bound reads it: the LHS, |sDisc_{d-r}| through
det W, M(P) and the row-norm bounds through the intervals max(1, |v_j|),
the certificate and the root distances. It puts every root midpoint on one
grid (X + iY) / 2^w, with w GRID_GUARD_BITS above the finest bit of any
midpoint part, so the midpoints are exact; a radius R is an int in units of
2^-w, rounded up. Root differences are then exact, with radius R_i + R_j,
and their products (det W, the edge product, the step factors) are exact
Gaussian-integer products with radius prod(A + R) - prod(A), A = ceil|X +
iY| by `math.isqrt`. The table does not depend on the graph:
`RungTable.edges` takes the products over the edges of one, and `bounds`
runs W_1's column recurrence exactly on the same grid and checks the
reduction identity on those integers modulo q: a wrong W_1 passes at the
midpoints only if the prime ideal (q, i - iota) divides the difference of
the two sides, and at a second, hashed point with probability below r^2/q.
`grid_cball` and `grid_rball` turn grid values back into balls: a disk's
midpoint rounded to the working precision with its exact rounding error
added to the radius, and an interval's ends rounded outward. Moduli are
isqrt brackets GRID_GUARD_BITS above the working precision (`grid_sqrt`:
the grid of an exact root can be coarse), widened by R. A binary number
becomes integers only through `_dyadic` (and `_scaled_floor` and
`_on_one_grid` on it), here and in the root finder.
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
    from_man_exp,
    from_rational,
    fzero,
    mpf_add,
    mpf_div,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_nthroot,
    mpf_pos,
    mpf_pow,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
)

from .errors import BallDomainError

#: extra bits carried internally above the user-requested precision
GUARD_BITS = 24

#: bits of every disk radius, and of the `rad` an interval reports, all
#: rounded up
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


def _dyadic(x) -> tuple[int, int]:
    """(m, e) with x = m 2^e exactly, m signed (mpmath's `man_exp` drops the
    sign), for an mpf, a raw libmp tuple or a finite float."""
    if isinstance(x, float):
        m, d = x.as_integer_ratio()
        return m, 1 - d.bit_length()
    sign, man, exp, _ = x._mpf_ if isinstance(x, mpf) else x
    return (-man if sign else man), exp


def _scaled_floor(x, w: int) -> int:
    """floor(x 2^w) for any x `_dyadic` takes: exact when 2^-w is at or
    below the finest bit of x."""
    m, e = _dyadic(x)
    return m << (e + w) if e + w >= 0 else m >> -(e + w)


def _on_one_grid(values) -> tuple[list[int], int]:
    """(ints, w), each of `values` (any x `_dyadic` takes) ints[k] / 2^w
    exactly, w >= 0 the finest bit among them: one `_dyadic` per value."""
    pairs = [_dyadic(x) for x in values]
    w = max([0, *(-e for m, e in pairs if m)])
    return [m << (e + w) if m else 0 for m, e in pairs], w


def _bracket(y, prec):
    """Tuples at prec bits below and above the value that y approximates:
    y is off by less than 2^-(prec + 10) |y|, as a result computed at
    prec + 20 bits or more to within a few of its ulps is."""
    if not y[1]:
        return y, y
    e = (0, 1, y[2] + y[3] - prec - 10, 1)
    return mpf_sub(y, e, prec, "f"), mpf_add(y, e, prec, "c")


def _rball(lo, hi) -> "RBall":
    b = _new(RBall)
    b._lo = lo
    b._hi = hi
    return b


def _nonnegative(lo, hi) -> "RBall":
    """The interval [lo, hi], lo <= hi, with a negative lower end raised to
    0; an interval below 0 raises BallDomainError."""
    if hi[0]:
        raise BallDomainError("a real ball below 0")
    return _rball(fzero if lo[0] else lo, hi)


def _cball(m, r) -> "CBall":
    b = _new(CBall)
    b._m = m
    b._r = r
    return b


class RBall:
    """Closed interval [lo, hi] of nonnegative reals (see the module
    docstring)."""

    __slots__ = ("_lo", "_hi")

    @staticmethod
    def exact(x) -> "RBall":
        """x, an int, Fraction or mpf: an mpf as it is, the others with
        their ends rounded outward at the working precision."""
        if isinstance(x, mpf):
            return _nonnegative(x._mpf_, x._mpf_)
        x, prec = Fraction(x), mp.prec
        n, d = x.numerator, x.denominator
        return _nonnegative(from_rational(n, d, prec, "f"), from_rational(n, d, prec, "c"))

    @staticmethod
    def one() -> "RBall":
        return _rball(fone, fone)

    @property
    def lo(self) -> mpf:
        return _make_mpf(self._lo)

    @property
    def hi(self) -> mpf:
        return _make_mpf(self._hi)

    def _mid_rad(self):
        """(mid, rad) tuples of a ball holding the interval: the midpoint
        rounded to nearest two bits above its ends' (exact when they end at
        one bit), the radius its distance to the farther end, rounded up to
        RAD_BITS bits."""
        a, b = self._lo, self._hi
        if a == b:
            return a, fzero
        m = mpf_shift(mpf_add(a, b, max(a[3], b[3]) + 2, "n"), -1)
        r, s = mpf_sub(b, m, RAD_BITS, "u"), mpf_sub(m, a, RAD_BITS, "u")
        return m, (s if mpf_lt(r, s) else r)

    @property
    def mid(self) -> mpf:
        return _make_mpf(self._mid_rad()[0])

    @property
    def rad(self) -> mpf:
        return _make_mpf(self._mid_rad()[1])

    def __mul__(self, other):
        if type(other) is not RBall:
            return NotImplemented
        prec = mp.prec
        return _rball(mpf_mul(self._lo, other._lo, prec, "f"), mpf_mul(self._hi, other._hi, prec, "c"))

    def __truediv__(self, other):
        if type(other) is not RBall:
            return NotImplemented
        if not other._lo[1]:
            raise BallDomainError("division by a ball containing zero")
        prec = mp.prec
        return _rball(mpf_div(self._lo, other._hi, prec, "f"), mpf_div(self._hi, other._lo, prec, "c"))

    def sqrt(self) -> "RBall":
        prec = mp.prec
        return _rball(mpf_sqrt(self._lo, prec, "f"), mpf_sqrt(self._hi, prec, "c"))

    def root(self, k: int) -> "RBall":
        """k-th root."""
        if k == 1:
            return self
        prec = mp.prec
        lo, hi = self._lo, self._hi
        a = _bracket(mpf_nthroot(lo, k, prec + 20), prec)[0] if lo[1] else fzero
        return _rball(a, _bracket(mpf_nthroot(hi, k, prec + 20), prec)[1])

    def powi(self, n: int) -> "RBall":
        """Integer power: the ends' powers by `mpf_pow_int`, which rounds in
        one direction throughout."""
        prec = mp.prec
        lo, hi = self._lo, self._hi
        if n < 0:
            if not lo[1]:
                raise BallDomainError("negative power of a ball containing zero")
            lo, hi = hi, lo
        return _rball(mpf_pow_int(lo, n, prec, "f"), mpf_pow_int(hi, n, prec, "c"))

    def powr(self, e) -> "RBall":
        """Real power of a strictly positive ball (monotone endpoints), for a
        finite exponent."""
        t = (e if isinstance(e, mpf) else mpf(e))._mpf_
        if t == fzero:
            return RBall.one()
        if not t[1]:  # nan and the infinities carry no mantissa
            raise BallDomainError("real power with a non-finite exponent")
        lo, hi = self._lo, self._hi
        if not lo[1]:
            raise BallDomainError("real power of a ball touching zero")
        prec = mp.prec
        # x^e = exp(e log x) loses about log2|e log x| bits to the logarithm
        wp = prec + 20 + max(abs(hi[2] + hi[3]), abs(lo[2] + lo[3])).bit_length() + max(0, t[2] + t[3])
        ya = _bracket(mpf_pow(lo, t, wp), prec)
        yb = _bracket(mpf_pow(hi, t, wp), prec)
        a = ya[0] if mpf_le(ya[0], yb[0]) else yb[0]
        b = yb[1] if mpf_le(ya[1], yb[1]) else ya[1]
        return _rball(a, b)

    def overlaps(self, other: "RBall") -> bool:
        """False only when the two intervals are disjoint."""
        return mpf_le(self._lo, other._hi) and mpf_le(other._lo, self._hi)

    def __repr__(self):
        return f"RBall({mpmath.nstr(self.mid, 17)} +/- {mpmath.nstr(self.rad, 5)})"

    def to_json(self) -> dict:
        m, r = self._mid_rad()
        return {"mid": json_real(_make_mpf(m)), "rad": json_real(_make_mpf(r))}


class CBall:
    """Complex disk {z : |z - mid| <= rad}: a value, with no arithmetic.

    Root enclosures and the values a rung table reports are CBalls; every
    computation on them runs on the rung grid (see the module docstring).
    """

    __slots__ = ("_m", "_r")

    def __init__(self, mid: mpc, rad: mpf):
        """The disk root finding certified: nothing else is rounded into
        one, so anything but an mpc midpoint and an mpf radius raises
        TypeError. The radius is rounded up to RAD_BITS bits."""
        if not (isinstance(mid, mpc) and isinstance(rad, mpf)):
            raise TypeError("a CBall takes an mpc midpoint and an mpf radius")
        r = rad._mpf_
        if r[0]:
            raise ValueError("negative radius")
        self._m = mid._mpc_
        self._r = mpf_pos(r, RAD_BITS, "u")

    @property
    def mid(self) -> mpc:
        return _make_mpc(self._m)

    @property
    def rad(self) -> mpf:
        return _make_mpf(self._r)

    @staticmethod
    def one() -> "CBall":
        return _cball((fone, fzero), fzero)

    def abs(self) -> RBall:
        """|z| over the disk: the square roots of the exact re^2 + im^2,
        rounded down and up at the working precision, widened by the
        radius."""
        (re, im), r = self._m, self._r
        n = mpf_add(mpf_mul(re, re), mpf_mul(im, im))
        prec = mp.prec
        lo, hi = mpf_sqrt(n, prec, "f"), mpf_sqrt(n, prec, "c")
        if not r[1]:
            return _rball(lo, hi)
        return _nonnegative(mpf_sub(lo, r, prec, "f"), mpf_add(hi, r, prec, "c"))

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


#: bits the rung grid, and every isqrt bracket, keep beyond the working
#: precision
GRID_GUARD_BITS = 8


def _ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for an int n >= 0."""
    s = math.isqrt(n)
    return s + (s * s < n)


# --- the rung grid: values back as balls ------------------------------------


def grid_cball(x: int, y: int, r: int, s: int) -> CBall:
    """The ball (x + iy +/- r) / 2^s, its midpoint rounded to the working
    precision: the rounding error joins r exactly, and the radius is rounded
    up to RAD_BITS bits."""
    prec = mp.prec
    re, im = from_man_exp(x, -s, prec, "n"), from_man_exp(y, -s, prec, "n")
    # rounding keeps the exponent at -s or above, so 2^s re is an int
    r += abs(x - _scaled_floor(re, s)) + abs(y - _scaled_floor(im, s))
    return _cball((re, im), from_man_exp(r, -s, RAD_BITS, "u") if r else fzero)


def grid_rball(lo: int, hi: int, s: int) -> RBall:
    """The interval [lo, hi] / 2^s, lo <= hi, its ends rounded outward at
    the working precision and a negative lower end raised to 0."""
    prec = mp.prec
    return _nonnegative(from_man_exp(lo, -s, prec, "f"), from_man_exp(hi, -s, prec, "c"))


def grid_sqrt(n: int, s: int) -> tuple[int, int, int]:
    """(lo, hi, t) with lo / 2^t <= sqrt(n) / 2^s <= hi / 2^t, t >= s, and
    hi - lo <= 1 a unit at least GRID_GUARD_BITS below the working
    precision relative to sqrt(n): the isqrt bracket of n 4^(t - s)."""
    k = max(0, mp.prec + GRID_GUARD_BITS - n.bit_length() // 2)
    n <<= 2 * k
    return math.isqrt(n), _ceil_sqrt(n), s + k


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
    the interval of max(1, |v_j|) over its disk: the `grid_sqrt` bracket of
    X^2 + Y^2 widened by R, whose powers `max1[j].powi(k)` the row-norm
    bounds and the Mahler measure take; and edge_base is r/sqrt(3).
    Everything the table hands out, these balls and those of `distance`
    and `edges`, is taken at `prec`, the precision it was built at.
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
        # w is above every midpoint's finest bit: the midpoints land on the
        # grid exactly, and each radius is rounded up onto it
        mids, s = _on_one_grid([part for v in values for part in v._m])
        w, g = s + GRID_GUARD_BITS, GRID_GUARD_BITS
        grid = [(x << g, y << g, -_scaled_floor(mpf_neg(v._r), w))
                for x, y, v in zip(mids[::2], mids[1::2], values)]
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
            max1.append(grid_rball(max(one, lo - rad), max(one, hi + rad), t))
        return RungTable(
            prec=mp.prec,
            w=w,
            nodes=tuple(nodes),
            diff=diff,
            max1=tuple(max1),
            edge_base=RBall.exact(r) / RBall.exact(3).sqrt(),
            det_w=_grid_ball(_grid_product(diff.values()), len(diff), w),
        )

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
