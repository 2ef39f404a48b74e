"""Univariate polynomial arithmetic.

ExactPoly carries Gaussian-rational coefficients and supports the exact
operations the rest of the pipeline relies on: derivative, gcd, and
square-free decomposition (Yun), which determines the multiplicity structure
of the roots.

Both gcds and subresultants come from one subresultant polynomial remainder
sequence (Brown-Traub; in Ducos' formulation) on Gaussian-integer coefficient
pairs: the gcd is its last nonzero element, and the principal subresultant
coefficients are read off its elements. Its coefficients are minors of the
Sylvester matrix, so their size stays polynomial in the degree whatever the
content of the input.

NumericPoly carries complex floating coefficients at a stated precision; it
exists as an input mode and offers Horner evaluation with a certified
rounding radius relative to its stored coefficients.

The zero polynomial is a dedicated state (empty coefficient tuple, is_zero
flag); asking for its degree is an error rather than a sentinel value.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from mpmath import mpc

from .balls import CBall, working_precision
from .errors import ValidationError
from .gaussian import GR_ONE, GR_ZERO, GaussianRational


def _coerce_scalar(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational.of(c)
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


@dataclass(frozen=True)
class ExactPoly:
    """Polynomial over the Gaussian rationals, coefficients lowest degree first.

    An empty coefficient tuple represents the zero polynomial. For nonzero
    polynomials the leading coefficient is guaranteed nonzero.
    """

    coeffs: tuple[GaussianRational, ...]

    @staticmethod
    def from_coeffs(seq) -> "ExactPoly":
        cs = [_coerce_scalar(c) for c in seq]
        while cs and cs[-1].is_zero:
            cs.pop()
        return ExactPoly(tuple(cs))

    @staticmethod
    def zero() -> "ExactPoly":
        return ExactPoly(())

    @staticmethod
    def constant(c) -> "ExactPoly":
        return ExactPoly.from_coeffs([c])

    @staticmethod
    def x() -> "ExactPoly":
        return ExactPoly((GR_ZERO, GR_ONE))

    @staticmethod
    def from_roots(roots, multiplicities=None, lead=1) -> "ExactPoly":
        """lead * prod (X - root_i)^{m_i}, expanded exactly."""
        p = ExactPoly.constant(lead)
        if multiplicities is None:
            multiplicities = [1] * len(roots)
        for root, m in zip(roots, multiplicities):
            factor = ExactPoly.from_coeffs([-_coerce_scalar(root), GR_ONE])
            for _ in range(m):
                p = p * factor
        return p

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def leading(self) -> GaussianRational:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly.from_coeffs(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly.from_coeffs(
            [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        if self.is_zero or other.is_zero:
            return ExactPoly.zero()
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ExactPoly.from_coeffs(out)

    def scale(self, c) -> "ExactPoly":
        c = _coerce_scalar(c)
        if c.is_zero:
            return ExactPoly.zero()
        return ExactPoly(tuple(a * c for a in self.coeffs))

    def monic(self) -> "ExactPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.leading
        if lc == GR_ONE:
            return self
        return ExactPoly(tuple(a / lc for a in self.coeffs))

    def divmod(self, other: "ExactPoly") -> "tuple[ExactPoly, ExactPoly]":
        """Field division: self = q * other + r with deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return ExactPoly.zero(), ExactPoly.zero()
        if self.degree < other.degree:
            return ExactPoly.zero(), self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        q = [GR_ZERO] * (dq + 1)
        lc = other.leading
        for k in range(dq, -1, -1):
            c = rem[other.degree + k] / lc
            q[k] = c
            if not c.is_zero:
                for i, b in enumerate(other.coeffs):
                    rem[i + k] = rem[i + k] - c * b
        return ExactPoly.from_coeffs(q), ExactPoly.from_coeffs(rem[: other.degree])

    def __floordiv__(self, other: "ExactPoly") -> "ExactPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "ExactPoly":
        if self.is_zero or self.degree == 0:
            return ExactPoly.zero()
        return ExactPoly.from_coeffs(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))]
        )

    def eval_exact(self, z) -> GaussianRational:
        z = _coerce_scalar(z)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __str__(self) -> str:
        from .parsing import render_exact_poly

        return render_exact_poly(self)


# ---------------------------------------------------------------------------
# the subresultant chain over the Gaussian integers
# ---------------------------------------------------------------------------
# A Gaussian integer is a pair (re, im) of ints; a polynomial is a list of
# such pairs, lowest degree first, with a nonzero last entry.


def _gmul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _gdiv_exact(x, y):
    a, b = x
    c, d = y
    den = c * c + d * d
    if den == 0:
        raise ZeroDivisionError("Gaussian integer division by zero")
    nre = a * c + b * d
    nim = b * c - a * d
    qre, rre = divmod(nre, den)
    qim, rim = divmod(nim, den)
    if rre or rim:
        raise ArithmeticError("inexact Gaussian integer division")
    return (qre, qim)


def _gpow(x, n: int):
    out = (1, 0)
    for _ in range(n):
        out = _gmul(out, x)
    return out


def _scaled_int_coeffs(p: ExactPoly) -> tuple[list[tuple[int, int]], int]:
    """Coefficients as Gaussian integers after clearing denominators; returns
    (scaled coefficients, the positive scaling factor)."""
    den = lcm(*(part.denominator for c in p.coeffs for part in (c.re, c.im)))
    return [
        (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for c in p.coeffs
    ], den


def _prem(a, b):
    """lc(b)^(deg a - deg b + 1) * a reduced modulo b, for deg a >= deg b."""
    lc = b[-1]
    n = len(b) - 1
    rem = list(a)
    for k in range(len(a) - len(b), -1, -1):
        top = rem.pop()
        rem = [_gmul(c, lc) for c in rem]
        for i in range(n):
            t = _gmul(top, b[i])
            c = rem[k + i]
            rem[k + i] = (c[0] - t[0], c[1] - t[1])
    while rem and rem[-1] == (0, 0):
        rem.pop()
    return rem


def _subresultant_chain(a, b) -> dict[int, list]:
    """The nonzero subresultants S_j of (a, b), deg a >= deg b, keyed by j.

    The coefficients of S_j are determinants of the Sylvester submatrix with
    rows X^k a (k < deg b - j) above X^k b (k < deg a - j); S_{deg b} is
    lc(b)^(deg a - deg b - 1) b, or b itself when the degrees are equal. An
    index missing from the result has S_j = 0, and the smallest key holds the
    last nonzero element, a greatest common divisor of a and b. Every
    division below is exact (Ducos, JPAA 145, 2000).
    """
    p, q = len(a) - 1, len(b) - 1
    chain = {q: [_gmul(c, _gpow(b[-1], max(p - q - 1, 0))) for c in b]}
    s = _gpow(b[-1], p - q)
    A, B = b, _prem(a, [(-x, -y) for x, y in b])
    while B:
        d, e = len(A) - 1, len(B) - 1
        chain[d - 1] = B
        # S_e = lc(S_{d-1})^(d-e-1) S_{d-1} / s^(d-e-1), the next regular element
        num, den = _gpow(B[-1], d - e - 1), _gpow(s, d - e - 1)
        C = [_gdiv_exact(_gmul(c, num), den) for c in B]
        chain[e] = C
        if e == 0:
            break
        den = _gmul(_gpow(s, d - e), A[-1])
        B = [_gdiv_exact(c, den) for c in _prem(A, [(-x, -y) for x, y in B])]
        A, s = C, C[-1]
    return chain


def _principal_coefficients(a: ExactPoly, b: ExactPoly) -> list[GaussianRational]:
    """Principal subresultant coefficients psc_0 .. psc_{deg b} of (a, b),
    deg a > deg b, read off one chain: psc_j is the X^j coefficient of S_j."""
    (ca, la), (cb, lb) = _scaled_int_coeffs(a), _scaled_int_coeffs(b)
    chain = _subresultant_chain(ca, cb)
    p, q = a.degree, b.degree
    out = []
    for j in range(q + 1):
        s_j = chain.get(j, ())
        re, im = s_j[j] if len(s_j) > j else (0, 0)
        # rows of a carry la once each, rows of b carry lb once each
        scale = la ** (q - j) * lb ** (p - j)
        out.append(GaussianRational(Fraction(re, scale), Fraction(im, scale)))
    return out


def gcd_exact(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Monic gcd over the Gaussian rationals: the last nonzero element of the
    subresultant chain, made monic."""
    if a.is_zero and b.is_zero:
        raise ValidationError("gcd of two zero polynomials is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree < b.degree:
        a, b = b, a
    chain = _subresultant_chain(_scaled_int_coeffs(a)[0], _scaled_int_coeffs(b)[0])
    last = chain[min(chain)]
    return ExactPoly(tuple(GaussianRational.of(re, im) for re, im in last)).monic()


def square_free_decomposition(p: ExactPoly) -> list[tuple[ExactPoly, int]]:
    """Yun decomposition: p = lc * prod factor_i^{mult_i} with monic, pairwise
    coprime, square-free factors. Output ordered by increasing multiplicity."""
    if p.is_zero or p.degree == 0:
        raise ValidationError("square-free decomposition needs degree >= 1")
    pm = p.monic()
    dp = pm.derivative()
    g = gcd_exact(pm, dp)
    if g.degree == 0:
        return [(pm, 1)]
    out: list[tuple[ExactPoly, int]] = []
    w = pm // g
    y = dp // g
    z = y - w.derivative()
    i = 1
    while w.degree > 0:
        gi = gcd_exact(w, z)
        if gi.degree > 0:
            out.append((gi.monic(), i))
        w = w // gi
        if w.degree == 0:
            break
        y = z // gi
        z = y - w.derivative()
        i += 1
    return out


@dataclass(frozen=True)
class NumericPoly:
    """Polynomial with complex floating coefficients at a stated precision."""

    coeffs: tuple[mpc, ...]
    precision: int

    def __post_init__(self):
        if not self.coeffs:
            raise ValidationError("numeric polynomial needs at least one coefficient")
        if abs(self.coeffs[-1]) == 0:
            raise ValidationError("numeric polynomial has zero leading coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> mpc:
        return self.coeffs[-1]


def eval_poly(p, z, precision: int | None = None) -> CBall:
    """Horner evaluation returning a ball whose radius covers all rounding.

    Exact polynomials contribute only conversion ulps; numeric polynomials are
    evaluated relative to their stored coefficients. With `precision` set the
    evaluation runs at that precision, otherwise at the ambient one.
    """
    if precision is not None:
        with working_precision(precision):
            return eval_poly(p, z)
    zb = z if isinstance(z, CBall) else CBall.exact(z)
    if isinstance(p, ExactPoly):
        if p.is_zero:
            return CBall.exact(0)
        cs = [CBall.from_gaussian(c) for c in p.coeffs]
    elif isinstance(p, NumericPoly):
        cs = [CBall(c) for c in p.coeffs]
    else:
        raise TypeError(f"cannot evaluate {type(p).__name__}")
    return _horner(cs, zb)[0]


def _horner(coeffs, z):
    """Value and derivative of sum coeffs[k] z^k in one pass, in the
    arithmetic of z (mpc or CBall)."""
    p = coeffs[-1]
    dp = 0 * z
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp
