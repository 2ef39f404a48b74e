"""Univariate polynomial arithmetic.

ExactPoly is a polynomial over the Gaussian rationals, held as Gaussian-integer
numerators over one positive denominator in lowest terms. All of its
arithmetic runs on those integers: sums, products, derivative, monic scaling,
exact division, gcd and square-free decomposition (Yun), which determines the
multiplicity structure of the roots. Division by a constant takes no long
division: it is one scaling of the numerators (`_over`). `GaussianRational`
appears only at the edges, as the scalar type of `coeffs`, `coeff` and
`leading`.

Both gcds and subresultants come from one subresultant polynomial remainder
sequence (Brown-Traub; in Ducos' formulation) on the same Gaussian-integer
numerators: the gcd is its last nonzero element, and the principal
subresultant coefficients are read off its elements. Its coefficients are
minors of the Sylvester matrix, so their size stays polynomial in the degree
whatever the content of the input. Yun's first gcd is the chain of (monic P,
its derivative), and `square_free_decomposition` returns that chain's
principal coefficients with its factors, so that the subresultants of
(P, P') cost no second chain.

Most inputs are square-free, and for them Yun needs no chain at all:
`square_free_decomposition` first maps the numerators of monic P to F_q for
one fixed prime q = 1 (mod 4), i to a square root of -1, and runs Euclid on
(P mod q, P' mod q). When the leading coefficient survives and that gcd is
a nonzero constant, P is square-free (Brown, JACM 18, 1971): a nontrivial
gcd over the Gaussian integers divides P, so by Gauss's lemma its leading
coefficient divides lc(P) and its degree survives the reduction. An unlucky
prime can only raise the gcd's degree mod q, so it costs the chain, never a
wrong answer. The chain's principal coefficients are then built only when
they are read (`Decomposition.heads`).

Every polynomial the package handles is an ExactPoly: the parser reads a
decimal literal as its exact rational. The module needs no ball arithmetic;
`_horner` evaluates the floating-point copies of a factor's coefficients
that the roots' float phase iterates on.

The zero polynomial is a dedicated state (no numerators, is_zero flag);
asking for its degree is an error rather than a sentinel value.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ValidationError
from .gaussian import GR_ONE, GR_ZERO, GaussianRational


def _coerce_scalar(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational.of(c)
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


# ---------------------------------------------------------------------------
# Gaussian integers
# ---------------------------------------------------------------------------
# A Gaussian integer is a pair (re, im) of ints; the numerators of an
# ExactPoly and the elements of the subresultant chain are tuples or lists of
# such pairs, lowest degree first, with a nonzero last entry.


def _gmul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _gdiv_exact(x, y):
    a, b = x
    c, d = y
    den = c * c + d * d
    qre, rre = divmod(a * c + b * d, den)
    qim, rim = divmod(b * c - a * d, den)
    if rre or rim:
        raise ArithmeticError("inexact Gaussian integer division")
    return (qre, qim)


def _gpow(x, n: int):
    out = (1, 0)
    for _ in range(n):
        out = _gmul(out, x)
    return out


@dataclass(frozen=True)
class ExactPoly:
    """Polynomial over the Gaussian rationals: Gaussian-integer numerators
    (re, im), lowest degree first, over one positive denominator.

    Every constructor and operation returns lowest terms (the gcd of `den` and
    every part of `nums` is 1, and the last numerator is nonzero), so equality
    and hashing are value equality. The zero polynomial has no numerators.
    `coeffs`, `coeff` and `leading` give `GaussianRational` values.
    """

    nums: tuple[tuple[int, int], ...]
    den: int = 1

    @staticmethod
    def from_coeffs(seq) -> "ExactPoly":
        cs = [_coerce_scalar(c) for c in seq]
        # star-args and tuple() take lists here: from a generator they shrink
        # an over-allocated tuple, which leaves one more on a free list per call
        den = lcm(*[part.denominator for c in cs for part in (c.re, c.im)])
        return _reduced(
            [(c.re.numerator * (den // c.re.denominator),
              c.im.numerator * (den // c.im.denominator)) for c in cs],
            den,
        )

    @staticmethod
    def zero() -> "ExactPoly":
        return ExactPoly(())

    @staticmethod
    def constant(c) -> "ExactPoly":
        return ExactPoly.from_coeffs([c])

    @staticmethod
    def x() -> "ExactPoly":
        return ExactPoly(((0, 0), (1, 0)))

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
        return not self.nums

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no degree")
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        return tuple([self.coeff(k) for k in range(len(self.nums))])

    @property
    def leading(self) -> GaussianRational:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def coeff(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.nums):
            re, im = self.nums[k]
            return GaussianRational(Fraction(re, self.den), Fraction(im, self.den))
        return GR_ZERO

    @staticmethod
    def sum_of(polys) -> "ExactPoly":
        """The sum of `polys`, over the lcm of their denominators, reduced
        once."""
        polys = list(polys)
        den = lcm(*[p.den for p in polys])
        n = max([len(p.nums) for p in polys], default=0)
        res, ims = [0] * n, [0] * n
        for p in polys:
            s = den // p.den
            for k, (re, im) in enumerate(p.nums):
                res[k] += re * s
                ims[k] += im * s
        return _reduced(list(zip(res, ims)), den)

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        return ExactPoly.sum_of((self, other))

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return ExactPoly.sum_of((self, -other))

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(tuple([(-re, -im) for re, im in self.nums]), self.den)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        if len(self.nums) < len(other.nums):
            # the outer loop skips zero numerators, as in c * x^k: run it over
            # the longer factor
            self, other = other, self
        out = [(0, 0)] * (len(self.nums) + len(other.nums) - 1)
        for i, (a, b) in enumerate(self.nums):
            if a or b:
                for j, (c, d) in enumerate(other.nums, i):
                    re, im = out[j]
                    out[j] = (re + a * c - b * d, im + a * d + b * c)
        return _reduced(out, self.den * other.den)

    def scale(self, c) -> "ExactPoly":
        return self * ExactPoly.constant(c)

    def monic(self) -> "ExactPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return _over(self.nums, 1, self.nums[-1])

    def __floordiv__(self, other: "ExactPoly") -> "ExactPoly":
        """The exact quotient; raises ValueError when `other` does not divide."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(other.nums) == 1:
            # a constant: no long division
            q, scale = self.nums, other.nums[0]
        else:
            q, rem = _pdivmod(self.nums, other.nums)
            if rem:
                raise ValueError("inexact polynomial division")
            # q = lc^(m+1) * nums / other.nums, m the degree difference
            scale = _gpow(other.nums[-1], len(self.nums) - len(other.nums) + 1)
        return _over([(re * other.den, im * other.den) for re, im in q], self.den, scale)

    def derivative(self) -> "ExactPoly":
        return _reduced([(k * re, k * im) for k, (re, im) in enumerate(self.nums)][1:], self.den)

    def eval_exact(self, z) -> GaussianRational:
        z = _coerce_scalar(z)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __str__(self) -> str:
        from .parsing import render_exact_poly

        return render_exact_poly(self)


def _reduced(nums: list, den: int) -> ExactPoly:
    """nums / den in lowest terms, den > 0, trailing zeros dropped."""
    while nums and nums[-1] == (0, 0):
        nums.pop()
    if not nums:
        return ExactPoly(())
    if den != 1:
        # the leading numerator alone often leaves no common factor
        g = gcd(den, *nums[-1])
        if g != 1:
            g = gcd(g, *[part for c in nums for part in c])
        if g != 1:
            nums = [(re // g, im // g) for re, im in nums]
            den //= g
    return ExactPoly(tuple(nums), den)


def _over(nums, den: int, mu: tuple[int, int]) -> ExactPoly:
    """nums / (den * mu) for a nonzero Gaussian integer mu, normalized."""
    a, b = mu
    if not b:
        # a real mu needs no conjugate, and its square would only cancel
        if a < 0:
            return _reduced([(-re, -im) for re, im in nums], den * -a)
        return _reduced(list(nums), den * a)
    return _reduced([(re * a + im * b, im * a - re * b) for re, im in nums], den * (a * a + b * b))


# ---------------------------------------------------------------------------
# the subresultant chain over the Gaussian integers
# ---------------------------------------------------------------------------


def _pdivmod(a, b):
    """(q, r) with lc(b)^(m+1) a = q b + r and deg r < deg b, m = deg a - deg b
    (q = 0 and r = a when m < 0); every step of the long division is an exact
    division by lc(b)."""
    lc = b[-1]
    m = len(a) - len(b)
    scale = _gpow(lc, m + 1)
    rem = [_gmul(c, scale) for c in a]
    q = []
    for k in range(m, -1, -1):
        c = _gdiv_exact(rem.pop(), lc)
        q.append(c)
        for i, x in enumerate(b[:-1], k):
            t = _gmul(c, x)
            rem[i] = (rem[i][0] - t[0], rem[i][1] - t[1])
    while rem and rem[-1] == (0, 0):
        rem.pop()
    return q[::-1], rem


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
    A, B = b, _pdivmod(a, [(-x, -y) for x, y in b])[1]
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
        B = [_gdiv_exact(c, den) for c in _pdivmod(A, [(-x, -y) for x, y in B])[1]]
        A, s = C, C[-1]
    return chain


def _chain_heads(chain: dict, q: int) -> tuple:
    """The X^j coefficient of S_j for j = 0 .. q, (0, 0) where S_j = 0."""
    heads = []
    for j in range(q + 1):
        s_j = chain.get(j, ())
        heads.append(s_j[j] if len(s_j) > j else (0, 0))
    return tuple(heads)


def _derivative_coefficients(p: ExactPoly, heads: tuple, js) -> list[GaussianRational]:
    """psc_j of (P, P') for each j in `js`, from the `heads` of the chain of
    (monic P, its derivative) that `square_free_decomposition` builds; only
    the entries asked for are scaled.

    P = lc * monic P and P' = lc * (monic P)', and psc_j is a determinant
    with d - 1 - j rows of the first and d - j rows of the second, so
    psc_j(P, P') = lc^(2d - 1 - 2j) psc_j(monic P, (monic P)'); the chain
    runs on the numerators, so the d - 1 - j rows of monic P bring its
    denominator once each, and the d - j rows of the derivative theirs.
    With lc = g / den, the scaling runs on integers and ends in one Fraction
    per part.
    """
    pm = p.monic()
    la, lb = pm.den, pm.derivative().den
    d, g, den = p.degree, p.nums[-1], p.den
    out = []
    for j in js:
        n = 2 * d - 1 - 2 * j
        re, im = _gmul(heads[j], _gpow(g, n))
        scale = la ** (d - 1 - j) * lb ** (d - j) * den ** n
        out.append(GaussianRational(Fraction(re, scale), Fraction(im, scale)))
    return out


class Decomposition(list):
    """Yun's factors, a list of (factor, multiplicity), with `heads`: the
    X^j coefficient of each S_j, j = 0 .. d - 1, of the subresultant chain of
    (monic P, its derivative) whose last element is Yun's first gcd.
    `_derivative_coefficients` turns them into the principal subresultant
    coefficients of (P, P'), so that no second chain is built for them.

    A decomposition that Yun ran to the end holds its chain's heads; one
    that the F_q test settled builds that chain on the first read of
    `heads`, and only then."""

    def __init__(self, monic: ExactPoly, heads: tuple | None = None):
        super().__init__()
        self.monic = monic
        self._heads = heads

    @property
    def heads(self) -> tuple:
        if self._heads is None:
            dp = self.monic.derivative()
            self._heads = _chain_heads(_subresultant_chain(self.monic.nums, dp.nums), dp.degree)
        return self._heads


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
    chain = _subresultant_chain(a.nums, b.nums)
    last = chain[min(chain)]
    return _over(last, 1, last[-1])


#: a prime q = 1 (mod 4) below 2^62, and a square root of -1 modulo q: the
#: image of i in F_q
_Q = 2**62 - 87
_IOTA = 120863620846201794


def _square_free_mod_q(nums) -> bool:
    """True when the Gaussian-integer polynomial `nums` (lowest degree first,
    degree below q) keeps its leading coefficient in F_q and is coprime to
    its derivative there, which proves it square-free (see the module
    docstring). False proves nothing."""
    a = [(re + _IOTA * im) % _Q for re, im in nums]
    if not a[-1]:
        return False
    b = [k * c % _Q for k, c in enumerate(a)][1:]
    while len(b) > 1:
        inv = pow(b[-1], -1, _Q)
        n = len(b) - 1
        # a <- a mod b, one quotient term at a time
        while len(a) > n:
            c = a.pop() * inv % _Q
            if c:
                k = len(a) - n
                a[k:] = [(x - c * y) % _Q for x, y in zip(a[k:], b)]
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def square_free_decomposition(p: ExactPoly) -> Decomposition:
    """Yun decomposition: p = lc * prod factor_i^{mult_i} with monic, pairwise
    coprime, square-free factors. Output ordered by increasing multiplicity,
    with the heads of Yun's first chain (see `Decomposition`).

    A p that the F_q test proves square-free (`_square_free_mod_q`) is its
    own single factor, and no chain is built until `heads` is read. Any
    other p, square-free under an unlucky prime included, runs Yun on the
    chain of (monic p, its derivative)."""
    if p.is_zero or p.degree == 0:
        raise ValidationError("square-free decomposition needs degree >= 1")
    pm = p.monic()
    if _square_free_mod_q(pm.nums):
        out = Decomposition(pm)
        out.append((pm, 1))
        return out
    dp = pm.derivative()
    chain = _subresultant_chain(pm.nums, dp.nums)
    last = chain[min(chain)]
    g = _over(last, 1, last[-1])
    out = Decomposition(pm, _chain_heads(chain, dp.degree))
    if g.degree == 0:
        out.append((pm, 1))
        return out
    w = pm // g
    y = dp // g
    z = y - w.derivative()
    i = 1
    while w.degree > 0:
        gi = gcd_exact(w, z)
        if gi.degree > 0:
            out.append((gi, i))
        w = w // gi
        if w.degree == 0:
            break
        y = z // gi
        z = y - w.derivative()
        i += 1
    return out


def _horner(coeffs, z):
    """Value and derivative of sum coeffs[k] z^k in one pass, in the
    arithmetic of z: Python `complex` or `float` (the roots' float phase)."""
    p = coeffs[-1]
    dp = 0 * z
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp
