"""Test oracles: code the pipeline does not run, kept to check the code it does.

Every oracle here is exact. `dyadic` reads an mpf as a `Fraction`,
`exact_mid` a ball's dyadic midpoint as a Gaussian rational, `disks_meet`
and `mid_distance` compare disks through them, and `sqrt_bracket` brackets
a square root by rationals. `vandermonde_matrix` is the Vandermonde matrix
of exact nodes, and `exact_det` the determinant of a Gaussian-rational
matrix by `Fraction` elimination. The pipeline takes no determinant of a
matrix: it multiplies root differences on the rung grid and checks the
reduction identity det W = det W_1 E modulo a prime (see `rootsep.bounds`).
The tests rebuild the reduction's matrices at the root midpoints and compare
their determinants, exactly, with what the grid reports.

Divided differences, in three formulations of the same functional, all in
`GaussianRational` and compared by equality: recursive, the inductive
definition, a Newton-style table; explicit, the closed-form linear
combination with weights prod_{k!=h} 1/(v_h - v_k); monomial, for f(z) =
z^p, the complete homogeneous symmetric polynomial h_{p-n+1}(v_1..v_n),
which is zero when n >= p + 2. Nodes are exact numbers and must be pairwise
distinct; a ball with a radius is no exact node and is rejected.
`power_basis_row` builds a reduced row of W_1, which the pipeline builds on
the rung grid (`rootsep.bounds._w1`, the monomial route's recurrence on
Gaussian integers).

`mahler_measure_jensen` is M(P) by quadrature of log|P| on the unit circle
(Jensen), evaluating P with `mpmath.polyval`; `lemma_aux_check` and
`multiplicity_product_bound` check the two auxiliary lemmas exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from rootsep.balls import CBall, working_precision
from rootsep.errors import PreconditionError, RootsepError, ValidationError
from rootsep.gaussian import GaussianRational
from rootsep.roots import find_roots

_ZERO = GaussianRational.of(0)
_ONE = GaussianRational.of(1)


def _dyadic(part) -> Fraction:
    """The exact value of a raw libmp tuple."""
    sign, man, exp, _ = part
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def dyadic(x: mpf) -> Fraction:
    """The exact value of an mpf."""
    return _dyadic(x._mpf_)


def exact_mid(ball: CBall) -> GaussianRational:
    """The ball's midpoint, exactly."""
    re, im = ball._m
    return GaussianRational(_dyadic(re), _dyadic(im))


def disks_meet(a: CBall, b: CBall) -> bool:
    """Whether the two disks share a point, decided exactly."""
    return (exact_mid(a) - exact_mid(b)).norm() <= (dyadic(a.rad) + dyadic(b.rad)) ** 2


def mid_distance(a: CBall, b: CBall) -> mpf:
    """|mid a - mid b| at the ambient precision, from the exact squared
    distance."""
    n = (exact_mid(a) - exact_mid(b)).norm()
    return mpmath.sqrt(mpf(n.numerator) / n.denominator)


def sqrt_bracket(q: Fraction) -> tuple[Fraction, Fraction]:
    """Dyadic rationals lo <= sqrt(q) <= hi, at most 2^-200 sqrt(q) apart."""
    k = 200 + q.denominator.bit_length()
    s = math.isqrt(q.numerator * 4**k // q.denominator)
    return Fraction(s, 2**k), Fraction(s + 1, 2**k)


def midpoints(roots) -> list[GaussianRational]:
    """The exact midpoints of a root set's enclosures, in its order."""
    return [exact_mid(v) for v in roots.values()]


def exact_det(rows) -> GaussianRational:
    """The determinant of a Gaussian-rational matrix by Fraction elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    det = _ONE
    for k in range(n):
        piv = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if piv is None:
            return _ZERO
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [c - f * t for c, t in zip(m[i], m[k])]
    return det


def vandermonde_matrix(nodes) -> list[list[GaussianRational]]:
    """n x n matrix with row j = (1, v_j, ..., v_j^{n-1})."""
    rows = []
    for v in nodes:
        row = [_ONE]
        for _ in range(len(nodes) - 1):
            row.append(row[-1] * v)
        rows.append(row)
    return rows


# --- divided differences ------------------------------------------------------


def _exact(x) -> GaussianRational:
    """x as a Gaussian rational: a number, or a ball of radius 0."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, CBall):
        if x.rad:
            raise ValidationError(f"{x!r} has a radius: it is no exact node")
        return exact_mid(x)
    if isinstance(x, complex):
        return GaussianRational(Fraction(x.real), Fraction(x.imag))
    return GaussianRational(Fraction(x), Fraction(0))


@dataclass(frozen=True)
class NodeList:
    """Validated tuple of pairwise distinct exact nodes."""

    nodes: tuple[GaussianRational, ...]

    @staticmethod
    def of(values) -> "NodeList":
        nodes = [_exact(v) for v in values]
        for j in range(len(nodes)):
            for i in range(j):
                if nodes[i] == nodes[j]:
                    raise ValidationError(f"nodes {i} and {j} are equal")
        return NodeList(tuple(nodes))

    def __len__(self) -> int:
        return len(self.nodes)


def _nodes(nodes) -> list[GaussianRational]:
    if not isinstance(nodes, NodeList):
        nodes = NodeList.of(nodes)
    if not nodes.nodes:
        raise ValidationError("at least one node is required")
    return list(nodes.nodes)


def _values(values, nodes) -> list[GaussianRational]:
    vs = [_exact(v) for v in values]
    if len(vs) != len(nodes):
        raise ValidationError("values and nodes must have equal length")
    return vs


def divdiff_recursive(values, nodes) -> GaussianRational:
    """Divided difference by the inductive definition."""
    ns = _nodes(nodes)
    table = _values(values, ns)
    n = len(ns)
    for width in range(1, n):
        table = [
            (table[i] - table[i + 1]) / (ns[i] - ns[i + width])
            for i in range(n - width)
        ]
    return table[0]


def divdiff_explicit(values, nodes) -> GaussianRational:
    """Divided difference as the explicit linear combination of the values."""
    ns = _nodes(nodes)
    vs = _values(values, ns)
    total = _ZERO
    for h, v in enumerate(vs):
        w = math.prod([ns[h] - ns[k] for k in range(len(ns)) if k != h], start=_ONE)
        total = total + v / w
    return total


def complete_homogeneous(k: int, nodes) -> list[GaussianRational]:
    """h_0..h_k of the nodes by the column recurrence h_i += v h_{i-1}, one
    pass per node. Entry i reads only entry i - 1 of the same pass, so it
    equals h_i of a run up to i alone."""
    h = [_ONE] + [_ZERO] * k
    for v in nodes:
        for i in range(1, k + 1):
            h[i] = h[i] + v * h[i - 1]
    return h


def divdiff_monomial(p: int, nodes) -> GaussianRational:
    """Divided difference of z^p: h_{p-n+1} of the nodes, zero when n >= p+2."""
    if p < 0:
        raise ValidationError("monomial exponent must be nonnegative")
    ns = _nodes(nodes)
    n = len(ns)
    if n >= p + 2:
        return _ZERO
    return complete_homogeneous(p - n + 1, ns)[-1]


def divdiff_vector(rows, nodes) -> list[GaussianRational]:
    """Componentwise divided difference of vector-valued samples.

    `rows[i]` is the m-component value vector at node i; the result is the
    m-component divided difference.
    """
    ns = _nodes(nodes)
    if len(rows) != len(ns):
        raise ValidationError("row count must equal node count")
    m = len(rows[0])
    if any(len(row) != m for row in rows):
        raise ValidationError("ragged value vectors")
    return [divdiff_recursive([row[c] for row in rows], ns) for c in range(m)]


def power_basis_row(r: int, nodes) -> list[GaussianRational]:
    """Divided difference of z -> (1, z, ..., z^{r-1}) over the nodes.

    Component p is the monomial route's h_{p-n+1}, zero in the first n-1
    components; h_0..h_{r-n} come from one run of the recurrence. The
    recurrence divides by nothing, so the nodes need not be distinct, as on
    a rung grid whose disks meet.
    """
    ns = [_exact(v) for v in nodes]
    if not ns:
        raise ValidationError("at least one node is required")
    n = len(ns)
    row = [_ZERO] * min(r, n - 1)
    if r >= n:
        row += complete_homogeneous(r - n, ns)
    return row


# --- Mahler measure by quadrature, and the auxiliary lemmas -------------------


class JensenUnavailableError(RootsepError):
    """A root lies too close to the unit circle for the quadrature cross-check."""


def numeric_coeffs(p) -> list[mpc]:
    """P's coefficients as mpc at the ambient precision, highest degree
    first, as `mpmath.polyval` takes them."""
    return [mpc(mpf(c.re.numerator) / c.re.denominator, mpf(c.im.numerator) / c.im.denominator)
            for c in reversed(p.coeffs)]


def mahler_measure_jensen(p, n_nodes: int = 512, roots=None, precision: int = 128) -> tuple[mpf, mpf]:
    """exp of the trapezoidal mean of log|P| on the unit circle with n_nodes
    and 2 n_nodes points: (estimate, convergence gap). The estimate converges
    geometrically at a rate set by the distance of the roots to the circle,
    so a root within 1e-6 of the circle raises."""
    if n_nodes < 4:
        raise ValidationError("quadrature needs at least 4 nodes")
    with working_precision(precision):
        if roots is None:
            roots = find_roots(p, precision)
        for idx, e in enumerate(roots.entries):
            if abs(e.value.abs().mid - 1) <= mpf("1e-6"):
                raise JensenUnavailableError(
                    f"jensen oracle unavailable: root {idx} lies within 1e-6 of the unit circle"
                )
        coeffs = numeric_coeffs(p)

        def estimate(n: int) -> mpf:
            total = mpf(0)
            for k in range(n):
                z = mpmath.exp(mpc(0, 2 * mpmath.pi * k / n))
                total += mpmath.log(abs(mpmath.polyval(coeffs, z)))
            return mpmath.exp(total / n)

        coarse = estimate(n_nodes)
        fine = estimate(2 * n_nodes)
        return fine, abs(fine - coarse)


def lemma_aux_check(d: int, r: int) -> tuple[mpf, mpf, mpf]:
    """(lhs, mid, rhs) for in-degree d and size r, where
        lhs = (sum_{i=d}^{r-1} C(i,d)^2)^(1/2)
        mid = C(r-1,d) * ((r+d)/(2d+1))^(1/2)
        rhs = (r/sqrt(3))^d * r^(1/2),
    after lhs <= mid <= rhs is verified exactly on the squares."""
    if d < 0 or r < 1 or d > r - 1:
        raise PreconditionError(f"lemma_aux_check needs 0 <= d <= r-1, got d={d}, r={r}")
    lhs_sq = sum(math.comb(i, d) ** 2 for i in range(d, r))
    mid_sq = Fraction(math.comb(r - 1, d) ** 2 * (r + d), 2 * d + 1)
    rhs_sq = Fraction(r ** (2 * d + 1), 3**d)
    if not (lhs_sq <= mid_sq <= rhs_sq):
        raise RootsepError(f"inequality chain failed at d={d}, r={r}")
    return (
        mpmath.sqrt(mpf(lhs_sq)),
        mpmath.sqrt(mpf(mid_sq.numerator) / mpf(mid_sq.denominator)),
        mpmath.sqrt(mpf(rhs_sq.numerator) / mpf(rhs_sq.denominator)),
    )


def multiplicity_product_bound(multiplicities) -> tuple[mpf, mpf]:
    """(prod m_i, 3^(min(d, 2d-2r)/3)) with the inequality verified exactly."""
    ms = list(multiplicities)
    if not ms or any((not isinstance(m, int)) or m < 1 for m in ms):
        raise ValidationError("multiplicities must be a nonempty list of positive integers")
    d, r = sum(ms), len(ms)
    mmin = min(d, 2 * d - 2 * r)
    product = math.prod(ms)
    if product**3 > 3**mmin:
        raise RootsepError(f"multiplicity bound failed for {ms}")
    return mpf(product), mpmath.cbrt(mpf(3**mmin))
