"""Test oracles: code the pipeline does not run, kept to check the code it does.

`ball_det` is an enclosure of the determinant of a matrix of complex balls,
by LU elimination on Gaussian integers, `vandermonde_matrix` the
Vandermonde matrix of a root set as balls, and `exact_det` the determinant
of a Gaussian-rational matrix in `Fraction`s. The reduction certificate no
longer takes any determinant in balls (it checks the identity det W = det
W_1 E exactly modulo a prime, see `rootsep.bounds`); the tests use them
to rebuild the reduction's matrices and their determinants independently.

Divided differences, in three mutually checking formulations of the same
functional: recursive, the inductive definition, a Newton-style table;
explicit, the closed-form linear combination with weights prod_{k!=h} 1/(v_h
- v_k); monomial, for f(z) = z^p, the complete homogeneous symmetric
polynomial h_{p-n+1}(v_1..v_n), which is exactly zero when n >= p + 2.
Nodes must be pairwise distinct; balls whose disks touch are rejected, as
regularizing near-duplicates would silently change the functional.
`power_basis_row` builds the reduced rows of W_1 in balls, which the
pipeline builds on the rung grid instead (`rootsep.bounds._w1`, the
monomial route's recurrence on Gaussian integers).

Elimination. `_grid_matrix` puts every entry on one grid 2^-W: W = p +
GRID_GUARD_BITS - min t, t the bit length of the larger part less the
scale, over the entries whose midpoint clears its radius, so every such
entry keeps at least p bits relative to its own modulus. Parts below the
grid floor into the radius, one unit each. Every rounding of the
elimination is counted upward in whole units: each floored part adds 2
units (a floor moves a part by less than 1), in each part of a multiplier
f = x/p and in each part of a product f t. The radius of f is
ceil((R_x |p|_lo + |x|_hi R_p) 2^w / (|p|_lo (|p|_lo - R_p))), and the
update c - f t adds ceil((|f|_hi R_t + R_f (|t|_hi + R_t)) / 2^w) to R_c,
with the moduli bounds from `math.isqrt` of X^2 + Y^2. The pivot is the
entry of largest exact X^2 + Y^2, the first on ties, and one with
isqrt(X^2 + Y^2) <= R may contain zero. When the pivot, the rest of its row
and a row's entry in its column are real, f is real and that row's update
changes X and R only: its Y products are all 0. Only the pivots become
balls again, with exact dyadic midpoints and radii rounded up to RAD_BITS
bits; the determinant is the sign times their product.

`mahler_measure_jensen` is M(P) by quadrature of log|P| on the unit circle
(Jensen), on `eval_poly`'s ball Horner; `lemma_aux_check` and
`multiplicity_product_bound` check the two auxiliary lemmas exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero

from rootsep.balls import (
    GRID_GUARD_BITS,
    RAD_BITS,
    CBall,
    _cball,
    _ceil_sqrt,
    _place,
    _scaled,
    ball_product,
    working_precision,
)
from rootsep.errors import BallDomainError, PreconditionError, RootsepError, ValidationError
from rootsep.gaussian import GaussianRational
from rootsep.roots import find_roots


def exact_det(rows) -> GaussianRational:
    """The determinant of a Gaussian-rational matrix by Fraction elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    det = GaussianRational.of(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if piv is None:
            return GaussianRational.of(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [c - f * t for c, t in zip(m[i], m[k])]
    return det


def vandermonde_matrix(roots) -> list[list[CBall]]:
    """r x r matrix with row j = (1, v_j, ..., v_j^{r-1})."""
    rows = []
    for v in roots.values():
        row = [CBall.one()]
        for _ in range(roots.r - 1):
            row.append(row[-1] * v)
        rows.append(row)
    return rows


def _grid_matrix(rows) -> tuple[list, int]:
    """A matrix of exact entries (X, Y, R, s), each (X + iY +/- R) / 2^s, on
    the grid 2^-W (see the module docstring): rows of [X, Y, R] int lists,
    and W."""
    low = None
    for row in rows:
        for x, y, r, s in row:
            top = max(abs(x), abs(y)).bit_length()
            if top > r.bit_length() and (low is None or top - s < low):
                low = top - s
    w = max(0, mp.prec + GRID_GUARD_BITS - (0 if low is None else low))
    out = []
    for row in rows:
        xs, ys, rs = [], [], []
        for x, y, r, s in row:
            x, y, r = _place(x, y, r, w - s)
            xs.append(x)
            ys.append(y)
            rs.append(r)
        out.append([xs, ys, rs])
    return out, w


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
    partial pivoting on the exact squared moduli (first row on ties); see
    the module docstring.

    Raises BallDomainError when a pivot ball may contain zero.
    """
    rows, w = _grid_matrix([[_scaled(z) for z in row] for row in matrix])
    n = len(rows)
    pivots = []
    sign = 1
    for k in range(n):
        piv, best = k, rows[k][0][k] ** 2 + rows[k][1][k] ** 2
        for i in range(k + 1, n):
            a = rows[i][0][k] ** 2 + rows[i][1][k] ** 2
            if a > best:
                piv, best = i, a
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        xs, ys, rs = rows[k]
        px, py, pr = xs[k], ys[k], rs[k]
        lo = math.isqrt(best)
        if lo <= pr:
            raise BallDomainError("singular-to-precision pivot in ball determinant")
        pivots.append(_grid_pivot(px, py, pr, w))
        active = [(g, g[0][k], g[1][k], g[2][k]) for g in rows[k + 1:]
                  if g[0][k] or g[1][k] or g[2][k]]
        if not active:
            continue
        k1 = k + 1
        tx, ty, tr = xs[k1:], ys[k1:], rs[k1:]
        real = not (py or any(ty))
        mods = [abs(a) for a in tx] if real else [_ceil_sqrt(a * a + b * b) for a, b in zip(tx, ty)]
        tail = (tx, ty, tr, [m + c for m, c in zip(mods, tr)])
        pivot = (px, py, pr, lo, best)
        if real:
            _eliminate_real([u for u in active if not u[2]], k1, pivot, tail, w)
            active = [u for u in active if u[2]]
        if active:
            _eliminate(active, k1, pivot, tail, w)
    det = ball_product(pivots) if pivots else CBall.one()
    return -det if sign < 0 else det


# --- divided differences ------------------------------------------------------


def _as_cball(x) -> CBall:
    return x if isinstance(x, CBall) else CBall.exact(x)


def _validate_nodes(nodes: list[CBall]) -> None:
    for j in range(len(nodes)):
        for i in range(j):
            gap = (nodes[j] - nodes[i]).abs()
            if gap.lo <= 0:
                raise ValidationError(
                    f"nodes {i} and {j} are not certifiably distinct"
                )


@dataclass(frozen=True)
class NodeList:
    """Validated tuple of pairwise distinct complex nodes."""

    nodes: tuple[CBall, ...]

    @staticmethod
    def of(values) -> "NodeList":
        nodes = [_as_cball(v) for v in values]
        _validate_nodes(nodes)
        return NodeList(tuple(nodes))

    def __len__(self) -> int:
        return len(self.nodes)


def _coerce_nodes(nodes) -> list[CBall]:
    if isinstance(nodes, NodeList):
        return list(nodes.nodes)
    out = [_as_cball(v) for v in nodes]
    _validate_nodes(out)
    return out


def divdiff_recursive(values, nodes) -> CBall:
    """Divided difference by the inductive definition."""
    vs = [_as_cball(v) for v in values]
    ns = _coerce_nodes(nodes)
    if len(vs) != len(ns):
        raise ValidationError("values and nodes must have equal length")
    if not vs:
        raise ValidationError("at least one node is required")
    table = vs
    n = len(ns)
    for width in range(1, n):
        table = [
            (table[i] - table[i + 1]) / (ns[i] - ns[i + width])
            for i in range(n - width)
        ]
    return table[0]


def divdiff_explicit(values, nodes) -> CBall:
    """Divided difference as the explicit linear combination of the values."""
    vs = [_as_cball(v) for v in values]
    ns = _coerce_nodes(nodes)
    if len(vs) != len(ns):
        raise ValidationError("values and nodes must have equal length")
    if not vs:
        raise ValidationError("at least one node is required")
    total = CBall.exact(0)
    for h in range(len(ns)):
        w = CBall.one()
        for k in range(len(ns)):
            if k != h:
                w = w / (ns[h] - ns[k])
        total = total + w * vs[h]
    return total


def complete_homogeneous(k: int, nodes: list[CBall]) -> list[CBall]:
    """h_0..h_k(v_1..v_n) by the column recurrence (no composition
    enumeration). Entry i reads only entry i - 1 of the same pass, so it
    equals h_i of a run up to i alone."""
    h = [CBall.exact(0)] * (k + 1)
    h[0] = CBall.one()
    for v in nodes:
        _recurrence_pass(h, v)
    return h


def _recurrence_pass(h: list[CBall], v: CBall) -> None:
    """One node's pass of the column recurrence over h, in place: h_0..h_k
    of some nodes become h_0..h_k of those nodes and v."""
    for i in range(1, len(h)):
        h[i] = h[i] + v * h[i - 1]


def divdiff_monomial(p: int, nodes) -> CBall:
    """Divided difference of z^p: h_{p-n+1} of the nodes, zero when n >= p+2."""
    if p < 0:
        raise ValidationError("monomial exponent must be nonnegative")
    ns = _coerce_nodes(nodes)
    if not ns:
        raise ValidationError("at least one node is required")
    n = len(ns)
    if n >= p + 2:
        return CBall.exact(0)
    return complete_homogeneous(p - n + 1, ns)[-1]


def divdiff_vector(rows, nodes) -> list[CBall]:
    """Componentwise divided difference of vector-valued samples.

    `rows[i]` is the m-component value vector at node i; the result is the
    m-component divided difference.
    """
    ns = _coerce_nodes(nodes)
    mat = [[_as_cball(x) for x in row] for row in rows]
    if len(mat) != len(ns):
        raise ValidationError("row count must equal node count")
    if not mat:
        raise ValidationError("at least one node is required")
    m = len(mat[0])
    if any(len(row) != m for row in mat):
        raise ValidationError("ragged value vectors")
    return [
        divdiff_recursive([row[c] for row in mat], ns)
        for c in range(m)
    ]


def power_basis_row(r: int, nodes) -> list[CBall]:
    """Divided difference of z -> (1, z, ..., z^{r-1}) over the nodes.

    Component p is the monomial route's h_{p-n+1}, exactly zero in the first
    n-1 components; the nodes are validated once and h_0..h_{r-n} come from
    one run of the recurrence.
    """
    ns = _coerce_nodes(nodes)
    if not ns:
        raise ValidationError("at least one node is required")
    n = len(ns)
    row = [CBall.exact(0)] * min(r, n - 1)
    if r >= n:
        row += complete_homogeneous(r - n, ns)
    return row


class JensenUnavailableError(RootsepError):
    """A root lies too close to the unit circle for the quadrature cross-check."""


def eval_poly(p, z, precision: int | None = None) -> CBall:
    """Horner evaluation of an exact polynomial in ball arithmetic, the
    coefficients contributing only conversion ulps; at `precision` when
    given, otherwise at the ambient one."""
    if precision is not None:
        with working_precision(precision):
            return eval_poly(p, z)
    if p.is_zero:
        return CBall.exact(0)
    zb = z if isinstance(z, CBall) else CBall.exact(z)
    cs = [CBall.from_gaussian(c) for c in p.coeffs]
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * zb + c
    return acc


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

        def estimate(n: int) -> mpf:
            total = mpf(0)
            for k in range(n):
                z = mpmath.exp(mpc(0, 2 * mpmath.pi * k / n))
                total += mpmath.log(abs(eval_poly(p, z).mid))
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
