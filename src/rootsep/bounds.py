"""Lower bounds on products of root distances over a graph, with certificates.

The central quantity is LHS = prod over edges of |v_i - v_j|. Every bound
variant produces a BoundReport whose right-hand side is the product of five
individually reported factors. The main row is

    sdisc_sqrt           |sDisc_{d-r}|^(1/2)
    mahler_power         M^(-(r-1))
    edge_factor          (r/sqrt(3))^(-#E)
    r_power              r^(-r/2)
    multiplicity_factor  3^(-min(d, 2d-2r)/6)

and the other variants change it as follows:

    classical      |Disc|^(1/2) for sdisc_sqrt, exactly 1 for multiplicity_factor
    remark_degree  M^(-(r-1) + dtilde/2), dtilde the minimum total degree
    remark_pairs   (r/sqrt(3))^(-#E + sum Delta), over the k - #E smallest hints
    sep_product    the square of the main row with |S| edges: |sDisc|,
                   M^(-2(r-1)), (r/sqrt(3))^(-|S|), r^(-r), 3^(-min(d, 2d-2r)/3)

LHS and RHS are computed as balls; the verdict "holds" requires the entire
LHS interval to sit above the entire RHS interval, so rounding can never
manufacture a violation. A failed separation is "inconclusive", never
"violated": callers escalate precision through `verify`.

The reduction certificate replays the determinant factorization that proves
the bound. W is the Vandermonde matrix of the roots. W_1 replaces each row
with incoming edges by the divided difference of the power basis over the
edge sources plus the vertex itself, and keeps the powers in the other rows.
The identity det W = det W_1 * prod(edge differences) is a polynomial
identity in the roots, so it is checked exactly, on W_1's grid integers,
modulo q = 2^62 - 87 with i sent to iota, at the grid midpoints and at a
second point hashed from them (see `VandermondeCertificate`): a wrong W_1
passes the first only if the prime ideal (q, i - iota) divides the
difference of the two sides, and the second with probability below r^2/q.
det W_1 is then the product of the non-edge differences. The row-norm
bounds and the Hadamard bound live only on the certificate
(`row_norm_bounds`, `hadamard_rhs`), checked against the propagated radii
by `rows_ok` and `hadamard_ok`.

The two auxiliary lemmas, the binomial-sum chain behind the row-norm
bounds' (r/sqrt(3))^d sqrt(r) and prod m_j <= 3^(min(d, 2d-2r)/3) behind
the multiplicity factor, hold for every d and r, so no run checks them;
`tests/oracles.py` checks both exactly on a range of sizes.

Every root-dependent factor is read off the root set's rung table
(`RootSet.table`, see `balls`), so a rung builds one for all its graphs:
the certificate's distinctness check, step factors, edge product, det W and
W_1, the LHS (|edge product|), the sep-product distances, and, through
`invariants.sdisc_abs_from_roots` and `invariants.mahler_measure`,
|sDisc_{d-r}| (from |det W|) and the Mahler measure, which shares
max(1, |v_j|) with the row-norm bounds.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isfinite
from typing import NamedTuple

import mpmath
from mpmath import mpf

from .balls import (
    GRID_GUARD_BITS,
    CBall,
    EdgeProducts,
    RBall,
    RungTable,
    _at_prec,
    _ceil_sqrt,
    _dyadic,
    _grid_ball,
    _grid_product,
    ball_product,
    grid_rball,
    json_real,
    working_precision,
)
from .errors import (
    BallDomainError,
    CertificationError,
    IndistinguishableRootsError,
    PreconditionError,
    RootsepError,
    ValidationError,
)
from .graph import RootGraph, _is_index, check_classical_admissible, min_total_degree, orient
from .invariants import _abs_ball, mahler_measure, sdisc_abs_from_roots
from .poly import _IOTA, _Q, _derivative_coefficients
from .roots import RootSet, find_roots, refine

COMPONENT_KEYS = (
    "sdisc_sqrt",
    "mahler_power",
    "edge_factor",
    "r_power",
    "multiplicity_factor",
)

VARIANTS = ("classical", "main", "remark_degree", "remark_pairs", "sep_product")


# ---------------------------------------------------------------------------
# Vandermonde reduction certificate
# ---------------------------------------------------------------------------


class W1Row(NamedTuple):
    """Row j of W_1 on the rung grid: `start` = n - 1 zeros for its n nodes,
    then entry i = (xs[i] + i ys[i] +/- rads[i]) / 2^(i w), i = 0 .. r - n;
    `at_point` holds the same entries at the second point, mod q."""

    start: int
    xs: list
    ys: list
    rads: list
    at_point: list


def _w1(t: RungTable, sources: tuple, point: tuple) -> tuple:
    """W_1 for the edge sources of `RungTable.edges`, on the table's grid and
    at `point` mod q, in one pass.

    Row j is the divided difference of the power basis over the sources of
    j plus v_j: n - 1 zeros, then h_0 .. h_{r-n} of its n nodes (one node,
    v_j, when no edge finishes at j, which gives 1, v_j, ..., v_j^{r-1}).
    The column recurrence h_i += v h_{i-1}, one pass per node, runs exactly
    on the grid: h_i of nodes (X + iY) / 2^w is H_i / 2^(i w) with H_i +=
    (X + iY) H_{i-1} on Gaussian integers. h_i has nonnegative
    coefficients, so with A >= |node| its radius is at most h_i(A + R) -
    h_i(A), and the same recurrence gives both terms on the nodes' (A + R,
    A), and the values at `point`. A row whose nodes are another row's plus
    v_j runs that row's recurrence one more pass (entry i of a pass reads
    only entry i - 1, so the dropped last entry never feeds the others).
    """
    r = len(sources)
    built: dict[tuple, list] = {}
    rows = []
    for j in range(r):
        key = (*sources[j], j)
        n = len(key)
        prev = built.get(key[:-1])
        if prev is None:
            h = [[1] + [0] * (r - n) for _ in range(5)]
            h[1][0] = 0
            passes = key
        else:
            h = [part[:-1] for part in prev]
            passes = key[-1:]
        hx, hy, hm, hl, ht = h
        for a in passes:
            x, y, m, l = t.nodes[a]
            s = point[a]
            for i in range(1, len(hx)):
                u, v = hx[i - 1], hy[i - 1]
                hx[i] += x * u - y * v
                hy[i] += x * v + y * u
                hm[i] += m * hm[i - 1]
                hl[i] += l * hl[i - 1]
                ht[i] = (ht[i] + s * ht[i - 1]) % _Q
        built[key] = h
        rows.append(W1Row(n - 1, hx, hy, [a - b for a, b in zip(hm, hl)], ht))
    return tuple(rows)


def _second_point(t: RungTable) -> tuple:
    """The identity's second point: one residue mod q per node, drawn by a
    `random.Random` seeded with the bytes of w and the grid numerators, each
    after its length, which it hashes with SHA-512; the same grid gives the
    same point on every run."""
    data = [t.w.to_bytes(8, "little")]
    for x, y, _, _ in t.nodes:
        for v in (x, y):
            n = v.bit_length() // 8 + 1
            data += [n.to_bytes(4, "little"), v.to_bytes(n, "little", signed=True)]
    rng = random.Random(b"".join(data))
    return tuple([rng.randrange(_Q) for _ in t.nodes])


def _det_mod_q(rows: list) -> int:
    """The determinant of a square matrix over F_q, by elimination; the
    rows, lists of residues, are overwritten. A row is reduced mod q only
    where it is read: below the pivot its entries stay sums of products
    of residues, a few bits above q^2."""
    n = len(rows)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k] % _Q), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        p = rows[k][k] % _Q
        det = det * p % _Q
        inv = pow(p, -1, _Q)
        tail = [b % _Q for b in rows[k][k + 1:]]
        for row in rows[k + 1:]:
            f = row[k] * inv % _Q
            if f:
                row[k + 1:] = [a - f * b for a, b in zip(row[k + 1:], tail)]
    return det % _Q


@dataclass(frozen=True)
class IdentityCheck:
    """Whether the reduction identity held modulo (q, i - iota), and at
    which points: the residues X_j + iota Y_j of the grid midpoints, and
    the second point."""

    holds: bool
    points: tuple

    def to_json(self) -> dict:
        return {"holds": self.holds, "q": _Q, "iota": _IOTA, "points": [list(p) for p in self.points]}


def _identity(t: RungTable, sources: tuple, rows: tuple, point: tuple) -> IdentityCheck:
    """Check det M = prod over the pairs i < j that are no edge of (Z_j -
    Z_i) mod q, at the grid midpoints Z_j = X_j + iota Y_j and at `point`.
    M is W_1 with column c scaled by 2^(c w) and row j by 2^-((n_j - 1) w):
    the integers of `rows`. Times E, the product of the edge numerators Z_j
    - Z_source, this is det M E = prod over all i < j of (Z_j - Z_i), the
    identity det W = det W_1 E on the grid; without E it still says
    something where an edge numerator vanishes mod q."""
    mids = tuple([(x + _IOTA * y) % _Q for x, y, _, _ in t.nodes])
    edges = {(a, j) for j, s in enumerate(sources) for a in s}
    pairs = [(i, j) for j in range(len(rows)) for i in range(j) if (i, j) not in edges]
    holds = True
    for values, matrix in (
        (mids, [[0] * w.start + [(x + _IOTA * y) % _Q for x, y in zip(w.xs, w.ys)] for w in rows]),
        (point, [[0] * w.start + w.at_point for w in rows]),
    ):
        rhs = 1
        for i, j in pairs:
            rhs = rhs * (values[j] - values[i]) % _Q
        holds = holds and _det_mod_q(matrix) == rhs
    return IdentityCheck(holds, (mids, point))


def _exceeds(a: int, b: int, c: int) -> bool:
    """sqrt(a) > sqrt(b) + sqrt(c), for ints a, b, c >= 0, decided
    exactly: a - b - c > 2 sqrt(bc)."""
    d = a - b - c
    return d > 0 and d * d > 4 * b * c


@dataclass(frozen=True)
class VandermondeCertificate:
    """The row-replacement reduction and its checks.

    Starting from the Vandermonde matrix W, each step replaces one row
    (highest index first) by the divided difference of the power basis over
    the sources of the edges finishing there, ending at the fully reduced
    matrix W_1. step_factors[i] is the product of (v_j - v_source) for the
    row replaced at step i (exact 1 for rows without incoming edges).
    det_w is the product of (v_j - v_i) over i < j, one exact product on the
    rung table's grid, and edge_product E the product of the step factors.

    `identity` checks det W = det W_1 E exactly modulo the prime ideal (q,
    i - iota), on the integers of W_1 that `_w1` builds: at the grid
    midpoints, where a wrong W_1 passes only if (q, i - iota) divides the
    difference of the two sides, and at a second point drawn from a hash of
    the grid, where a wrong W_1 makes that difference a nonzero polynomial
    of degree below r^2, which vanishes there with probability below r^2 /
    q (Schwartz, JACM 27, 1980; Zippel, EUROSAM 1979). W is never formed,
    and det_w1 is det W / E: the exact grid product of the non-edge
    differences, with the table's majorant radius, whatever the conditioning
    of W_1.

    `rows_ok` (each row norm at most (r/sqrt(3))^d_j sqrt(r) max(1,
    |v_j|)^(r-1-d_j)) and `hadamard_ok` (|det W_1| at most the product of
    those bounds) compare lower ends with upper ends, decided as exact
    inequalities between grid integers. The balls (step_factors, det_w1,
    row_norms, row_norm_bounds, hadamard_rhs) are built only when read, the
    bounds in interval arithmetic on the table's max(1, |v_j|)
    (`RungTable.max1`).
    """

    table: RungTable
    products: EdgeProducts
    in_degrees: tuple
    rows: tuple
    identity: IdentityCheck

    @cached_property
    def step_factors(self) -> tuple:
        with _at_prec(self.table.prec):
            return tuple([CBall.one() if s is None else _grid_ball(*s, self.table.w) for s in self.products.steps])

    @property
    def det_w(self) -> CBall:
        return self.table.det_w

    @property
    def edge_product(self) -> CBall:
        return self.products.edge_product

    @cached_property
    def _nonedge(self) -> tuple:
        """The exact product of the non-edge differences, and its count."""
        edges = {(a, j) for j, s in enumerate(self.products.sources) for a in s}
        items = [v for key, v in self.table.diff.items() if key not in edges]
        return _grid_product(items), len(items)

    @cached_property
    def det_w1(self) -> CBall:
        with _at_prec(self.table.prec):
            return _grid_ball(*self._nonedge, self.table.w)

    @cached_property
    def row_norms(self) -> tuple:
        """Each row's midpoint norm and radius norm on one grid 2^e, b =
        GRID_GUARD_BITS above the working precision below its largest entry:
        each part floored (one unit up for the upper end) and each radius
        rounded up, so the isqrt brackets of the sums of squares are at most
        about 2b bits. The radius norm widens the bracket (the triangle
        inequality), which becomes an interval by `grid_rball`."""
        w, out = self.table.w, []
        bits = self.table.prec + GRID_GUARD_BITS
        with _at_prec(self.table.prec):
            for row in self.rows:
                e = max(max(abs(x), abs(y)).bit_length() - i * w for i, (x, y) in enumerate(zip(row.xs, row.ys))) - bits
                lo = hi = c = 0
                for i, (x, y, rad) in enumerate(zip(row.xs, row.ys, row.rads)):
                    s = e + i * w
                    if s <= 0:
                        x, y, rad = abs(x) << -s, abs(y) << -s, rad << -s
                        lo += x * x + y * y
                        hi += x * x + y * y
                    else:
                        x, y, rad = abs(x) >> s, abs(y) >> s, -(-rad >> s)
                        lo += x * x + y * y
                        hi += (x + 1) ** 2 + (y + 1) ** 2
                    c += rad * rad
                c = _ceil_sqrt(c)
                out.append(grid_rball(math.isqrt(lo) - c, _ceil_sqrt(hi) + c, -e))
        return tuple(out)

    @cached_property
    def row_norm_bounds(self) -> tuple:
        """Per row, sqrt(r^(2d+1) / 3^d) max(1, |v_j|)^(r-1-d), d = d_j."""
        t, r = self.table, len(self.rows)
        with _at_prec(t.prec):
            return tuple([
                RBall.exact(Fraction(r ** (2 * d + 1), 3**d)).sqrt() * t.max1[j].powi(r - 1 - d)
                for j, d in enumerate(self.in_degrees)
            ])

    @cached_property
    def hadamard_rhs(self) -> RBall:
        with _at_prec(self.table.prec):
            return ball_product(self.row_norm_bounds)

    def _square_bound(self, rows, scale: int) -> tuple[int, int]:
        """(b, f): the squared product of the bounds of `rows`, at the upper
        end of max(1, |v_j|) = man 2^exp, is b 2^f / 3^(sum d_j), f with
        `scale` added."""
        r, items, f = len(self.rows), [], scale
        for j in rows:
            d = self.in_degrees[j]
            man, exp = _dyadic(self.table.max1[j].hi)
            items.append(r ** (2 * d + 1) * man ** (2 * (r - 1 - d)))
            f += 2 * (r - 1 - d) * exp
        # a balanced product tree: `_grid_product` of real, exact grid values
        return _grid_product([(b, 0, 1, 1) for b in items])[0], f

    @cached_property
    def _rows_ok(self) -> bool:
        r, w = len(self.rows), self.table.w
        for j, (row, d) in enumerate(zip(self.rows, self.in_degrees)):
            # the row's squared norms, of its midpoints and of its radii, and
            # its squared bound, times 3^d 4^(k w), k = r - 1 - d its last
            # entry: a = sum |H_i|^2 4^((k - i) w), c likewise with R_i
            a = c = 0
            for x, y, rad in zip(row.xs, row.ys, row.rads):
                a = (a << 2 * w) + x * x + y * y
                c = (c << 2 * w) + rad * rad
            b, f = self._square_bound([j], 2 * (r - 1 - d) * w)
            if _exceeds(3**d * a << max(0, -f), b << max(0, f), 3**d * c << max(0, -f)):
                return False
        return True

    def rows_ok(self) -> bool:
        """No row norm's lower end exceeds its bound's upper end, decided
        exactly on the grid integers."""
        return self._rows_ok

    @cached_property
    def _hadamard_ok(self) -> bool:
        # times 3^#E 4^(w m): |X + iY| - (H - L) > the product of the bounds?
        (x, y, h, l), m = self._nonedge
        n_edges = sum(self.in_degrees)
        b, f = self._square_bound(range(len(self.rows)), 2 * m * self.table.w)
        a, c = 3**n_edges * (x * x + y * y), 3**n_edges * (h - l) ** 2
        return not _exceeds(a << max(0, -f), b << max(0, f), c << max(0, -f))

    def hadamard_ok(self) -> bool:
        """The lower end of |det W_1| does not exceed the Hadamard bound's
        upper end, decided exactly on the grid integers."""
        return self._hadamard_ok

    def to_json(self) -> dict:
        return {
            "det_w": self.det_w.to_json(),
            "det_w1": self.det_w1.to_json(),
            "step_factors": [f.to_json() for f in self.step_factors],
            "row_norms": [n.to_json() for n in self.row_norms],
            "row_norm_bounds": [b.to_json() for b in self.row_norm_bounds],
            "hadamard": self.hadamard_rhs.to_json(),
            "identity": self.identity.to_json(),
        }


def reduce_vandermonde(roots: RootSet, g: RootGraph) -> VandermondeCertificate:
    """Run the row-replacement reduction and check its determinant identity,
    at the root set's precision.

    Reads the root set's rung table and its products over the edges of `g`,
    builds W_1 on the table's grid and at the second point in one pass
    (`_w1`), and checks the identity modulo q at both points (`_identity`);
    the certificate records whether it held. Raises CertificationError when
    two nodes are not certifiably distinct.
    """
    if g.vertex_count != roots.r:
        raise ValidationError(
            f"graph has {g.vertex_count} vertices but the root set has {roots.r}"
        )
    precision = roots.precision_bits
    with working_precision(precision):
        t = roots.table
        e = t.edges(g)
        pair = t.indistinct()
        if pair is not None:
            raise CertificationError(
                precision, f"nodes {pair[0]} and {pair[1]} are not certifiably distinct"
            )
        point = _second_point(t)
        rows = _w1(t, e.sources, point)
        return VandermondeCertificate(t, e, g.in_degrees, rows, _identity(t, e.sources, rows, point))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    variant: str
    lhs: RBall
    rhs: RBall
    components: dict
    verdict: str
    certificate: VandermondeCertificate | None
    precision_bits: int
    roots: RootSet | None = None
    graph: RootGraph | None = None
    extra: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def margin(self) -> float:
        """lhs.lo - rhs.hi as a float; a tiny negative margin can round to
        -0.0, so the verdict is decided on the enclosures."""
        return float(self.lhs.lo - self.rhs.hi)

    def margin_json(self) -> float | str:
        """`margin` as a report writes it: the float, or lhs.lo - rhs.hi
        through `json_real` when the float overflowed."""
        return self.margin if isfinite(self.margin) else json_real(self.lhs.lo - self.rhs.hi)

    def margin_bits(self) -> float | None:
        """log2(lhs.lo / rhs.hi): the bits by which the bound holds, or
        fails when negative; None when lhs.lo <= 0 or rhs.hi <= 0."""
        if self.lhs.lo <= 0 or self.rhs.hi <= 0:
            return None
        return float(mpmath.log(self.lhs.lo / self.rhs.hi, 2))

    def to_json(self, poly_repr=None) -> dict:
        out = {
            "variant": self.variant,
            "polynomial": {
                "input": poly_repr,
                "roots": self.roots.to_json() if self.roots else None,
                "degree": self.roots.total_degree if self.roots else None,
                "distinct_roots": self.roots.r if self.roots else None,
            },
            "graph": self.graph.to_json() if self.graph else None,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "components": {k: v.to_json() for k, v in self.components.items()},
            "certificate": self.certificate.to_json() if self.certificate else None,
            "margin": self.margin_json(),
            "margin_bits": self.margin_bits(),
            "verdict": self.verdict,
            "precision_bits": self.precision_bits,
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


@dataclass(frozen=True)
class ClusterHint:
    """Externally certified close pairs: (gamma, delta, Delta), Delta descending.

    Each pair promises |v_gamma - v_delta| <= (sqrt(3)/r)^(1 + Delta); the
    promise is re-validated against the certified root distances on
    construction.
    """

    pairs: tuple

    @staticmethod
    def build(pairs, roots: RootSet) -> "ClusterHint":
        with working_precision(roots.precision_bits):
            r = roots.r
            base = RBall.exact(3).sqrt() / RBall.exact(r)
            seen = set()
            checked = []
            for entry in pairs:
                gamma, delta, big_delta = entry
                number = isinstance(big_delta, (int, float)) and not isinstance(big_delta, bool)
                if not (_is_index(gamma) and _is_index(delta) and number):
                    raise ValidationError(f"hint {list(entry)!r} is not [gamma, delta, Delta]")
                if not (0 <= gamma < r and 0 <= delta < r) or gamma == delta:
                    raise ValidationError(f"hint pair ({gamma}, {delta}) is invalid")
                key = (min(gamma, delta), max(gamma, delta))
                if key in seen:
                    raise ValidationError(f"duplicate hint pair {key}")
                seen.add(key)
                dv = mpf(big_delta)
                if not mpmath.isfinite(dv):
                    raise ValidationError(f"hint exponent {big_delta!r} is not finite")
                if dv <= 0:
                    raise ValidationError("hint exponents must be positive")
                dist = roots.distance(gamma, delta)
                allowed = base.powr(1 + dv)
                if dist.hi > allowed.lo:
                    raise ValidationError(
                        f"hint pair ({gamma}, {delta}) violates its distance certificate"
                    )
                checked.append((gamma, delta, dv))
            checked.sort(key=lambda t: (-t[2], t[0], t[1]))
            return ClusterHint(tuple(checked))

    @property
    def k(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# bound variants
# ---------------------------------------------------------------------------


def _as_graph(graph_or_edges, roots: RootSet) -> RootGraph:
    if isinstance(graph_or_edges, RootGraph):
        if graph_or_edges.vertex_count != roots.r:
            raise ValidationError(
                f"graph has {graph_or_edges.vertex_count} vertices, expected {roots.r}"
            )
        return graph_or_edges
    return orient(graph_or_edges, roots)


def _components(roots: RootSet, n_edges: int, k: int = 1) -> dict:
    """The main row of the component table (k = 1), or its square (k = 2),
    the sep-product row, in COMPONENT_KEYS order."""
    d, r = roots.total_degree, roots.r
    sdisc = sdisc_abs_from_roots(roots)
    r_r = RBall.exact(r**r)
    mmin = min(d, 2 * d - 2 * r)
    return {
        "sdisc_sqrt": sdisc.sqrt() if k == 1 else sdisc,
        "mahler_power": mahler_measure(roots).powi(-k * (r - 1)),
        "edge_factor": roots.table.edge_base.powi(-n_edges),
        "r_power": RBall.one() / (r_r.sqrt() if k == 1 else r_r),
        "multiplicity_factor": RBall.one() / RBall.exact(3**mmin).root(6 // k),
    }


def _finish(
    variant: str,
    lhs: RBall,
    components: dict,
    cert,
    precision: int,
    roots: RootSet,
    g: RootGraph | None,
    extra: dict,
    degenerate_holds: bool = False,
) -> BoundReport:
    rhs = ball_product(list(components.values()))
    if degenerate_holds:
        verdict = "holds"
    elif extra.get("certificate_error"):
        verdict = "inconclusive"
    else:
        verdict = "holds" if lhs.lo >= rhs.hi else "inconclusive"
    return BoundReport(
        variant=variant,
        lhs=lhs,
        rhs=rhs,
        components=components,
        verdict=verdict,
        certificate=cert,
        precision_bits=precision,
        roots=roots,
        graph=g,
        extra=extra,
    )


def _rung_roots(p, roots: RootSet | None, precision: int) -> RootSet:
    """The root set of `p` at `precision`: `roots`, a root set of `p` found
    at any precision, carried there by `refine`, or a fresh one. The rung
    table, and with it every bound of the rung, runs at its precision."""
    return find_roots(p, precision) if roots is None else refine(p, roots, precision)


def _graph_bound(
    variant: str, p, graph_or_edges, precision: int, roots: RootSet | None, check=None,
) -> BoundReport:
    """The pipeline every graph variant runs: roots at `precision`
    (`_rung_roots`), orientation, reduction certificate, LHS over the edges,
    components and verdict.

    `check(roots, g)` raises when a precondition of the variant fails and
    returns the variant's report fields and the factors its row swaps into
    the main row. The LHS is |edge product| off the root set's rung table,
    which the certificate and the components read too, also when the
    certificate fails. A single distinct root is a degenerate success: the
    product over edges is empty.
    """
    roots = _rung_roots(p, roots, precision)
    with working_precision(precision):
        g = _as_graph(graph_or_edges, roots)
        extra, row = check(roots, g) if check else ({}, {})
        try:
            cert = reduce_vandermonde(roots, g)
        except CertificationError as exc:
            cert = None
            extra["certificate_error"] = str(exc)
        else:
            if not cert.identity.holds:
                extra["certificate_error"] = "determinant identity fails modulo q"
        lhs = roots.table.edges(g).edge_product.abs()
        components = {**_components(roots, g.edge_count), **row}
        degenerate = roots.r == 1
        if degenerate:
            extra["degenerate"] = "single distinct root"
        return _finish(variant, lhs, components, cert, precision, roots, g, extra, degenerate)


def bound_main(p, graph_or_edges, precision: int = 128, roots: RootSet | None = None) -> BoundReport:
    """The generalized bound for an arbitrary graph on the roots."""
    return _graph_bound("main", p, graph_or_edges, precision, roots)


def bound_classical(p, graph_or_edges, precision: int = 128, roots: RootSet | None = None) -> BoundReport:
    """The classical bound: square-free polynomials, in-degree at most 1.

    Preconditions are checked exactly: the polynomial must be square-free,
    and the oriented graph must satisfy the in-degree cap.
    """

    def check(roots, g):
        d = p.degree
        if roots.r != d:
            raise PreconditionError(
                "Disc(P) vanishes: the polynomial is not square-free"
            )
        cond1, cond2, cond3 = check_classical_admissible(g)
        if not cond1:  # pragma: no cover - orientation makes this impossible
            raise PreconditionError("condition 1 fails: an edge runs against the modulus order")
        if not cond2:  # pragma: no cover
            raise PreconditionError("condition 2 fails: the oriented graph has a cycle")
        if not cond3:
            worst = max(range(g.vertex_count), key=lambda j: g.in_degrees[j])
            raise PreconditionError(
                f"condition 3 fails: vertex {worst} has in-degree {g.in_degrees[worst]} > 1"
            )
        if d == 1:
            return {}, {}
        disc_abs = _abs_ball(_derivative_coefficients(p, roots.chain_heads)[0] / p.leading)
        return {}, {"sdisc_sqrt": disc_abs.sqrt(), "multiplicity_factor": RBall.one()}

    return _graph_bound("classical", p, graph_or_edges, precision, roots, check)


def bound_remark_degree(p, graph_or_edges, precision: int = 128, roots: RootSet | None = None) -> BoundReport:
    """Variant for monic polynomials: the Mahler exponent improves by half the
    minimum total degree of the graph."""
    if p.is_zero or p.leading != 1:
        raise PreconditionError("this variant requires a monic polynomial (leading coefficient exactly 1)")

    def check(roots, g):
        dtilde = min_total_degree(g)
        exponent = -(roots.r - 1) + mpf(dtilde) / 2
        return {"min_total_degree": dtilde}, {"mahler_power": mahler_measure(roots).powr(exponent)}

    return _graph_bound("remark_degree", p, graph_or_edges, precision, roots, check)


def bound_remark_pairs(
    p,
    graph_or_edges,
    hints,
    precision: int = 128,
    roots: RootSet | None = None,
) -> BoundReport:
    """Variant using externally certified close pairs to improve the edge factor.

    With k validated pairs and #E < k, the edge-factor exponent becomes
    -#E + (sum of the k - #E smallest hint exponents).
    """

    def check(roots, g):
        r = roots.r
        if r <= 2:
            raise PreconditionError(f"this variant requires r > 2 distinct roots, got r={r}")
        pairs = hints if isinstance(hints, ClusterHint) else ClusterHint.build(hints, roots)
        n_edges = g.edge_count
        if n_edges >= pairs.k:
            raise PreconditionError(
                f"this variant requires #E < k, got #E={n_edges}, k={pairs.k}"
            )
        extra_exponent = mpf(0)
        for _, _, dv in pairs.pairs[n_edges:]:
            extra_exponent += dv
        exponent = -n_edges + extra_exponent
        extra = {
            "hint_pairs": [[a, b, float(dv)] for a, b, dv in pairs.pairs],
            "edge_exponent": float(exponent),
        }
        return extra, {"edge_factor": roots.table.edge_base.powr(exponent)}

    return _graph_bound("remark_pairs", p, graph_or_edges, precision, roots, check)


def bound_sep_product(p, subset, precision: int = 128, roots: RootSet | None = None) -> BoundReport:
    """Lower bound on prod over a subset of roots of the distance to the
    nearest different root.

    Internally builds the nearest-neighbor multiset over the subset, splits
    it into the support E0 and the doubly occurring edges E1 (an edge can
    occur at most twice, once per endpoint), and composes the main bound for
    both graphs; #E0 + #E1 equals the subset size.
    """
    roots = _rung_roots(p, roots, precision)
    with working_precision(precision):
        r = roots.r
        if r < 2:
            raise PreconditionError("sep products need at least 2 distinct roots")
        for v in subset:
            if not _is_index(v) or not 0 <= v < r:
                raise ValidationError(f"subset index {v!r} out of range 0..{r - 1}")
        subset = sorted(set(subset))
        counts: dict[tuple[int, int], int] = {}
        seps = []
        for v in subset:
            partner = roots.partner(v)
            key = (min(v, partner), max(v, partner))
            counts[key] = counts.get(key, 0) + 1
            seps.append(roots.distance(*key))
        e0 = sorted(counts)
        e1 = sorted(k for k, c in counts.items() if c == 2)
        if len(e0) + len(e1) != len(subset):  # pragma: no cover
            raise RootsepError("edge split does not match the subset size")
        sub0 = _graph_bound("main", p, e0, precision, roots)
        sub1 = _graph_bound("main", p, e1, precision, roots)
        lhs = ball_product(seps)
        components = _components(roots, len(subset), k=2)
        extra = {
            "subset": subset,
            "e0": [list(e) for e in e0],
            "e1": [list(e) for e in e1],
            "split_identity": len(e0) + len(e1) == len(subset),
            "subreports": [sub0.to_json(), sub1.to_json()],
        }
        if sub0.extra.get("certificate_error") or sub1.extra.get("certificate_error"):
            extra["certificate_error"] = "component certificate inconclusive"
        return _finish(
            "sep_product", lhs, components, None, precision, roots, None, extra,
            degenerate_holds=(len(subset) == 0),
        )


_DISPATCH = {
    "classical": bound_classical,
    "main": bound_main,
    "remark_degree": bound_remark_degree,
    "remark_pairs": bound_remark_pairs,
    "sep_product": bound_sep_product,
}


def verify(
    p,
    graph_or_edges,
    variant: str = "main",
    precision: int = 128,
    ceiling: int = 1024,
    hints=None,
    subset=None,
    roots: RootSet | None = None,
) -> BoundReport:
    """Run a bound variant, escalating precision while the verdict is
    inconclusive. Input errors propagate; certification problems never crash
    and surface as an inconclusive report at the ceiling.

    `roots`, a root set of `p` found at any precision, is carried to the
    first rung by `refine` (`_rung_roots`); each later rung gets the newest
    certified set, its predecessor's, the same way. A set whose disks are already as tight
    as a fresh solve at a rung would make them is used as it is there;
    otherwise the rung solves again, warm-started from it. `p` is exact (the
    parser reads a decimal literal as its exact rational), so every rung
    certifies the polynomial the caller wrote.
    """
    if variant not in _DISPATCH:
        raise ValidationError(
            f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}"
        )
    if not isinstance(precision, int) or precision < 1:
        raise ValidationError(f"precision must be a positive int, got {precision!r}")
    if not isinstance(ceiling, int) or ceiling < 1:
        raise ValidationError(f"ceiling must be a positive int, got {ceiling!r}")
    inputs, needs = {
        "remark_pairs": ((graph_or_edges, hints), "hint pairs"),
        "sep_product": ((subset,), "a root subset"),
    }.get(variant, ((graph_or_edges,), None))
    if needs and inputs[-1] is None:
        raise ValidationError(f"{variant} requires {needs}")
    ceiling = max(ceiling, precision)
    prec = precision
    while True:
        try:
            report = _DISPATCH[variant](p, *inputs, prec, roots=roots)
        except (IndistinguishableRootsError, CertificationError, BallDomainError) as exc:
            report = BoundReport(
                variant=variant,
                lhs=RBall.exact(0),
                rhs=RBall.exact(0),
                components={},
                verdict="inconclusive",
                certificate=None,
                precision_bits=prec,
                extra={"error": str(exc)},
            )
        if report.holds or prec >= ceiling:
            return report
        if report.roots is not None:
            roots = report.roots
        prec = min(2 * prec, ceiling)
