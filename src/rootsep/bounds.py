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
det W is taken from its closed form, the product over i < j of
(v_j - v_i), and det W_1 by `ball_det` of W_1, so the identity
det W = det W_1 * prod(edge differences) compares two enclosures computed
independently. The row-norm bounds and the Hadamard bound live only on the
certificate (`row_norm_bounds`, `hadamard_rhs`), checked against the
propagated radii by `rows_ok` and `hadamard_ok`.

Every root-dependent factor is read off the root set's rung table
(`RootSet.table`, see `balls`), so a rung builds one for all its graphs:
the certificate's distinctness check, step factors, edge product, det W and
W_1, the LHS (|edge product|), the sep-product distances, and, through
`invariants.sdisc_abs_from_roots` and `invariants.mahler_measure`,
|sDisc_{d-r}| (from |det W|) and the Mahler measure, which shares
max(1, |v_j|) with the row-norm bounds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isfinite

import mpmath
from mpmath import mpf

from .balls import CBall, RBall, ball_det, ball_product, grid_row_norm, json_real, working_precision
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
from .poly import _derivative_coefficients
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
# auxiliary inequalities, checked exactly
# ---------------------------------------------------------------------------


def lemma_aux_check(d: int, r: int) -> tuple[mpf, mpf, mpf]:
    """The binomial-sum inequality chain for in-degree d and size r.

    Returns (lhs, mid, rhs) where
        lhs = (sum_{i=d}^{r-1} C(i,d)^2)^(1/2)
        mid = C(r-1,d) * ((r+d)/(2d+1))^(1/2)
        rhs = (r/sqrt(3))^d * r^(1/2)
    The chain lhs <= mid <= rhs is verified exactly on the squares before
    the floating values are returned.
    """
    if d < 0 or r < 1 or d > r - 1:
        raise PreconditionError(f"lemma_aux_check needs 0 <= d <= r-1, got d={d}, r={r}")
    lhs_sq = sum(comb(i, d) ** 2 for i in range(d, r))
    mid_sq = Fraction(comb(r - 1, d) ** 2 * (r + d), 2 * d + 1)
    rhs_sq = Fraction(r ** (2 * d + 1), 3**d)
    if not (lhs_sq <= mid_sq <= rhs_sq):  # pragma: no cover
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
    d = sum(ms)
    r = len(ms)
    mmin = min(d, 2 * d - 2 * r)
    product = 1
    for m in ms:
        product *= m
    if product**3 > 3**mmin:  # pragma: no cover
        raise RootsepError(f"multiplicity bound failed for {ms}")
    return mpf(product), mpmath.cbrt(mpf(3**mmin))


# ---------------------------------------------------------------------------
# Vandermonde reduction certificate
# ---------------------------------------------------------------------------


def vandermonde_matrix(roots: RootSet) -> list[list[CBall]]:
    """r x r matrix with row j = (1, v_j, ..., v_j^{r-1})."""
    rows = []
    for v in roots.values():
        row = [CBall.one()]
        for _ in range(roots.r - 1):
            row.append(row[-1] * v)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class VandermondeCertificate:
    """The row-replacement reduction's determinants plus its checks.

    Starting from the Vandermonde matrix W, each step replaces one row
    (highest index first) by the divided difference of the power basis over
    the sources of the edges finishing there, ending at the fully reduced
    matrix W_1. step_factors[i] is the product of (v_j - v_source) for the
    row replaced at step i (exact 1 for rows without incoming edges).
    det_w is the product of (v_j - v_i) over i < j, one exact product on
    the rung table's grid, and edge_product the product of the step
    factors; det_w1 is `ball_det` of W_1, which is built directly on the
    same grid, so W itself is never formed. The row norms are read off
    W_1's grid rows, and the row-norm bounds read max(1, |v_j|) off the
    table; they and their product, the Hadamard bound, are kept only here.
    """

    step_factors: tuple
    det_w: CBall
    det_w1: CBall
    edge_product: CBall
    row_norms: tuple
    row_norm_bounds: tuple
    hadamard_rhs: RBall
    identity_rel_discrepancy: float

    def identity_certified(self) -> bool:
        return self.det_w.overlaps(self.det_w1 * self.edge_product)

    def hadamard_ok(self) -> bool:
        return self.det_w1.abs().lo <= self.hadamard_rhs.hi

    def rows_ok(self) -> bool:
        return all(
            n.lo <= b.hi for n, b in zip(self.row_norms, self.row_norm_bounds)
        )

    def to_json(self) -> dict:
        return {
            "det_w": self.det_w.to_json(),
            "det_w1": self.det_w1.to_json(),
            "step_factors": [f.to_json() for f in self.step_factors],
            "row_norms": [n.to_json() for n in self.row_norms],
            "row_norm_bounds": [b.to_json() for b in self.row_norm_bounds],
            "hadamard": self.hadamard_rhs.to_json(),
            "identity_rel_discrepancy": self.identity_rel_discrepancy,
        }


def reduce_vandermonde(roots: RootSet, g: RootGraph) -> VandermondeCertificate:
    """Run the row-replacement reduction and certify its determinant identity,
    at the root set's precision.

    Reads the root set's rung table and its products over the edges of `g`:
    the distinctness check, the step factors, det W, the edge product and
    the row bounds' max(1, |v_j|). W_1 is built on the table's grid and
    handed to `ball_det` as grid rows, and its row norms are read off the
    same rows. Raises CertificationError when the propagated radii cannot
    certify det W = det W_1 * prod(edge differences).
    """
    if g.vertex_count != roots.r:
        raise ValidationError(
            f"graph has {g.vertex_count} vertices but the root set has {roots.r}"
        )
    precision = roots.precision_bits
    with working_precision(precision):
        r = roots.r
        t = roots.table
        e = t.edges(g)
        pair = t.indistinct()
        if pair is not None:
            raise CertificationError(
                precision, f"nodes {pair[0]} and {pair[1]} are not certifiably distinct"
            )
        w1 = t.w1(e.sources)
        row_norms = tuple([grid_row_norm(row, w1.w) for row in w1.rows])
        try:
            det_w1 = ball_det(w1)
        except BallDomainError as exc:
            raise CertificationError(precision, str(exc)) from exc
        recombined = det_w1 * e.edge_product
        gap = abs(t.det_w.mid - recombined.mid)
        scale = max(abs(t.det_w.mid), abs(recombined.mid))
        rel = float(gap / scale) if scale > 0 else 0.0
        # row j's bound: (r/sqrt(3))^d_j * sqrt(r) * max(1, |v_j|)^(r-1-d_j),
        # with the powers of r/sqrt(3) from one running product
        powers = [RBall.one(), t.edge_base]
        while len(powers) <= max(g.in_degrees):
            powers.append(powers[-1] * t.edge_base)
        sqrt_r = RBall.exact(r).sqrt()
        row_bounds = tuple([
            powers[d] * sqrt_r * t.max1[j].powi(r - 1 - d)
            for j, d in enumerate(g.in_degrees)
        ])
        cert = VandermondeCertificate(
            step_factors=e.step_factors,
            det_w=t.det_w,
            det_w1=det_w1,
            edge_product=e.edge_product,
            row_norms=row_norms,
            row_norm_bounds=row_bounds,
            hadamard_rhs=ball_product(row_bounds),
            identity_rel_discrepancy=rel,
        )
        if not cert.identity_certified():
            raise CertificationError(precision, "determinant identity not certified")
        return cert


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    variant: str
    lhs: RBall
    rhs: RBall
    components: dict
    margin: float
    verdict: str
    certificate: VandermondeCertificate | None
    precision_bits: int
    roots: RootSet | None = None
    graph: RootGraph | None = None
    extra: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

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
    # decided on the enclosures: a tiny negative margin can round to -0.0
    margin = float(lhs.lo - rhs.hi)
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
        margin=margin,
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
        lhs = ball_product(seps, RBall.one())
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
                margin=0.0,
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
