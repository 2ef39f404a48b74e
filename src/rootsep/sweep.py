"""Randomized verification campaigns.

Instances are generated deterministically from (seed, index): a polynomial
lead * prod (X - q_i)^{m_i} with small Gaussian-rational roots and bounded
multiplicities, plus a graph drawn from the presets (including complete
graphs, which the in-degree-capped classical statement would reject). The
expansion is exact, so the pipeline sees honest coefficients, not the
constructed roots.

Graphs always carry at least one edge when there are two or more distinct
roots: with an edge present the bound is strictly separated from the product
and the interval verdict can always resolve, while tight empty-graph
configurations (for example all roots on the unit circle) sit exactly on the
boundary, where no finite precision can decide a non-strict inequality.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .bounds import bound_main, verify
from .errors import ValidationError
from .gaussian import GaussianRational
from .graph import _is_index, orient, preset_edges
from .poly import ExactPoly
from .roots import find_roots

GRAPH_KINDS = ("path", "star_max", "complete", "nearest_neighbor", "random")

_ALLOWED_PRECISIONS = (64, 128, 256, 512, 1024)


def _check_precision(bits: int) -> int:
    """`bits` if it is a precision the CLI and the sweep accept."""
    if bits not in _ALLOWED_PRECISIONS:
        raise ValidationError(
            f"precision must be a power of two between 64 and 1024, got {bits}"
        )
    return bits


@dataclass(frozen=True)
class SweepParams:
    count: int = 1000
    max_degree: int = 12
    max_multiplicity: int = 4
    graph_kinds: tuple = GRAPH_KINDS
    precision_bits: int = 128
    ceiling_bits: int = 512
    force_cluster: Fraction | None = None

    def validate(self) -> None:
        if self.count < 1:
            raise ValidationError("sweep count must be positive")
        if self.max_degree < 1:
            raise ValidationError("max degree must be positive")
        if self.max_multiplicity < 1:
            raise ValidationError("max multiplicity must be positive")
        for kind in self.graph_kinds:
            if kind not in GRAPH_KINDS:
                raise ValidationError(f"unknown graph kind {kind!r}")
        _check_precision(self.precision_bits)
        _check_precision(self.ceiling_bits)
        if self.force_cluster == 0:
            raise ValidationError("a forced cluster needs a nonzero offset")


def _instance_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * 1_000_003 + index) & 0xFFFFFFFFFFFF)


def _random_gaussian_rational(rng: random.Random, allow_imag: bool = True) -> GaussianRational:
    def part() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 4))

    re = part()
    im = part() if (allow_imag and rng.random() < 0.4) else Fraction(0)
    return GaussianRational(re, im)


def generate_instance(seed: int, index: int, params: SweepParams):
    """Deterministic (polynomial, graph description, metadata) for one sweep
    slot; `params` are validated first."""
    params.validate()
    rng = _instance_rng(seed, index)
    max_distinct = min(8, params.max_degree)
    while True:
        n_distinct = rng.randint(1, max_distinct)
        mults = []
        total = 0
        for _ in range(n_distinct):
            m = rng.randint(1, params.max_multiplicity)
            if total + m > params.max_degree:
                m = params.max_degree - total
                if m < 1:
                    break
            mults.append(m)
            total += m
        if mults:
            break
    roots: list[GaussianRational] = []
    while len(roots) < len(mults):
        q = _random_gaussian_rational(rng)
        if all(q != other for other in roots):
            roots.append(q)
    if params.force_cluster is not None and len(roots) >= 2:
        eps = params.force_cluster
        roots[1] = roots[0] + GaussianRational.of(eps)
        if any(roots[1] == other for i, other in enumerate(roots) if i != 1):
            roots[1] = roots[0] + GaussianRational.of(eps / 2)
    lead_choices = [
        GaussianRational.of(1),
        GaussianRational.of(1),
        GaussianRational.of(2),
        GaussianRational.of(-1),
        GaussianRational.of(Fraction(3, 2)),
        GaussianRational.of(1, 1),
    ]
    lead = rng.choice(lead_choices)
    p = ExactPoly.from_roots(roots, mults, lead)
    r = len(roots)
    kind = rng.choice(list(params.graph_kinds))
    graph_desc: dict
    if kind == "random":
        edges = _random_edges(rng, r)
        graph_desc = {"edges": edges}
    else:
        graph_desc = {"preset": kind}
    meta = {
        "index": index,
        "degree": p.degree,
        "distinct": r,
        "multiplicities": mults,
        "graph": kind,
        "lead": str(lead),
    }
    return p, graph_desc, meta


def _random_edges(rng: random.Random, r: int) -> list[tuple[int, int]]:
    if r < 2:
        return []
    edges = [
        (i, j)
        for j in range(r)
        for i in range(j)
        if rng.random() < 0.35
    ]
    if not edges:
        i = rng.randrange(r - 1)
        edges = [(i, i + 1)]
    return edges


def _resolve_edges(graph_desc: dict, roots) -> list[tuple[int, int]]:
    if "edges" in graph_desc:
        return [tuple(e) for e in graph_desc["edges"]]
    return preset_edges(graph_desc["preset"], roots)


def run_instance(seed: int, index: int, params: SweepParams) -> dict:
    """Generate and verify one instance (`generate_instance` validates
    `params`); returns a JSON-ready record."""
    p, graph_desc, meta = generate_instance(seed, index, params)
    roots = find_roots(p, params.precision_bits)
    edges = _resolve_edges(graph_desc, roots)
    g = orient(edges, roots)
    report = bound_main(p, g, params.precision_bits, roots=roots)
    record = {
        **meta,
        "edges": [list(e) for e in g.edges],
        "verdict_first": report.verdict,
        "margin": report.margin_json(),
        "violated": report.verdict not in ("holds", "inconclusive"),
        "resolved_bits": params.precision_bits if report.holds else None,
        "identity_holds": report.certificate.identity.holds if report.certificate else None,
        "hadamard_ok": report.certificate.hadamard_ok() if report.certificate else None,
        "rows_ok": report.certificate.rows_ok() if report.certificate else None,
    }
    if not report.holds and 2 * params.precision_bits <= params.ceiling_bits:
        # the first rung at precision_bits is the report just made; its
        # root set is carried up the ladder
        escalated = verify(
            p, edges, "main",
            precision=2 * params.precision_bits,
            ceiling=params.ceiling_bits,
            roots=roots,
        )
        record["verdict_final"] = escalated.verdict
        record["resolved_bits"] = (
            escalated.precision_bits if escalated.holds else None
        )
    else:
        record["verdict_final"] = report.verdict
    return record


def run_sweep(seed: int, params: SweepParams, jobs: int = 1) -> dict:
    """Run the full campaign; the result is independent of scheduling because
    every record is a pure function of (seed, index, params), and `map`
    keeps the order of the indices. `jobs` asks for that many worker
    processes; at most one per instance and per CPU starts, since a pool
    forks all its workers at once."""
    params.validate()
    if not _is_index(jobs) or jobs < 1:
        raise ValidationError(f"jobs must be a positive int, got {jobs!r}")
    workers = min(jobs, params.count, os.cpu_count() or 1)
    tasks = (repeat(seed), range(params.count), repeat(params))
    if workers > 1:
        # imported only here: multiprocessing adds about 2 MB to every
        # process that imports rootsep, and most never start a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_instance, *tasks, chunksize=8))
    else:
        records = list(map(run_instance, *tasks))
    violations = [rec for rec in records if rec["violated"]]
    inconclusive_first = [
        rec for rec in records if rec["verdict_first"] != "holds"
    ]
    unresolved = [rec for rec in records if rec["verdict_final"] != "holds"]
    return {
        "seed": seed,
        "count": params.count,
        "precision_bits": params.precision_bits,
        "ceiling_bits": params.ceiling_bits,
        "violations": len(violations),
        "inconclusive_at_base": len(inconclusive_first),
        "unresolved": len(unresolved),
        "hadamard_failures": sum(
            1 for rec in records if rec["hadamard_ok"] is False
        ),
        "row_bound_failures": sum(
            1 for rec in records if rec["rows_ok"] is False
        ),
        "identity_failures": sum(
            1 for rec in records if rec["identity_holds"] is False
        ),
        "instances": records,
    }
