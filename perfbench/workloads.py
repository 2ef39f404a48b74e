"""The four seeded workloads and the checks on every op's output.

Every op is a pure function of (workload, seed, index): the same seed gives
the same inputs, and the benchmark hands rootsep only the generated inputs.
Each workload runs in rounds of `round_size` consecutive ops; one round
covers each input class (degree, graph, epsilon) once, so a run that stops
on a round boundary always measures the same mix.

sweep
    `rootsep.sweep.run_instance(seed, i, SweepParams())` for i = 0, 1, ...:
    the acceptance sweep's distribution (degree <= 12, at most 8 distinct
    roots, multiplicity <= 4, five graph kinds, 128 bits, ceiling 512). Many
    small ops, where the fixed cost of ball arithmetic and a small exact
    layer dominate. Stresses `bounds.reduce_vandermonde` and `roots.find_roots`.
clustered
    The same generator at degree <= 8 with `force_cluster`, each instance
    with r >= 2 run at eps = 2^-80 and then at 2^-200, the clustered pair
    alternately inside one square-free factor (with r = 2 and 3 in turn)
    and across two. The only
    workload that escalates precision, so it measures both ladders (inside
    `find_roots` and in `verify`); same layers as `sweep`, along the retry
    path.
real-highdeg
    CLI `verify` (`rootsep.cli.main`, `--out` to a file) on square-free
    polynomials with distinct real roots k/4, |root| <= R, one k from each of
    d equal bins of -4R..4R, degree cycling 12, 14, 16 with R = 4, 6, 8, and
    the graph preset alternating `complete` and `path`. Aberth iteration
    dominates and the exact layer is under 1%; `complete` exercises the
    Vandermonde reduction and `path` bypasses it (every in-degree is 1).
complex-exact
    CLI `verify --preset nearest_neighbor` then CLI `invariants`, as one op,
    on non-real Gaussian-rational roots with denominators 3, 5, 7 and 8 and
    numerators drawn one root per cell of a fixed grid:
    square-free at degree 11 and 12, plus one degree-12 instance with six
    distinct roots of multiplicities 1..3, so that Yun's loop runs. Stresses
    the exact layer (`poly.square_free_decomposition`, `poly.pseudo_rem`)
    and the exact subresultants in `invariants`.

All four are closed loops with one client: each op starts when the previous
one has returned.
"""
from __future__ import annotations

import collections
import contextlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import mpmath

import rootsep.cli
import rootsep.sweep
from rootsep.poly import ExactPoly

VERDICTS = ("holds", "inconclusive")


class CheckError(Exception):
    """An op returned a wrong result; the run aborts."""


@dataclass
class Outcome:
    verdict: str | None
    resolved_bits: int | None
    r: int | None
    failed: str | None = None  # "inconclusive", "error:<type>", ...


@dataclass
class Op:
    index: int
    input_key: str  # what the op was given, for the determinism test
    call: Callable[[], object]  # the timed part
    check: Callable[[object], Outcome]  # validates `call`'s result


# ---------------------------------------------------------------------------
# matching reported roots against the roots a polynomial was built from
# ---------------------------------------------------------------------------


def _match_roots(reported, built, distance, tolerance) -> None:
    """One-to-one match of reported (mid, rad, multiplicity) against built
    (root, multiplicity); each built root must lie in the disk of the
    reported root nearest to it, up to `tolerance`."""
    if len(reported) != len(built):
        raise CheckError(f"{len(reported)} distinct roots reported, {len(built)} built")
    used = set()
    for q, mult in built:
        dists = [distance(mid, q) for mid, _, _ in reported]
        j = min(range(len(reported)), key=dists.__getitem__)
        mid, rad, rmult = reported[j]
        if j in used:
            raise CheckError(f"two built roots fall nearest to reported root {j}")
        used.add(j)
        if dists[j] > rad + tolerance(rad, q):
            raise CheckError(f"built root {q} lies outside reported disk {j}")
        if rmult != mult:
            raise CheckError(f"root {j}: multiplicity {rmult} reported, {mult} built")


def _abs_q(q) -> float:
    return abs(complex(float(q[0]), float(q[1])))


def check_json_roots(entries: list[dict], built) -> None:
    """Roots from a CLI report (floats): float tolerance around the radius."""
    _match_roots(
        [(complex(e["re"], e["im"]), e["rad"], e["multiplicity"]) for e in entries],
        built,
        lambda mid, q: abs(mid - complex(float(q[0]), float(q[1]))),
        lambda rad, q: rad * 1e-9 + 1e-13 * (1 + _abs_q(q)),
    )


def check_rootset(roots, built) -> None:
    """Roots from a `RootSet` (mpmath balls), compared at high precision."""
    with mpmath.mp.workprec(4 * roots.precision_bits + 256):
        def exact(q):
            return mpmath.mpc(
                mpmath.mpf(q[0].numerator) / q[0].denominator,
                mpmath.mpf(q[1].numerator) / q[1].denominator,
            )

        def tolerance(rad, q):
            slack = mpmath.ldexp(1 + _abs_q(q), -2 * roots.precision_bits)
            return rad * mpmath.ldexp(1, -32) + slack

        _match_roots(
            [(e.value.mid, e.value.rad, e.multiplicity) for e in roots.entries],
            built,
            lambda mid, q: abs(mid - exact(q)),
            tolerance,
        )
    if roots.total_degree != sum(m for _, m in built):
        raise CheckError(f"degree {roots.total_degree} reported")


# ---------------------------------------------------------------------------
# sweep and clustered: run_instance, with its results captured
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _capture(module, names):
    """Record the return values of `module.<name>` calls made inside the block."""
    got: dict[str, list] = {n: [] for n in names}
    saved = {n: getattr(module, n) for n in names}

    def recorder(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            got[name].append(out)
            return out
        return call

    for n, fn in saved.items():
        setattr(module, n, recorder(n, fn))
    try:
        yield got
    finally:
        for n, fn in saved.items():
            setattr(module, n, fn)


def sweep_construction(seed: int, index: int, params) -> list[tuple]:
    """The (root, multiplicity) pairs `generate_instance` builds its
    polynomial from, taken from its call to `ExactPoly.from_roots`."""
    built = []
    original = ExactPoly.__dict__["from_roots"]

    def spy(roots, multiplicities=None, lead=1):
        built.extend(
            ((q.re, q.im), m)
            for q, m in zip(roots, multiplicities or [1] * len(roots))
        )
        return original.__func__(roots, multiplicities, lead)

    ExactPoly.from_roots = staticmethod(spy)
    try:
        rootsep.sweep.generate_instance(seed, index, params)
    finally:
        ExactPoly.from_roots = original
    return built


def _sweep_op(seed: int, index: int, instance: int, params) -> Op:
    def call():
        with _capture(rootsep.sweep, ("find_roots", "bound_main", "verify")) as got:
            record = rootsep.sweep.run_instance(seed, instance, params)
        return record, got

    def check(out) -> Outcome:
        record, got = out
        built = sweep_construction(seed, instance, params)
        if record["violated"] or record["verdict_first"] not in VERDICTS \
                or record["verdict_final"] not in VERDICTS:
            raise CheckError(f"verdicts {record['verdict_first']}/{record['verdict_final']}")
        roots = got["find_roots"][0]
        check_rootset(roots, built)
        reports = got["bound_main"] + got["verify"]
        for report in reports:
            if report.roots is not None:
                check_rootset(report.roots, built)
            cert = report.certificate
            if cert is not None and not (cert.hadamard_ok() and cert.rows_ok()):
                raise CheckError("certificate Hadamard or row bound fails")
        final = reports[-1]
        if final.verdict != record["verdict_final"]:
            raise CheckError("record and report verdicts differ")
        if final.holds and roots.r > 1 and final.certificate is None:
            raise CheckError("verdict holds without a certificate")
        if record["hadamard_ok"] is False or record["rows_ok"] is False:
            raise CheckError("record flags a failed certificate bound")
        return Outcome(
            verdict=record["verdict_final"],
            resolved_bits=record["resolved_bits"],
            r=roots.r,
            failed=None if record["verdict_final"] == "holds" else "inconclusive",
        )

    return Op(index, f"{seed}:{instance}:{params.force_cluster}", call, check)


SWEEP_PARAMS = rootsep.sweep.SweepParams()
CLUSTER_EPS = (Fraction(1, 2**80), Fraction(1, 2**200))
#: at the sweep's degree 12, single ops at 2^-200 run up to 3 s and a few of
#: them swing a run's throughput by a third; degree 8 keeps every rung
CLUSTER_MAX_DEGREE = 8
#: distinct-root counts that clusters inside one factor cycle through
CLUSTER_SAME_FACTOR_R = (2, 3)


def sweep_ops(seed: int, workdir: str):
    for index in itertools.count():
        yield _sweep_op(seed, index, index, SWEEP_PARAMS)


def clustered_ops(seed: int, workdir: str):
    """Each instance runs at every epsilon, consecutively. Instances
    alternate between a cluster inside one square-free factor (the two
    clustered roots share a multiplicity, so `find_roots` must split them
    itself and climbs its own ladder; such ops take 10x longer) and a cluster
    across two factors. The generator gives the first kind a quarter of the
    time; alternating fixes the share, which sets the tail percentiles. The
    first kind also cycles through `CLUSTER_SAME_FACTOR_R` distinct roots,
    since its cost grows with them and spreads: at 2^-200 an op takes
    0.2-0.4 s at r = 2 or 3, but 0.2-1.1 s at r = 4 and up to 1.7 s beyond,
    and left to the generator those few ops set a run's throughput."""
    params = [
        rootsep.sweep.SweepParams(max_degree=CLUSTER_MAX_DEGREE, force_cluster=eps)
        for eps in CLUSTER_EPS
    ]
    order = [kind for r in CLUSTER_SAME_FACTOR_R for kind in (r, "across")]
    queues = collections.defaultdict(collections.deque)
    scanned = itertools.count()
    index = 0
    for kind in itertools.cycle(order):
        while not queues[kind]:
            instance = next(scanned)
            built = sweep_construction(seed, instance, params[0])
            if len(built) >= 2:  # a single root leaves nothing to cluster
                same_factor = built[0][1] == built[1][1]
                queues[len(built) if same_factor else "across"].append(instance)
        instance = queues[kind].popleft()
        for p in params:
            yield _sweep_op(seed, index, instance, p)
            index += 1


# ---------------------------------------------------------------------------
# CLI workloads: polynomials built and rendered here, not by rootsep
# ---------------------------------------------------------------------------


def expand(built) -> list[tuple[Fraction, Fraction]]:
    """Coefficients, lowest degree first, of prod (x - q)^m."""
    coeffs = [(Fraction(1), Fraction(0))]
    for (qr, qi), m in built:
        for _ in range(m):
            nxt = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
            for k, (cr, ci) in enumerate(coeffs):
                ar, ai = nxt[k + 1]
                nxt[k + 1] = (ar + cr, ai + ci)
                br, bi = nxt[k]
                nxt[k] = (br - (cr * qr - ci * qi), bi - (cr * qi + ci * qr))
            coeffs = nxt
    return coeffs


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render(coeffs) -> str:
    """Expanded text such as `x^3 - 3/4*x + (1/2-2*i)`."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        re, im = coeffs[k]
        if re == 0 and im == 0:
            continue
        if im == 0:
            sign, body = ("-" if re < 0 else "+"), _frac(abs(re))
        else:
            sign = "+"
            body = f"({_frac(re)}{'-' if im < 0 else '+'}{_frac(abs(im))}*i)"
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if not mono:
            term = body
        elif body == "1":
            term = mono
        else:
            term = f"{body}*{mono}"
        terms.append((sign, term))
    first_sign, first = terms[0]
    text = ("-" if first_sign == "-" else "") + first
    return text + "".join(f" {s} {t}" for s, t in terms[1:])


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cli(argv: list[str], out: str) -> int:
    if os.path.exists(out):
        os.unlink(out)
    return rootsep.cli.main(argv + ["--out", out])


def _cli_failure(rc: int, report: dict) -> str | None:
    if rc == 0:
        return None
    if rc == 2:
        return "inconclusive"
    return "error:" + report.get("error", {}).get("type", f"exit {rc}")


def _check_verify_report(report: dict, built) -> None:
    if report["verdict"] not in VERDICTS:
        raise CheckError(f"verdict {report['verdict']!r}")
    poly = report["polynomial"]
    d = sum(m for _, m in built)
    if poly["degree"] != d or poly["distinct_roots"] != len(built):
        raise CheckError(f"d={poly['degree']}, r={poly['distinct_roots']} reported")
    check_json_roots(poly["roots"], built)


REAL_DEGREES = (12, 14, 16)
REAL_PRESETS = ("complete", "path")
REAL_BOUNDS = (4, 6, 8)


def real_highdeg_op(seed: int, index: int, workdir: str) -> Op:
    # Aberth's cost follows the root bound (its start radius) and how the
    # roots clump: the bound is tied to the degree, and k is drawn from each
    # of d equal-width bins of -4R..4R. A uniformly random k-subset varies
    # the cost of one slot by +-24% between seeds, the binned draw by +-4%.
    # Slots then cost in three tiers, one per degree, so the median and p90
    # each fall inside a tier rather than between two.
    d = REAL_DEGREES[index % len(REAL_DEGREES)]
    bound = REAL_BOUNDS[index % len(REAL_DEGREES)]
    preset = REAL_PRESETS[index % len(REAL_PRESETS)]
    rng = _rng("real-highdeg", seed, index)
    edges = [-4 * bound + (8 * bound + 1) * j // d for j in range(d + 1)]
    ks = [rng.randrange(edges[j], edges[j + 1]) for j in range(d)]
    built = [((Fraction(k, 4), Fraction(0)), 1) for k in ks]
    text = render(expand(built))
    out = os.path.join(workdir, "verify.json")

    def call():
        return _cli(["verify", "--poly", text, "--preset", preset], out)

    def check(rc) -> Outcome:
        report = _read(out)
        failed = _cli_failure(rc, report)
        if failed not in (None, "inconclusive"):
            return Outcome(None, None, None, failed)
        _check_verify_report(report, built)
        return Outcome(report["verdict"], report["precision_bits"],
                       report["polynomial"]["distinct_roots"], failed)

    return Op(index, f"{preset}:{text}", call, check)


#: (multiplicities) per slot: square-free at degree 11 and 12, and degree 12
#: with six distinct roots, so that Yun's loop runs
COMPLEX_SLOTS = ((1,) * 11, (1,) * 12, (1, 1, 2, 2, 3, 3))
#: denominators of the real and imaginary parts, by root position. The exact
#: layer's coefficient growth follows them: with these, it takes over half of
#: an op (with 1..4 Aberth does), and fixing them leaves the numerators as
#: the only seed-dependent part
COMPLEX_DENOMINATORS = (3, 5, 7, 8)
#: numerators of the real and of the imaginary parts (never 0: no real roots)
COMPLEX_RE = tuple(range(-8, 9))
COMPLEX_IM = tuple(k for k in range(-8, 9) if k)


def _bin(values: tuple, j: int, bins: int) -> tuple:
    return values[len(values) * j // bins:len(values) * (j + 1) // bins]


def complex_exact_op(seed: int, index: int, workdir: str) -> Op:
    # Root k is drawn from cell k of a fixed grid over the numerators (4 x 3
    # cells for degree 11 and 12, 3 x 2 for six roots), not from the whole
    # range: how the roots spread sets the size of the exact coefficients
    # and Aberth's work, and the grid keeps that spread alike between seeds.
    mults = list(COMPLEX_SLOTS[index % len(COMPLEX_SLOTS)])
    rng = _rng("complex-exact", seed, index)
    rng.shuffle(mults)
    dens = COMPLEX_DENOMINATORS
    cols, rows = (4, 3) if len(mults) > 6 else (3, 2)
    roots: list[tuple[Fraction, Fraction]] = []
    while len(roots) < len(mults):
        k = len(roots)
        q = (Fraction(rng.choice(_bin(COMPLEX_RE, k % cols, cols)), dens[k % len(dens)]),
             Fraction(rng.choice(_bin(COMPLEX_IM, k // cols, rows)),
                      dens[(k + 1) % len(dens)]))
        if q not in roots:
            roots.append(q)
    built = list(zip(roots, mults))
    text = render(expand(built))
    out_verify = os.path.join(workdir, "verify.json")
    out_inv = os.path.join(workdir, "invariants.json")

    def call():
        rc = _cli(["verify", "--poly", text, "--preset", "nearest_neighbor"], out_verify)
        return rc, _cli(["invariants", "--poly", text], out_inv)

    def check(rcs) -> Outcome:
        report, inv = _read(out_verify), _read(out_inv)
        failed = _cli_failure(rcs[0], report) or _cli_failure(rcs[1], inv)
        if failed not in (None, "inconclusive"):
            return Outcome(None, None, None, failed)
        _check_verify_report(report, built)
        d_built, r_built = sum(mults), len(built)
        if (inv["d"], inv["r"], inv["sdisc_index"]) != (d_built, r_built, d_built - r_built):
            raise CheckError(
                f"invariants d={inv['d']} r={inv['r']} sdisc_index={inv['sdisc_index']}"
            )
        check_json_roots(inv["roots"], built)
        return Outcome(report["verdict"], report["precision_bits"], inv["r"], failed)

    return Op(index, text, call, check)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, str], Iterator[Op]]  # (seed, scratch dir) -> ops in order
    round_size: int


def _indexed(make_op):
    def ops(seed: int, workdir: str):
        return (make_op(seed, index, workdir) for index in itertools.count())
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_ops, 1),
        Workload("clustered", clustered_ops,
                 2 * len(CLUSTER_SAME_FACTOR_R) * len(CLUSTER_EPS)),
        Workload("real-highdeg", _indexed(real_highdeg_op),
                 len(REAL_DEGREES) * len(REAL_PRESETS)),
        Workload("complex-exact", _indexed(complex_exact_op), len(COMPLEX_SLOTS)),
    )
}
