"""Command-line front end.

Subcommands:

* verify      -- run one bound variant on a polynomial and a graph
* sweep       -- seeded randomized soundness campaign
* certificate -- dump the reduction certificate for a polynomial and graph
* invariants  -- print Mahler measure, |Disc|, |sDisc_{d-r}|, r and d

All outputs are JSON (stdout or --out, written atomically). Exit codes:
0 = verdict holds / success, 2 = inconclusive at the precision ceiling,
1 = input error. Each subcommand returns its payload and exit code; `main`
writes it, or the error report of an input error. A malformed command line
is an input error too: its report goes to stdout, as no --out was read.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

from .bounds import VARIANTS, reduce_vandermonde, verify
from .errors import ParseError, RootsepError, ValidationError
from .graph import PRESET_NAMES, orient, parse_graph_json, preset_edges
from .invariants import compute_invariants
from .parsing import parse_polynomial, render_exact_poly
from .roots import find_roots
from .sweep import GRAPH_KINDS, SweepParams, _check_precision, run_sweep

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _json_scalar(value) -> str:
    """`json.dumps(value)` for a scalar: a str, an int or a finite float
    written directly, as the C encoder writes it, and any other value (NaN,
    an infinity, a bool, None, a subclass) by `json.dumps`."""
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
    elif kind is str:
        return encode_basestring_ascii(value)
    elif kind is int:
        return int.__repr__(value)
    return json.dumps(value)


_CONTAINERS = (dict, list, tuple)


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)`, assembled here around the text of each
    scalar and key (`_json_scalar`). The pure-Python encoder that `indent`
    selects leaves a reference cycle of closures behind on every call, which
    only a full collection frees, so a process writing many reports grows."""
    if not value or not isinstance(value, _CONTAINERS):
        return _json_scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        # json writes a non-string key as the string of its JSON text
        items = [f"{encode_basestring_ascii(k if isinstance(k, str) else _json_scalar(k))}: "
                 f"{_json_text(v, inner) if isinstance(v, _CONTAINERS) else _json_scalar(v)}"
                 for k, v in value.items()]
        brackets = "{}"
    else:
        items = [_json_text(v, inner) if isinstance(v, _CONTAINERS) else _json_scalar(v)
                 for v in value]
        brackets = "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _write_report(data: dict, out: str | None) -> None:
    text = _json_text(data)
    if out is None:
        print(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _error_report(exc: Exception) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError) and exc.position is not None:
        payload["position"] = exc.position
    return {"error": payload}


def _json_list(text: str, option: str) -> list:
    value = json.loads(text)
    if not isinstance(value, list):
        raise ValidationError(f"{option} must be a JSON list")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a `ValidationError` instead of printing the
    usage text and exiting with 2, which here means inconclusive."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _resolve_graph(args, roots):
    if args.preset is not None:
        return orient(preset_edges(args.preset, roots), roots)
    if args.graph is not None:
        return parse_graph_json(args.graph, roots)
    raise ValidationError("provide --graph JSON or --preset NAME")


def _cmd_verify(args) -> tuple[dict, int]:
    precision = _check_precision(args.precision)
    ceiling = _check_precision(args.ceiling)
    p = parse_polynomial(args.poly)
    roots = find_roots(p, precision)
    subset = hints = None
    if args.variant == "sep_product":
        subset = (
            _json_list(args.subset, "--subset") if args.subset else list(range(roots.r))
        )
    if args.variant == "remark_pairs":
        if not args.hints:
            raise ValidationError(
                'remark_pairs requires --hints JSON [[gamma, delta, Delta], ...]'
            )
        hints = _json_list(args.hints, "--hints")
        if not all(isinstance(h, list) and len(h) == 3 for h in hints):
            raise ValidationError("--hints entries must be [gamma, delta, Delta]")
        hints = [tuple(h) for h in hints]
    edges = None if args.variant == "sep_product" else _resolve_graph(args, roots).edges
    report = verify(p, edges, args.variant, precision=precision, ceiling=ceiling,
                    hints=hints, subset=subset, roots=roots)
    return report.to_json(poly_repr=args.poly), EXIT_OK if report.holds else EXIT_INCONCLUSIVE


def _cmd_sweep(args) -> tuple[dict, int]:
    params = SweepParams(
        count=args.count,
        max_degree=args.max_degree,
        max_multiplicity=args.max_multiplicity,
        graph_kinds=tuple(args.graphs.split(",")) if args.graphs else GRAPH_KINDS,
        precision_bits=args.precision,
        ceiling_bits=args.ceiling,
    )
    summary = run_sweep(args.seed, params, jobs=args.jobs)
    if not args.full:
        summary = {k: v for k, v in summary.items() if k != "instances"}
    failed = summary["violations"] or summary["unresolved"]
    return summary, EXIT_INCONCLUSIVE if failed else EXIT_OK


def _cmd_certificate(args) -> tuple[dict, int]:
    precision = _check_precision(args.precision)
    p = parse_polynomial(args.poly)
    roots = find_roots(p, precision)
    graph = _resolve_graph(args, roots)
    cert = reduce_vandermonde(roots, graph)
    return {**cert.to_json(), "roots": roots.to_json(), "graph": graph.to_json(),
            "precision_bits": precision}, EXIT_OK if cert.identity.holds else EXIT_INCONCLUSIVE


def _cmd_invariants(args) -> tuple[dict, int]:
    precision = _check_precision(args.precision)
    p = parse_polynomial(args.poly)
    roots = find_roots(p, precision)
    payload = compute_invariants(p, precision, roots=roots).to_json()
    payload["r"] = roots.r
    payload["d"] = roots.total_degree
    payload["roots"] = roots.to_json()
    payload["precision_bits"] = precision
    payload["polynomial"] = render_exact_poly(p)
    return payload, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged, and each call returns a fresh namespace."""
    ap = _ArgumentParser(
        prog="rootsep",
        description="Certified lower bounds for products of root distances over graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, graph: bool = True):
        sp.add_argument("--poly", required=True, help="polynomial text or JSON")
        if graph:
            one = sp.add_mutually_exclusive_group()
            one.add_argument("--graph", help='graph JSON {"edges": [[i, j], ...]}')
            one.add_argument("--preset", choices=PRESET_NAMES, help="named graph preset")
        sp.add_argument("--precision", type=int, default=128)
        sp.add_argument("--out", help="output path (atomic write); default stdout")

    v = sub.add_parser("verify", help="verify one bound variant")
    add_common(v)
    v.add_argument("--variant", choices=VARIANTS, default="main")
    v.add_argument("--ceiling", type=int, default=1024)
    v.add_argument("--hints", help="JSON [[gamma, delta, Delta], ...] for remark_pairs")
    v.add_argument("--subset", help="JSON [indices] for sep_product (default: all roots)")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("sweep", help="randomized soundness campaign")
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--max-degree", type=int, default=12)
    s.add_argument("--max-multiplicity", type=int, default=4)
    s.add_argument("--graphs", help="comma list from: " + ",".join(GRAPH_KINDS))
    s.add_argument("--precision", type=int, default=128)
    s.add_argument("--ceiling", type=int, default=512)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--full", action="store_true", help="include per-instance records")
    s.add_argument("--out", help="output path (atomic write); default stdout")
    s.set_defaults(func=_cmd_sweep)

    c = sub.add_parser("certificate", help="dump the reduction certificate")
    add_common(c)
    c.set_defaults(func=_cmd_certificate)

    inv = sub.add_parser("invariants", help="print M, |Disc|, |sDisc_{d-r}|, r, d")
    add_common(inv, graph=False)
    inv.set_defaults(func=_cmd_invariants)
    return ap


def main(argv=None) -> int:
    out = None
    try:
        args = build_parser().parse_args(argv)
        out = args.out
        payload, code = args.func(args)
    except (RootsepError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        payload, code = _error_report(exc), EXIT_INPUT_ERROR
    _write_report(payload, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
