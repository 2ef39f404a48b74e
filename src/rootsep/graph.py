"""Graphs on root indices with the canonical orientation.

Vertices are indices into a canonically ordered root set (so index order is
modulus order, with ties broken deterministically). Orienting every edge from
the lower to the higher index makes the orientation acyclic and compatible
with the modulus ordering by construction; the only admissibility condition
that can still fail for the classical bound is the in-degree cap.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ValidationError

PRESET_NAMES = ("path", "star_max", "complete", "nearest_neighbor")


def _vertex_count(roots_or_r) -> int:
    if isinstance(roots_or_r, int):
        return roots_or_r
    return roots_or_r.r


@dataclass(frozen=True)
class RootGraph:
    """Undirected graph on {0..r-1} plus the derived canonical orientation."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]           # normalized (min, max), sorted
    oriented: tuple[tuple[int, int], ...]        # (alpha, beta) per edge, alpha < beta
    in_degrees: tuple[int, ...]
    total_degrees: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edges_into(self, j: int) -> list[tuple[int, int]]:
        """Oriented edges finishing at vertex j, in listing order."""
        return [e for e in self.oriented if e[1] == j]

    def to_json(self) -> dict:
        return {"edges": [list(e) for e in self.edges]}


def _is_index(x) -> bool:
    # JSON true/false parse to bool, a subclass of int, but index nothing
    return isinstance(x, int) and not isinstance(x, bool)


def orient(edges, roots_or_r) -> RootGraph:
    """Validate an undirected edge list and orient it by canonical index order.

    Conditions "|v_alpha| <= |v_beta|" and acyclicity hold by construction;
    loops and duplicate edges are rejected.
    """
    r = _vertex_count(roots_or_r)
    normalized: list[tuple[int, int]] = []
    seen = set()
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2:
            raise ValidationError(f"edge {pair!r} is not a pair")
        i, j = pair
        if not (_is_index(i) and _is_index(j)):
            raise ValidationError(f"edge {pair!r} has non-integer endpoints")
        if i == j:
            raise ValidationError(f"edge ({i}, {j}) is a loop")
        if not (0 <= i < r and 0 <= j < r):
            raise ValidationError(
                f"edge ({i}, {j}) out of range for {r} vertices"
            )
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValidationError(f"duplicate edge ({i}, {j})")
        seen.add(key)
        normalized.append(key)
    normalized.sort()
    oriented = tuple(normalized)
    in_deg = [0] * r
    tot_deg = [0] * r
    for a, b in oriented:
        in_deg[b] += 1
        tot_deg[a] += 1
        tot_deg[b] += 1
    return RootGraph(r, tuple(normalized), oriented, tuple(in_deg), tuple(tot_deg))


def check_classical_admissible(g: RootGraph) -> tuple[bool, bool, bool]:
    """(edge moduli ordered, acyclic, in-degree <= 1).

    The first two are true for any oriented RootGraph; they are re-derived
    here rather than assumed so the check stands on its own.
    """
    cond1 = all(a < b for a, b in g.oriented)
    cond2 = _is_acyclic(g)
    cond3 = all(d <= 1 for d in g.in_degrees)
    return cond1, cond2, cond3


def _is_acyclic(g: RootGraph) -> bool:
    indeg = list(g.in_degrees)
    out = [[] for _ in range(g.vertex_count)]
    for a, b in g.oriented:
        out[a].append(b)
    stack = [v for v in range(g.vertex_count) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == g.vertex_count


def min_total_degree(g: RootGraph) -> int:
    """Minimum over vertices of (in-degree + out-degree); 0 with isolated vertices."""
    return min(g.total_degrees) if g.vertex_count else 0


def preset_edges(name: str, roots) -> list[tuple[int, int]]:
    """Named edge families over a canonical root set."""
    r = roots.r
    if name == "path":
        return [(j, j + 1) for j in range(r - 1)]
    if name == "star_max":
        return [(j, r - 1) for j in range(r - 1)]
    if name == "complete":
        return [(i, j) for j in range(r) for i in range(j)]
    if name == "nearest_neighbor":
        seen = set()
        out = []
        for j in range(r):
            if r < 2:
                break
            partner = roots.partner(j)
            key = (min(j, partner), max(j, partner))
            if key not in seen:
                seen.add(key)
                out.append(key)
        return sorted(out)
    raise ValidationError(
        f"unknown graph preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
    )


def parse_graph_json(text: str, roots_or_r) -> RootGraph:
    """Parse {"edges": [[i, j], ...]} with indices in canonical root order."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"graph JSON is malformed: {exc}") from exc
    if not isinstance(data, dict) or "edges" not in data:
        raise ValidationError('graph JSON must be an object with an "edges" key')
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValidationError('"edges" must be a list of [i, j] pairs')
    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise ValidationError(f"edge entry {e!r} is not a pair")
        pairs.append((e[0], e[1]))
    return orient(pairs, roots_or_r)
