"""Divided differences in three mutually checking formulations.

All three routes compute the same functional:

* recursive: the inductive definition, a Newton-style table;
* explicit: the closed-form linear combination with weights
  prod_{k!=h} 1/(v_h - v_k);
* monomial: for f(z) = z^p, the complete homogeneous symmetric polynomial
  h_{p-n+1}(v_1..v_n), which is exactly zero when n >= p + 2.

Nodes must be pairwise distinct. Balls whose disks touch are rejected:
regularizing near-duplicates would silently change the functional.

This module is public API and the tests' oracle: the pipeline builds its
reduced rows W_1 on the rung grid of `balls.RungTable.w1`, which runs the
monomial route's recurrence on Gaussian integers.
"""
from __future__ import annotations

from dataclasses import dataclass

from .balls import CBall
from .errors import ValidationError


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
