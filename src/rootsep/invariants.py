"""Algebraic quantities on the right-hand side of the bounds.

`compute_invariants` gives M(P), |Disc| and |sDisc_{d-r}| with the index
d - r. The exact factors are the principal subresultant coefficients of
(P, P'), read off the subresultant chain that the root set's square-free
decomposition holds (`RootSet.chain_heads`): Yun's first chain, or, when the
F_q test proved P square-free, the chain built once, on the first read
(`poly.Decomposition`). The index d - r is decided exactly: the chain and
the square-free decomposition must agree. Only absolute values are consumed
downstream, so |sDisc_{d-r}| is returned as a ball, irrational when the
subdiscriminant is not real. Every input is an exact polynomial, a decimal
literal having been parsed as its exact rational.

The root-product routes read the root set's rung table (`RootSet.table`,
see `balls`), as the bounds do: |sDisc_{d-r}| is (|lc|^{r-1} (prod
m_j)^{1/2} |det W|)^2, and M is |lc| prod max(1, |v_j|)^{m_j}.
`compute_invariants` checks on every call that the two |sDisc_{d-r}|
routes agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .balls import RBall, ball_product, working_precision
from .errors import RootsepError
from .gaussian import GaussianRational
from .poly import _derivative_coefficients
from .roots import RootSet, find_roots

# ---------------------------------------------------------------------------
# the exact route: the chain of (P, P')
# ---------------------------------------------------------------------------


def _first_nonzero(psc: list[GaussianRational], d: int, r: int) -> tuple[int, GaussianRational]:
    """(k, psc_k) for the smallest k with psc_k != 0. That index must be d - r,
    r from the square-free decomposition; a mismatch would mean broken exact
    arithmetic."""
    k = next(j for j, v in enumerate(psc) if not v.is_zero)
    if k != d - r:  # pragma: no cover
        raise RootsepError(f"subresultant gap {k} disagrees with decomposition d-r={d - r}")
    return k, psc[k]


def _abs_ball(w: GaussianRational) -> RBall:
    """|w| as a ball: |re| when w is real, else the square root of the exact
    norm, its ends rounded outward."""
    if w.is_real:
        return RBall.exact(abs(w.re))
    return RBall.exact(w.norm()).sqrt()


# ---------------------------------------------------------------------------
# root-product routes
# ---------------------------------------------------------------------------


def mahler_measure(roots: RootSet) -> RBall:
    """|lc| * prod max(1, |v_j|)^{m_j}, in interval arithmetic on the rung
    table's max(1, |v_j|) (`RungTable.max1`)."""
    with working_precision(roots.precision_bits):
        t = roots.table
        return _abs_ball(roots.leading_coeff) * ball_product(
            [t.max1[j].powi(e.multiplicity) for j, e in enumerate(roots.entries)]
        )


def sdisc_abs_from_roots(roots: RootSet) -> RBall:
    """(|lc|^{r-1} (prod m_j)^{1/2} prod_{i<j} |v_i - v_j|)^2, with the
    product of the differences, det W up to sign, read off the rung table of
    `roots`.

    With a single distinct root every factor is treated as an empty product
    and the result is exactly 1.
    """
    r = roots.r
    if r == 1:
        return RBall.one()
    with working_precision(roots.precision_bits):
        lc_part = _abs_ball(roots.leading_coeff).powi(r - 1)
        root_part = lc_part * RBall.exact(prod(roots.multiplicities())).sqrt() * roots.table.det_w.abs()
        return root_part * root_part


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantBundle:
    """Mahler measure, |Disc|, |sDisc_{d-r}| and the index d - r."""

    mahler: RBall
    disc_abs: RBall | None
    sdisc_abs: RBall
    sdisc_index: int

    def to_json(self) -> dict:
        return {
            "mahler": self.mahler.to_json(),
            "disc_abs": self.disc_abs.to_json() if self.disc_abs is not None else None,
            "sdisc_abs": self.sdisc_abs.to_json(),
            "sdisc_index": self.sdisc_index,
        }


def compute_invariants(p, precision: int = 128, roots: RootSet | None = None) -> InvariantBundle:
    """Invariant bundle for an exact polynomial (a decimal literal is read as
    its exact rational).

    The principal subresultant coefficients of (P, P') give the index d - r
    (cross-checked against the root set's r, which comes from the exact
    square-free decomposition), |sDisc_{d-r}| and |Disc|. They are read off
    the chain of (monic P, P') that the root set's decomposition holds
    (`RootSet.chain_heads`), rescaled by powers of lc: Yun's first chain,
    or, for a P the F_q test proved square-free, that chain built on this
    first read and kept for the next. The two sdisc routes are
    both evaluated (their agreement is a standing self-check), and the
    root-product route and M read the root set's rung table.
    """
    with working_precision(precision):
        if roots is None:
            roots = find_roots(p, precision)
        mahler = mahler_measure(roots)
        sdisc_roots = sdisc_abs_from_roots(roots)
        d = p.degree
        psc = _derivative_coefficients(p, roots.chain_heads)
        index, sres = _first_nonzero(psc, d, roots.r)
        sdisc = RBall.one() if roots.r == 1 else _abs_ball(sres / p.leading)
        if not sdisc.overlaps(sdisc_roots):  # pragma: no cover
            raise RootsepError(
                "subresultant and root-product subdiscriminant routes disagree"
            )
        disc = _abs_ball(psc[0] / p.leading) if d >= 2 else None
        return InvariantBundle(mahler, disc, sdisc, index)
