"""Algebraic quantities on the right-hand side of the bounds.

Each quantity is available by two independent routes:

* Mahler measure: the root-product definition (authoritative) and a
  trapezoidal quadrature of log|P| on the unit circle (cross-check only,
  unusable when a root sits near the circle).
* |sDisc_{d-r}|: the root-product formula (squared pairwise distances times
  the multiplicity product) and the exact principal subresultant coefficient
  of (P, P'), read off the subresultant chain that `rootsep.poly` builds over
  the Gaussian integers. Only the absolute value is consumed downstream, so
  the subresultant route is normalized by absolute value against the root
  formula.

The discriminant and every principal subresultant coefficient come from that
same chain; `compute_invariants` takes it from the root set's square-free
decomposition: Yun's first chain, or, when the F_q test proved P
square-free, the chain built once, on the first read (`poly.Decomposition`).
Vanishing decisions (the index d - r itself) are made exactly: the chain and
the square-free decomposition must agree. Every input is an exact
polynomial, a decimal literal having been parsed as its exact rational.

The root-product routes read the root set's rung table (`RootSet.table`,
see `balls`), as the bounds do: |sDisc_{d-r}| is (|lc|^{r-1} (prod
m_j)^{1/2} |det W|)^2, and M is |lc| prod max(1, |v_j|)^{m_j}.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import mpmath
from mpmath import mpc, mpf

from .balls import RBall, bracket_ball, bracket_mul, working_precision
from .errors import JensenUnavailableError, RootsepError, ValidationError
from .gaussian import GaussianRational
from .poly import (
    ExactPoly,
    _derivative_coefficients,
    _principal_coefficients,
    eval_poly,
    square_free_decomposition,
)
from .roots import RootSet, find_roots

# ---------------------------------------------------------------------------
# exact subresultant routes (all read one subresultant chain)
# ---------------------------------------------------------------------------


def principal_subresultant(a: ExactPoly, b: ExactPoly, j: int) -> GaussianRational:
    """j-th principal subresultant coefficient of (a, b), deg a > deg b.

    By definition the determinant of the classical coefficient matrix with
    rows X^k*a and X^k*b over the column exponents deg(a)+deg(b)-j-1 .. j;
    index 0 gives the resultant.
    """
    p, q = a.degree, b.degree
    if not p > q >= 0:
        raise ValidationError("principal_subresultant needs deg a > deg b >= 0")
    if not 0 <= j <= q:
        raise ValidationError(f"subresultant index {j} out of range 0..{q}")
    return _principal_coefficients(a, b)[j]


def _first_nonzero(psc: list[GaussianRational], d: int, r: int) -> tuple[int, GaussianRational]:
    """(k, psc_k) for the smallest k with psc_k != 0. That index must be d - r,
    r from the square-free decomposition; a mismatch would mean broken exact
    arithmetic."""
    k = next(j for j, v in enumerate(psc) if not v.is_zero)
    if k != d - r:  # pragma: no cover
        raise RootsepError(f"subresultant gap {k} disagrees with decomposition d-r={d - r}")
    return k, psc[k]


def _abs_ball(w: GaussianRational) -> RBall:
    """|w| as a ball: exact when w is real, else a rounded square root."""
    if w.is_real:
        return RBall.exact(abs(w.re))
    return RBall.exact(w.norm()).sqrt()


def discriminant(p: ExactPoly) -> GaussianRational:
    """Classical discriminant, exact: (-1)^(d(d-1)/2) Res(P, P') / lc(P)."""
    if p.is_zero or p.degree < 2:
        raise ValidationError("discriminant needs degree >= 2")
    res = _principal_coefficients(p, p.derivative())[0]
    d = p.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return res / p.leading * sign


def subdiscriminant(p: ExactPoly) -> tuple[int, GaussianRational]:
    """(d - r, exact value of the first nonvanishing subdiscriminant).

    The index is cross-checked against the square-free decomposition, whose
    chain (`poly.Decomposition.heads`) gives psc(P, P').
    """
    if p.is_zero or p.degree < 1:
        raise ValidationError("subdiscriminant needs degree >= 1")
    dec = square_free_decomposition(p)
    r = sum(f.degree for f, _ in dec)
    k, sres = _first_nonzero(_derivative_coefficients(p, dec.heads), p.degree, r)
    return k, sres / p.leading


# ---------------------------------------------------------------------------
# root-product routes
# ---------------------------------------------------------------------------


def mahler_measure(roots: RootSet) -> RBall:
    """|lc| * prod max(1, |v_j|)^{m_j}, with the powers of max(1, |v_j|)
    the rung table's brackets (`RungTable.max1_power`), multiplied as
    brackets; only their product becomes a ball."""
    with working_precision(roots.precision_bits):
        t = roots.table
        acc = t.max1_power(0, roots.entries[0].multiplicity)
        for j, e in enumerate(roots.entries[1:], 1):
            acc = bracket_mul(acc, t.max1_power(j, e.multiplicity))
        return roots.leading_coeff.abs() * bracket_ball(acc)


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
        lc_part = roots.leading_coeff.abs().powi(r - 1)
        root_part = lc_part * RBall.exact(prod(roots.multiplicities())).sqrt() * roots.table.det_w.abs()
        return root_part * root_part


def sdisc_abs_from_subresultants(p: ExactPoly, precision: int = 128) -> RBall:
    """|sDisc_{d-r}| by the exact subresultant route, as a near-exact ball.

    The value itself is an exact Gaussian rational (see `subdiscriminant`);
    its absolute value is returned as a ball because it is irrational when
    the subdiscriminant is not real. With r = 1 the conventional value is 1,
    matching the root-product route.
    """
    with working_precision(precision):
        k, w = subdiscriminant(p)
        return RBall.one() if p.degree - k == 1 else _abs_ball(w)


def mahler_measure_jensen(
    p, n_nodes: int = 512, roots: RootSet | None = None, precision: int = 128
) -> tuple[mpf, mpf]:
    """Quadrature cross-check of the Mahler measure.

    exp of the trapezoidal mean of log|P| on the unit circle, evaluated with
    n_nodes and 2*n_nodes points; returns (estimate, convergence gap). The
    estimate converges geometrically at a rate set by the distance of the
    roots to the circle, so a root within 1e-6 of the circle makes the
    oracle unusable and raises; the product formula stays authoritative.
    """
    if n_nodes < 4:
        raise ValidationError("quadrature needs at least 4 nodes")
    with working_precision(precision):
        if roots is None:
            roots = find_roots(p, precision)
        for idx, e in enumerate(roots.entries):
            dist_to_circle = abs(e.value.abs().mid - 1)
            if dist_to_circle <= mpf("1e-6"):
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
