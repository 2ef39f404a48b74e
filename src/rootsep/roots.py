"""High-precision root finding and the canonical root set.

The input is an exact polynomial (a decimal literal was parsed as its exact
rational). It goes through square-free decomposition first, so every factor
has simple roots and the multiplicities are exact; each factor is then
solved by Aberth-Ehrlich simultaneous iteration on its Gaussian-integer
numerators, never on rounded coefficients (mpc values carry only points),
started from the Newton polygon of log2|c_k|: one circle per hull edge,
whose radius estimates the modulus of that edge's roots, and exact zeros
for a vanishing constant term. Each approximation z gets a rigorous
inclusion radius n * |f(z) / f'(z)| (the disk of that radius around z
contains at least one root of f); pairwise disjoint disks then certify a
bijection between disks and roots.

The sweeps run in double precision first, on Python `complex` values, and
fixed-point Gaussian integers only polish what they reach (MPSolve's
cheap-arithmetic-first design; Bini & Robol, JCAM 2014). A float iterate is
kept when double precision has isolated it: its inclusion disk, padded by a
bound on Horner's rounding error and doubled, meets no other. When it has
isolated every root of the factor, each root is polished by Newton's method
on its own, as MPSolve refines an isolated root, in O(n) per step instead
of an Aberth sweep's O(n^2); a root whose Newton corrections stop halving
sends the whole factor to the integer Aberth sweeps from the float iterates.
Iterates whose disks meet, transitively, form a cluster of m roots closer
than double precision resolves; the cluster restarts from its center, the
centroid sharpened by Newton's method on p^(m-1) evaluated exactly, at the
m smallest Newton-polygon starts of p shifted exactly to that center
(MPSolve's cluster analysis; Bini & Fiorentino, Numer. Algorithms 23, 2000),
so the integer sweeps separate it from starts at its own scale. When the
float phase cannot be trusted (a coefficient outside the float range, an
iterate that overflows or meets p' = 0, a center whose Newton step fails)
the integer sweeps start from the Newton polygon as if there were no float
phase. Both arithmetics share one set of stopping, polish and stall rules
(`_converge`), and the integer sweeps and the Newton polish share one Newton
quotient p / p' (`_newton_quotient`).

Every disk is then certified in exact arithmetic. Its midpoint is dyadic, so
integer Horner on the factor's Gaussian-integer numerators gives f(z) and
f'(z) exactly, and the radius n |f(z)| / |f'(z)| is rounded once, upward.
Root radii therefore do not depend on ball arithmetic or its rounding, and
a midpoint that is exactly a root gets radius 0.

A factor with real coefficients has real roots that Aberth leaves with an
imaginary part of rounding noise. Each of its disks that meets the real
axis is moved onto it, centred at Re z and certified again there. The
factor's disks are pairwise disjoint, and there are as many as roots, so
each holds exactly one root; an axis disk is its own mirror image, so the
conjugate of its root lies in it too and is also a root of the real factor,
hence the same root, which is real. Real roots thus come out with real
midpoints, exact with radius 0 when dyadic, and the bound on them runs in
real arithmetic.

The disks of distinct factors must be pairwise disjoint too; one ladder
doubles the working precision until every factor certifies and all disks
are disjoint (or raises), and sorts the roots by (modulus, re, im) rounded
to the stated precision.

A certified disk encloses its root at every precision, so `refine` carries
a root set to another precision instead of solving again: it keeps the set
when its disks are already as tight as a fresh solve there would make them,
and otherwise starts Aberth from the set's midpoints (as MPSolve keeps its
approximations when it raises the precision; Bini & Robol, JCAM 2014).
The set carries its square-free decomposition, so that is computed once per
polynomial.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_float, from_int, from_man_exp, mpf_lt, mpf_shift

from .balls import CBall, GUARD_BITS, RBall, RungTable, _on_one_grid, _scaled_floor, working_precision
from .errors import IndistinguishableRootsError, PreconditionError, ValidationError
from .gaussian import GaussianRational
from .poly import Decomposition, ExactPoly, _horner, square_free_decomposition

#: doubled-precision certification retries before giving up
MAX_ESCALATIONS = 4
#: Aberth iterates at a precision p until its corrections fall below
#: 2^-(p + TOL_EXTRA_BITS)
TOL_EXTRA_BITS = 12
_MAX_ABERTH_ITERS = 600
#: the global phase of `_converge` gives up after this many sweeps in a row
#: that do not halve its best correction; the longest such run that then
#: converged, over the acceptance sweep and the benchmark workloads, was 7
_HOVER_SWEEPS = 32
#: an iterate where p' = 0 moves by this much, relative and absolute
_NUDGE = 2.0 ** -12
#: the float phase hands over to the integer sweeps at this relative correction
_FLOAT_TOL = 2.0 ** -45
#: half the bits of a double: stands in for a zero difference of iterates
_FLOAT_TINY = 2.0 ** -26
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class RootEntry:
    value: CBall
    multiplicity: int


@dataclass(frozen=True)
class RootSet:
    """Distinct roots with multiplicities in canonical order.

    Canonical order is ascending by (modulus, real part, imaginary part) of
    the certified midpoints, each rounded to `precision_bits`, a part under
    2^(8 - precision_bits) of the modulus counting as 0; the error disks
    are pairwise disjoint. The polynomial is exact (a decimal literal is
    read as its exact rational), and the multiplicities come from its
    square-free decomposition, which the set carries in `factors` so that
    `refine` does not compute it again. With it comes the chain of (monic
    P, P') that `chain_heads` reads: Yun's first chain, or, when the F_q
    test proved P square-free, a chain built lazily on the first read, so
    `verify` with `main` never builds it. Root distances, and every
    root-dependent factor of a bound, read the set's rung table (`table`);
    `leading_coeff` is P's exact leading coefficient.
    """

    entries: tuple[RootEntry, ...]
    leading_coeff: GaussianRational
    total_degree: int
    precision_bits: int
    factors: Decomposition

    @property
    def chain_heads(self) -> tuple:
        """The heads of the chain of (monic P, its derivative) (see
        `poly.Decomposition`), which `compute_invariants` and
        `bound_classical` read instead of building a chain. When the F_q
        test proved P square-free, the chain is built here, on the first
        read for the decomposition; `refine` carries the decomposition, so a
        carried set reads the same heads, and `verify` with `main` never
        builds them."""
        return self.factors.heads

    @property
    def r(self) -> int:
        return len(self.entries)

    def values(self) -> list[CBall]:
        return [e.value for e in self.entries]

    def multiplicities(self) -> list[int]:
        return [e.multiplicity for e in self.entries]

    @cached_property
    def table(self) -> RungTable:
        """The set's rung table (see `balls`), built on first use at
        `precision_bits`."""
        with working_precision(self.precision_bits):
            return RungTable.build(self.values())

    def distance(self, i: int, j: int) -> RBall:
        """|v_i - v_j| as a ball, read off the rung table."""
        return self.table.distance(i, j)

    def partner(self, j: int) -> int:
        """Index of the closest different root.

        The partner is chosen by the squared distance of the dyadic
        midpoints, exact on the rung table's grid and rounded once to
        `precision_bits`, so that midpoint noise below the certified
        precision cannot break a tie between equidistant roots; ties go to
        the smallest canonical index."""
        if self.r < 2:
            raise PreconditionError("no different root: the root set has a single entry")
        diff = self.table.diff
        best_i, best = -1, None
        for i in range(self.r):
            if i != j:
                x, y, _, _ = diff[min(i, j), max(i, j)]
                square = from_int(x * x + y * y, self.precision_bits, "n")
                if best is None or mpf_lt(square, best):
                    best, best_i = square, i
        return best_i

    def to_json(self) -> list[dict]:
        return [
            {**e.value.to_json(), "multiplicity": e.multiplicity}
            for e in self.entries
        ]


def sep(roots: RootSet, j: int) -> RBall:
    """Distance from root j to its closest different root."""
    if not 0 <= j < roots.r:
        raise ValidationError(f"root index {j} out of range 0..{roots.r - 1}")
    return roots.distance(roots.partner(j), j)


def _canonical_key(z: mpc):
    """(modulus, re, im) of z rounded to the working precision, so that
    iteration noise below it cannot reorder roots of equal modulus. A real
    or imaginary part under 2^(8 - prec) of the modulus is such noise around
    0 and counts as 0, so -i sorts before i by its imaginary part rather
    than by the sign of the noise in its real part."""
    m = abs(z)
    floor = mpmath.ldexp(m, 8 - mp.prec)
    return (m, *(+x if abs(x) > floor else mpf(0) for x in (z.real, z.imag)))


def _meets(disks):
    """The test whether two (center, radius) disks are not certifiably
    disjoint at the ambient precision: `meets(i, j)` for disks i and j.

    The test is |a - b| (1 - 2^(8 - prec)) <= r_a + r_b, decided exactly on
    squares: centers and radii are dyadic (mpmath values or floats), so
    they become ints on one grid (`_on_one_grid`), and no square root is
    taken."""
    flat, _ = _on_one_grid([x for d in disks for x in (d[0].real, d[0].imag, d[1])])
    ints = list(zip(flat[::3], flat[1::3], flat[2::3]))
    q = mp.prec - 8
    cushion = ((1 << q) - 1) ** 2

    def meets(i: int, j: int) -> bool:
        (x, y, r), (u, v, s) = ints[i], ints[j]
        return ((x - u) ** 2 + (y - v) ** 2) * cushion <= (r + s) ** 2 << 2 * q

    return meets


def _first_overlap(disks) -> tuple[int, int] | None:
    """First pair (j, i), j < i, of (center, radius) disks that `_meets`,
    or None."""
    meets = _meets(disks)
    for i in range(len(disks)):
        for j in range(i):
            if meets(j, i):
                return j, i
    return None


def _overlap_groups(disks) -> list[list[int]]:
    """Indices of the disks that meet another, grouped by the transitive
    closure of `_meets`; each group in ascending order."""
    meets = _meets(disks)
    groups: list[list[int]] = []
    for i in range(len(disks)):
        touching = [g for g in groups if any(meets(j, i) for j in g)]
        groups = [g for g in groups if g not in touching]
        groups.append(sorted(j for g in touching for j in g) + [i])
    return [g for g in groups if len(g) > 1]


def _newton_starts(nums) -> list[mpc]:
    """Aberth starting points from the Newton polygon of log2|c_k|, c_k the
    Gaussian-integer `nums` (lowest degree first).

    Each trailing zero coefficient is an exact root at 0 and starts there.
    Each edge (k1, k2) of the upper convex hull of the points (k, log2|c_k|)
    stands for k2 - k1 roots of modulus near |c_k1 / c_k2|^(1 / (k2 - k1))
    (Bini 1996; Bini & Robol, MPSolve 3, 2014), so it gets that many points
    on a circle of 0.7 times that radius, turned by 2 pi k1 / n. Inside the
    annulus, points reach its roots across it: a circle through a real
    cluster let two points close in along the circle and stall on the
    cluster's perpendicular bisector.

    log2|c_k| is log2(re^2 + im^2) / 2 of the exact ints, and each start is
    a double times an exact power of two, so a polynomial outside the float
    range still gets starts at the right scale.
    """
    n = len(nums) - 1
    hull: list[tuple[int, float]] = []
    for k, (re, im) in enumerate(nums):
        if not (re or im):
            continue
        pt = (k, math.log2(re * re + im * im) / 2)
        # drop the last vertex unless it lies strictly above the chord
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(pt)
    zs = [mpc(0)] * hull[0][0]
    for (k1, l1), (k2, l2) in zip(hull, hull[1:]):
        m = k2 - k1
        scale = (l1 - l2) / m + math.log2(0.7)
        e = math.floor(scale)
        r = 2.0 ** (scale - e)
        for i in range(m):
            z = cmath.rect(r, 2 * math.pi * ((i + 0.25) / m + k1 / n) + 0.5 / n)
            zs.append(mp.make_mpc((mpf_shift(from_float(z.real), e),
                                   mpf_shift(from_float(z.imag), e))))
    return zs


def _converge(coeffs, zs, tol, tiny):
    """Aberth-Ehrlich sweeps over the iterates `zs`, in place: in double
    precision when `coeffs` is a list of Python `complex` values, on
    Gaussian integers when it is a `_FixedPoint` polynomial.

    Runs until the corrections reach `tol` relative or stagnate near the
    rounding floor (ill-conditioned clusters stagnate well above any preset
    tolerance), then returns `zs`. In the global phase, while the largest
    correction is above 1e-6, corrections may hover before convergence sets
    in, but iterates around a cluster they cannot separate hover for good:
    the sweeps stop once `_HOVER_SWEEPS` of them in a row have not halved
    the best correction, and the caller's grouping or certification judges
    the iterates. `tiny` stands in for a zero difference between two
    iterates.
    """
    sweep = _fixed_sweep if isinstance(coeffs, _FixedPoint) else _float_sweep
    best = global_best = math.inf
    stalled = hover = 0
    polish = False
    for _ in range(_MAX_ABERTH_ITERS):
        worst = sweep(coeffs, zs, tiny)
        if polish:
            return zs
        if worst <= tol:
            # one more sweep: a converged iterate may still carry an error
            # far above the rounding floor, such as a tiny imaginary part of
            # a real root
            polish = True
            continue
        if worst > 1e-6:
            stalled = 0
            best = worst
            if worst < global_best / 2:
                global_best, hover = worst, 0
            else:
                hover += 1
                if hover >= _HOVER_SWEEPS:
                    return zs
        elif worst < best / 2:
            best = worst
            stalled = 0
        else:
            stalled += 1
            if stalled >= 12:
                return zs
    return zs


def _float_sweep(coeffs: list[complex], zs: list[complex], tiny: float) -> float:
    """One Aberth sweep in double precision; returns the largest relative
    correction, a nan counting as the worst and p' = 0 as infinite."""
    n = len(zs)
    worst = 0
    for k in range(n):
        z = zs[k]
        p, dp = _horner(coeffs, z)
        if p == 0:
            continue
        if dp == 0:
            zs[k] = z * (1 + _NUDGE) + _NUDGE
            worst = math.inf
            continue
        newton = p / dp
        s = 0
        for j in range(n):
            if j != k:
                diff = z - zs[j]
                if diff == 0:
                    diff = tiny
                s += 1 / diff
        denom = 1 - newton * s
        w = newton if denom == 0 else newton / denom
        zs[k] = z - w
        rel = abs(w) / (1 + abs(zs[k]))
        if not rel <= worst:  # a nan correction counts as the worst
            worst = rel
    return worst


@dataclass(frozen=True)
class _FixedPoint:
    """A polynomial for Aberth sweeps on fixed-point Gaussian integers.

    An iterate is a pair (x, y) of ints standing for (x + iy) / 2^w. `top`
    holds the factor's Gaussian-integer numerators, highest degree first,
    each multiplied by 2^w, so Horner's rule adds them to values at the same
    scale.
    """

    top: tuple[tuple[int, int], ...]
    w: int

    @staticmethod
    def of(nums, w: int) -> "_FixedPoint":
        """The numerators `nums` (lowest degree first) shifted to scale 2^w."""
        return _FixedPoint(tuple([(re << w, im << w) for re, im in reversed(nums)]), w)


def _fixed_horner(poly: _FixedPoint, x: int, y: int) -> tuple[int, int, int, int]:
    """2^w p(z) and 2^w p'(z) at z = (x + iy) / 2^w, each truncated to a
    Gaussian integer (real and imaginary parts)."""
    w = poly.w
    coeffs = iter(poly.top)
    pr, pi = next(coeffs)
    dr = di = 0
    for cr, ci in coeffs:
        dr, di = ((dr * x - di * y) >> w) + pr, ((dr * y + di * x) >> w) + pi
        pr, pi = ((pr * x - pi * y) >> w) + cr, ((pr * y + pi * x) >> w) + ci
    return pr, pi, dr, di


def _newton_quotient(poly: _FixedPoint, x: int, y: int) -> tuple[int, int] | None:
    """2^(w+1) p(z) / p'(z) at z = (x + iy) / 2^w, each part floored to an
    int; (0, 0) when p(z) = 0 and None when p'(z) = 0. The Newton correction
    of both the Aberth sweeps and the one-root polish, with one bit below
    the grid: the sweeps floor it to the grid (`>> 1` of the floor is the
    floor), the polish rounds it to nearest."""
    pr, pi, dr, di = _fixed_horner(poly, x, y)
    if not (pr or pi):
        return 0, 0
    q = dr * dr + di * di
    if q == 0:
        return None
    w = poly.w + 1
    return ((pr * dr + pi * di) << w) // q, ((pi * dr - pr * di) << w) // q


def _fixed_sweep(poly: _FixedPoint, zs: list[tuple[int, int]], tiny: int) -> mpf:
    """One Aberth sweep on fixed-point iterates (`_FixedPoint`); returns the
    largest relative correction |w| / (1 + |z - w|), p' = 0 counting as
    infinite. `tiny` is the stand-in for a zero difference, at scale 2^w."""
    w = poly.w
    one = 1 << w
    two_w = 2 * w
    worst_num, worst_den = 0, 1
    for k, (x, y) in enumerate(zs):
        newton = _newton_quotient(poly, x, y)
        if newton is None:
            zs[k] = (x + (x >> 12) + (one >> 12), y + (y >> 12))
            worst_num, worst_den = 1, 0
            continue
        nr, ni = newton[0] >> 1, newton[1] >> 1
        if not (nr or ni):
            continue
        # s = sum 1 / (z - z_j), at scale 2^w
        sr = si = 0
        for j, (u, v) in enumerate(zs):
            if j != k:
                ex, ey = x - u, y - v
                if not (ex or ey):
                    ex = tiny
                m = ex * ex + ey * ey
                sr += (ex << two_w) // m
                si -= (ey << two_w) // m
        # correction newton / (1 - newton s)
        er = one - ((nr * sr - ni * si) >> w)
        ei = -((nr * si + ni * sr) >> w)
        m = er * er + ei * ei
        if m:
            nr, ni = ((nr * er + ni * ei) << w) // m, ((ni * er - nr * ei) << w) // m
        x, y = x - nr, y - ni
        zs[k] = (x, y)
        num = math.isqrt(nr * nr + ni * ni)
        den = one + math.isqrt(x * x + y * y)
        if num * worst_den > worst_num * den:
            worst_num, worst_den = num, den
    return mpf(worst_num) / worst_den if worst_den else math.inf


def _newton_polish(poly: _FixedPoint, zs: list[tuple[int, int]], tol_bits: int) -> list[tuple[int, int]] | None:
    """The fixed-point iterates `zs` (`_FixedPoint`), each polished by
    Newton's method on its own, or None when one of them fails.

    Each correction is the Newton quotient rounded to the nearest grid
    point, where the sweeps floor it: a floored quotient just below a grid
    unit would step an iterate next to a root on the grid past it instead
    of onto it. An iterate stops at p(z) = 0 or after the step whose
    correction is at most 2^-tol_bits (1 + |z|). It fails where p' = 0,
    when a correction does not halve the one before, or when it has not
    stopped after log2(tol_bits) + 2 steps, as many as quadratic
    convergence needs from one correct bit. Halving corrections move an
    iterate by less than twice its first, |p / p'|, so it stays inside its
    doubled disk from the float phase, which holds one root and meets no
    other disk: distinct iterates reach distinct roots."""
    one = 1 << poly.w
    out = []
    for x, y in zs:
        last = None
        for _ in range(tol_bits.bit_length() + 2):
            newton = _newton_quotient(poly, x, y)
            if newton is None:
                return None
            nr, ni = (newton[0] + 1) >> 1, (newton[1] + 1) >> 1
            x, y = x - nr, y - ni
            size = nr * nr + ni * ni
            if math.isqrt(size) << tol_bits <= one + math.isqrt(x * x + y * y):
                break
            if last is not None and 4 * size > last:
                return None
            last = size
        else:
            return None
        out.append((x, y))
    return out


def _taylor_shift(nums, c: mpc) -> list[tuple[int, int]]:
    """Gaussian-integer coefficients of 2^(sn) p(c + y), lowest degree first,
    for p of degree n with numerators `nums` and a dyadic c = C / 2^s.

    q(u) = 2^(sn) p(u / 2^s) has integer coefficients; n rounds of
    synthetic division by (u - C) shift it to q(C + u) exactly, and
    u = 2^s y turns that into 2^(sn) p(c + y)."""
    (cr, ci), s = _on_one_grid(c._mpc_)
    n = len(nums) - 1
    q = [(re << s * (n - k), im << s * (n - k)) for k, (re, im) in enumerate(nums)]
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            (ur, ui), (vr, vi) = q[k + 1], q[k]
            q[k] = (vr + cr * ur - ci * ui, vi + cr * ui + ci * ur)
    return [(re << s * k, im << s * k) for k, (re, im) in enumerate(q)]


def _cluster_starts(nums, zs: list[complex]) -> list[mpc] | None:
    """Aberth starts for m >= 2 float iterates `zs` of a cluster that double
    precision did not separate, or None when the center's Newton iteration
    meets a zero derivative.

    The center starts at the iterates' centroid and is sharpened by Newton's
    method on p^(m-1), whose root near an m-cluster is the cluster's mean to
    second order in its radius (MPSolve's cluster analysis; Bini &
    Fiorentino, Numer. Algorithms 23, 2000), evaluated exactly
    (`_exact_horner`); Newton stops when its step is under 2^-prec relative
    or no longer halves (the rounding floor). p is then Taylor-shifted to
    the center exactly, and the m smallest-modulus points of the shifted
    Newton polygon, which estimates the roots' distances from the center,
    are the starts.
    """
    m = len(zs)
    derivative = nums
    for _ in range(m - 1):
        derivative = [(k * re, k * im) for k, (re, im) in enumerate(derivative)][1:]
    center = mpc(sum(zs) / m)
    tol = mpmath.ldexp(mpf(1), -mp.prec)
    last = mpmath.inf
    for _ in range(_MAX_ABERTH_ITERS):
        (ar, ai), (br, bi), s = _exact_horner(derivative, center)
        if not (br or bi):
            return None
        # f / f' = A / (B 2^s) for f = p^(m-1)
        step = mpc(ar, ai) / mpc(mpf((br, s)), mpf((bi, s)))
        center -= step
        size = abs(step)
        if size <= tol * (1 + abs(center)) or size > last / 2:
            break
        last = size
    ys = sorted(_newton_starts(_taylor_shift(nums, center)), key=abs)[:m]
    return [center + y for y in ys]


def _float_phase(factor: ExactPoly, starts: list[mpc]) -> tuple[list[mpc], bool]:
    """Aberth iterates from `starts` computed in double precision, with
    every cluster that double precision did not separate restarted around
    its center, and whether double precision isolated every root (no
    cluster restarted); or `starts` itself and False when the float phase
    cannot be trusted.

    The sweeps run on Python `complex` values (the coefficients correctly
    rounded) until every correction is under 2^-45 relative or they stall.
    Each iterate gets the disk n (|p(z)| + 4 n 2^-53 sum |c_k| |z|^k) /
    |p'(z)|, the inclusion radius padded by Horner's rounding error,
    doubled. When these disks are pairwise disjoint (a factor-2 margin),
    double precision has isolated every root and the iterates are kept.
    Otherwise the isolated iterates are kept, and the iterates whose disks
    meet, transitively, form groups. A pair of roots closer than double
    precision resolves gives p(z) = 0 at both iterates, and a real
    polynomial's iteration can then leave them as a conjugate pair on their
    bisector; the padding groups them. Each group
    restarts from its center (`_cluster_starts`), so the integer sweeps
    separate the cluster from starts at its own scale instead of
    converging to it linearly from afar. `starts` comes back unchanged when
    a nonzero coefficient underflows to 0 or overflows, an iterate leaves
    the float range, p' is 0 at an iterate, or a center's Newton iteration
    fails.
    """
    nums, den = factor.nums, factor.den
    zs = [complex(z) for z in starts]
    n = len(zs)
    try:
        cs = [complex(re / den, im / den) for re, im in nums]
        if any(f == 0 and (re or im) for f, (re, im) in zip(cs, nums)):
            return starts, False
        moduli = [abs(c) for c in cs]
        _converge(cs, zs, _FLOAT_TOL, _FLOAT_TINY)
        disks = []
        for z in zs:
            p, dp = _horner(cs, z)
            noise = 4 * n * _UNIT_ROUNDOFF * _horner(moduli, abs(z))[0]
            # doubled radii: disjoint with a factor-2 margin
            disks.append((z, 2 * n * (abs(p) + noise) / abs(dp)))
    except ArithmeticError:
        # a coefficient or an iterate overflows, or p' = 0 at an iterate
        return starts, False
    if not all(math.isfinite(rad) for _, rad in disks):
        return starts, False
    out = [mpc(z) for z in zs]
    groups = _overlap_groups(disks)
    for group in groups:
        restart = _cluster_starts(nums, [zs[k] for k in group])
        if restart is None:
            return starts, False
        for k, z in zip(group, restart):
            out[k] = z
    return out, not groups


def _aberth(factor: ExactPoly, tol_bits: int, warm: list[mpc] | None = None) -> list[mpc]:
    """Roots of a factor, polished on its Gaussian-integer numerators: by
    Newton's method one root at a time when double precision isolated every
    root, and otherwise by Aberth-Ehrlich sweeps over all of them.

    Without `warm` starts, the Newton-polygon starts first go through the
    double-precision phase (`_float_phase`). When it isolated every root,
    each iterate is polished on its own (`_newton_polish`), as MPSolve
    refines an isolated root by itself (Bini & Robol, JCAM 2014); when one
    of them fails, the whole factor goes to the Aberth sweeps from the float
    iterates. The sweeps also separate each cluster the float phase did not
    from starts around the cluster's center, and start from the Newton
    polygon itself when the float phase cannot be trusted. `warm` starts,
    midpoints carried from another precision, hold more than 53 bits, skip
    the float phase and go to the sweeps.

    Both polishes run on the numerators and on fixed-point iterates at one
    scale 2^w (`_FixedPoint`), w = prec + ceil(log2 max(1, max|z|))
    + ceil(log2 1 / min(1, min nonzero |z|)) over the starts: every iterate
    and every 1 / (z_k - z_j) then carries `prec` bits relative to its
    size, and both take the Newton quotient p / p' from `_newton_quotient`.
    They run to a relative correction of 2^-tol_bits, or the sweeps until
    they stagnate; the caller's certification step is the arbiter of success.
    The iterates come back rounded to mpc at the ambient precision, and a
    linear factor's root is -n_0 / n_1, rounded there. Deterministic for
    fixed inputs and precision.
    """
    nums = factor.nums
    if len(nums) == 2:
        return [-mpc(*nums[0]) / mpc(*nums[1])]
    starts, isolated = (([mpc(z) for z in warm], False) if warm is not None
                        else _float_phase(factor, _newton_starts(nums)))
    sizes = [mpmath.mag(z) for z in starts if z]
    w = mp.prec + max([0, *sizes]) + max([0, *(1 - e for e in sizes)])
    poly = _FixedPoint.of(nums, w)
    zs = [(_scaled_floor(z.real, w), _scaled_floor(z.imag, w)) for z in starts]
    polished = _newton_polish(poly, zs, tol_bits) if isolated else None
    if polished is None:
        _converge(poly, zs, mpmath.ldexp(mpf(1), -tol_bits), 1 << (w - mp.prec // 2))
        polished = zs
    return [mpc(mpf((x, -w)), mpf((y, -w))) for x, y in polished]


def _exact_horner(nums, z: mpc) -> tuple[tuple[int, int], tuple[int, int], int]:
    """(A, B, s), A = 2^(sn) f(z) and B = 2^(s(n-1)) f'(z) as Gaussian
    integers, for f of degree n with Gaussian-integer coefficients `nums`
    (lowest degree first) at the dyadic z = (x + iy) / 2^s."""
    (x, y), s = _on_one_grid(z._mpc_)
    n = len(nums) - 1
    ar, ai = nums[-1]
    br, bi = n * ar, n * ai
    for k in range(n - 1, -1, -1):
        cr, ci = nums[k]
        shift = s * (n - k)
        ar, ai = ar * x - ai * y + (cr << shift), ar * y + ai * x + (ci << shift)
        if k:
            br, bi = br * x - bi * y + (k * cr << shift), br * y + bi * x + (k * ci << shift)
    return (ar, ai), (br, bi), s


def _certified_radius(nums, z: mpc) -> mpf | None:
    """n |f(z)| / |f'(z)| rounded upward at the ambient precision, for f of
    degree n with Gaussian-integer coefficients `nums` (lowest degree first);
    None when f'(z) = 0. The disk of that radius around z holds a root of f.

    The dyadic midpoint z = (x + iy) / 2^s makes the evaluation exact
    (`_exact_horner` gives 2^(sn) f(z) and 2^(s(n-1)) f'(z)), and the
    quotient of their squared moduli is rounded once, upward, to an integer
    whose square root is taken upward by `math.isqrt`.
    """
    n = len(nums) - 1
    (ar, ai), (br, bi), s = _exact_horner(nums, z)
    # rad^2 = n^2 |A|^2 / (|B|^2 2^(2s)), A = 2^(sn) f(z), B = 2^(s(n-1)) f'(z)
    num, den = n * n * (ar * ar + ai * ai), br * br + bi * bi
    if den == 0:
        return None
    if num == 0:
        return mpf(0)
    # q = ceil(num 2^(2t) / den) carries 2 (prec + 2) bits or more
    t = (2 * mp.prec + 6 - num.bit_length() + den.bit_length() + 1) // 2
    q = -(-(num << 2 * t) // den) if t >= 0 else -(-num // (den << -2 * t))
    root = math.isqrt(q)
    if root * root < q:
        root += 1
    return mp.make_mpf(from_man_exp(root, -(t + s), mp.prec, "c"))


def _onto_axis(nums, z: mpc, rad: mpf, p_bits: int) -> tuple[mpc, mpf]:
    """The disk (z, rad) moved onto the real axis, centred at Re z and
    certified again there, when it meets the axis and the new radius meets
    the target; otherwise (z, rad) as it is."""
    if not z.imag or abs(z.imag) > rad:
        return z, rad
    x = mpc(z.real)
    r = _certified_radius(nums, x)
    if r is None or r > _radius_target(x, p_bits):
        return z, rad
    return x, r


def _solve_factor(factor: ExactPoly, p_bits: int, work_bits: int, warm=None) -> list[tuple[mpc, mpf]] | None:
    """Roots of one square-free factor with certified radii, or None.

    The n disks are pairwise disjoint with a factor-2 margin; each holds at
    least one root, so each holds exactly one. A real factor's disks that
    meet the real axis are moved onto it first (`_onto_axis`), as long as
    they stay disjoint: a disk centred on the axis is its own mirror image,
    so the conjugate of its one root is in it too, is a root of the real
    factor, and is therefore that root. The root is real; its disk has a
    real midpoint, and radius 0 when the root is dyadic, such as k/4.
    """
    with mp.workprec(work_bits):
        # the tolerance follows the working precision, so escalated retries
        # genuinely separate closer roots
        zs = _aberth(factor, max(p_bits + TOL_EXTRA_BITS, work_bits - 24), warm=warm)
        out = []
        for z in zs:
            rad = _certified_radius(factor.nums, z)
            if rad is None or rad > _radius_target(z, p_bits):
                return None
            out.append((z, rad))
        candidates = [out]
        if not any(im for _, im in factor.nums):
            candidates.insert(0, [_onto_axis(factor.nums, z, rad, p_bits) for z, rad in out])
        # The disks must be disjoint with a factor-2 margin, as in the float
        # phase: iterates stalled around a cluster they cannot resolve get
        # exact disks that are just disjoint, each with its root near the
        # rim, and too wide for any bound at this precision
        for disks in candidates:
            if _first_overlap([(z, 2 * rad) for z, rad in disks]) is None:
                return disks
        return None


def _radius_target(z: mpc, precision: int) -> mpf:
    """The largest radius a disk around z may have at `precision`."""
    return mpmath.ldexp(max(mpf(1), abs(z)), -(precision // 2))


def _carry_target(z: mpc, precision: int) -> mpf:
    """The largest radius with which a disk around z is kept at `precision`
    as it is: the accuracy Aberth's tolerance gives a fresh solve there, so
    the midpoint carries `precision` bits, sorts as a fresh one would, and
    the bound sees disks no wider than a fresh solve's."""
    return mpmath.ldexp(max(mpf(1), abs(z)), -(precision + TOL_EXTRA_BITS))


def _find_roots_exact(p: ExactPoly, precision: int, warm: RootSet | None = None) -> RootSet:
    """The retry ladder: each attempt solves every square-free factor at
    `work` bits. The disks must be disjoint at `work` bits (roots of distinct
    coprime factors are distinct, but their disks may still meet); the
    working precision doubles until they are, at most MAX_ESCALATIONS times.

    `warm`, a root set of `p`, brings p's square-free decomposition along.
    Yun's factors have distinct multiplicities, so the entries of `warm` with
    a factor's multiplicity are that factor's roots: they start its first
    attempt; if that does not certify, the Newton polygon starts a retry at
    the same working bits and every later attempt.
    """
    factors = warm.factors if warm is not None else square_free_decomposition(p)
    starts: dict[int, list[mpc]] = {}
    for e in warm.entries if warm is not None else ():
        starts.setdefault(e.multiplicity, []).append(e.value.mid)
    work = precision + GUARD_BITS
    for _ in range(MAX_ESCALATIONS + 1):
        with mp.workprec(work):
            found = []
            for index, (factor, mult) in enumerate(factors):
                seeds = starts.pop(mult, None)
                solved = None
                if seeds is not None and len(seeds) == factor.degree:
                    solved = _solve_factor(factor, precision, work, warm=seeds)
                if solved is None:
                    solved = _solve_factor(factor, precision, work)
                if solved is None:
                    cluster = [f"factor {index} (degree {factor.degree}, multiplicity {mult})"]
                    break
                found.extend((z, rad, mult) for z, rad in solved)
            else:
                bad = _first_overlap(found)
                if bad is None:
                    with mp.workprec(precision):
                        found.sort(key=lambda t: _canonical_key(t[0]))
                    entries = tuple([RootEntry(CBall(z, rad), m) for z, rad, m in found])
                    return RootSet(entries, p.leading, p.degree, precision, factors)
                cluster = [mpmath.nstr(found[k][0], 8) for k in bad]
        work *= 2
    raise IndistinguishableRootsError(precision, cluster)


def find_roots(p: ExactPoly, precision: int = 128) -> RootSet:
    """Find all distinct roots with multiplicities and certified error disks.

    The multiplicities come from the exact square-free decomposition, so a
    decimal input such as (x-0.3)^6, parsed as (x-3/10)^6, has one root of
    multiplicity 6.
    """
    if not isinstance(p, ExactPoly):
        raise TypeError(f"cannot find roots of {type(p).__name__}")
    if p.is_zero or p.degree < 1:
        raise ValidationError("root finding needs degree >= 1")
    return _find_roots_exact(p, precision)


def refine(p: ExactPoly, roots: RootSet, precision: int) -> RootSet:
    """The root set of `p` at `precision`, carried from `roots`, a root set
    of `p` found at any precision. `p` is exact (a decimal literal is read as
    its exact rational), so a certified disk encloses its root of `p` at
    every precision.

    The set is kept when every disk is already as tight as a fresh solve at
    `precision` would make it, 2^-(precision + 12) * max(1, |z|), and the
    disks are still disjoint at its working precision; it is then
    relabelled and sorted at `precision`. A looser disk would carry midpoint
    noise into the canonical order and keep the disks of a rung that has
    just come back inconclusive. Otherwise `p` is solved again from the
    set's square-free decomposition, each factor's first attempt starting
    Aberth from the midpoints of the entries with that factor's
    multiplicity.
    """
    if roots.precision_bits == precision:
        return roots
    with mp.workprec(precision + GUARD_BITS):
        disks = [(e.value.mid, e.value.rad) for e in roots.entries]
        if all(rad <= _carry_target(z, precision) for z, rad in disks) \
                and _first_overlap(disks) is None:
            with mp.workprec(precision):
                entries = sorted(roots.entries, key=lambda e: _canonical_key(e.value.mid))
            return RootSet(tuple(entries), roots.leading_coeff, roots.total_degree, precision,
                           roots.factors)
    return _find_roots_exact(p, precision, warm=roots)
