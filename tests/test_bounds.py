"""Bound variants, the reduction certificate and the exact lemma checks."""
import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp


SRC = str(Path(__file__).resolve().parent.parent / "src")


def hp(make_expected):
    """Evaluate an expected value at high precision (frozen oracle)."""
    with mp.workprec(200):
        return make_expected()

from rootsep import (
    ClusterHint,
    ExactPoly,
    GaussianRational,
    PreconditionError,
    ValidationError,
    bound_classical,
    bound_main,
    bound_remark_degree,
    bound_remark_pairs,
    bound_sep_product,
    find_roots,
    orient,
    parse_polynomial,
    reduce_vandermonde,
    refine,
    verify,
)
from rootsep import balls, bounds
from rootsep.balls import CBall, RBall, RungTable, ball_product, working_precision
from rootsep.graph import preset_edges
from rootsep.invariants import compute_invariants, mahler_measure
from rootsep.poly import _IOTA, _Q
from rootsep.roots import RootEntry, RootSet

from oracles import (
    certificate_checks,
    dyadic,
    exact_det,
    exact_mid,
    lemma_aux_check,
    mid_distance,
    midpoints,
    multiplicity_product_bound,
    power_basis_row,
    row_bound_square,
    sqrt_bracket,
    vandermonde_matrix,
)


def _distance_bracket(roots, i, j) -> tuple:
    """Rationals lo <= |z_i - z_j| <= hi for every z_i, z_j in the two
    disks, from the exact midpoints and radii: an oracle independent of the
    rung table."""
    a, b = roots.entries[i].value, roots.entries[j].value
    lo, hi = sqrt_bracket((exact_mid(a) - exact_mid(b)).norm())
    reach = dyadic(a.rad) + dyadic(b.rad)
    return max(Fraction(0), lo - reach), hi + reach


def _bracket_product(brackets) -> tuple:
    return math.prod([lo for lo, _ in brackets]), math.prod([hi for _, hi in brackets])


def _meets(ball, bracket) -> bool:
    """Whether the real ball and the bracket (lo, hi) share a point."""
    mid, rad = dyadic(ball.mid), dyadic(ball.rad)
    return mid - rad <= bracket[1] and bracket[0] <= mid + rad


class TestLemmaAux:
    def test_equality_chain(self):
        lhs, mid, rhs = lemma_aux_check(0, 2)
        root2 = mpmath.sqrt(2)
        assert abs(lhs - root2) < 1e-12
        assert abs(mid - root2) < 1e-12
        assert abs(rhs - root2) < 1e-12

    def test_single_term(self):
        lhs, mid, rhs = lemma_aux_check(1, 2)
        assert lhs == 1 and mid == 1
        assert abs(rhs - 2 * mpmath.sqrt(2) / mpmath.sqrt(3)) < 1e-12

    def test_all_ones(self):
        assert lemma_aux_check(0, 1) == (1, 1, 1)

    def test_rejects_d_at_least_r(self):
        with pytest.raises(PreconditionError):
            lemma_aux_check(2, 2)

    def test_chain_exhaustive(self):
        for r in range(1, 101):
            for d in range(r):
                lhs, mid, rhs = lemma_aux_check(d, r)
                assert lhs <= mid * (1 + 1e-15)
                assert mid <= rhs * (1 + 1e-15)


class TestMultiplicityBound:
    def test_mixed(self):
        product, bound = multiplicity_product_bound([1, 2])
        assert product == 2
        assert abs(bound - 3 ** (2 / 3)) < 1e-12

    def test_equality_single(self):
        product, bound = multiplicity_product_bound([3])
        assert product == 3 and abs(bound - 3) < 1e-12

    def test_square_free(self):
        product, bound = multiplicity_product_bound([1, 1, 1])
        assert product == 1 and bound == 1

    def test_exhaustive_compositions(self):
        def compositions(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield (first,) + rest

        for d in range(1, 16):
            for comp in compositions(d):
                product, bound = multiplicity_product_bound(list(comp))
                assert product <= bound * (1 + 1e-12)


class TestVandermonde:
    def test_2x2(self):
        roots = find_roots(parse_polynomial("x*(x-1)"), 128)
        m = vandermonde_matrix(midpoints(roots))
        assert m == [[1, 0], [1, 1]]
        assert exact_det(m) == 1

    def test_3x3_det(self):
        roots = find_roots(parse_polynomial("x*(x-1)*(x-2)"), 128)
        assert exact_det(vandermonde_matrix(midpoints(roots))) == 2

    def test_pm1(self):
        roots = find_roots(parse_polynomial("x^2-1"), 128)
        assert exact_det(vandermonde_matrix(midpoints(roots))) == 2

    def test_det_equals_distance_product(self):
        # det W on the grid holds the Vandermonde determinant at the
        # midpoints, and its modulus meets the product of the distances
        rng = random.Random(21)
        for _ in range(15):
            p = _random_instance(rng)[0]
            roots = find_roots(p, 128)
            det_w = roots.table.det_w
            assert _in_ball(exact_det(vandermonde_matrix(midpoints(roots))), det_w)
            prod = _bracket_product(
                [_distance_bracket(roots, i, j) for j in range(roots.r) for i in range(j)]
            )
            with working_precision(128):
                assert _meets(det_w.abs(), prod)

    def test_det_w_from_root_differences_at_degree_32(self):
        # det W is the product of the root differences; it holds the exact
        # determinant of the Vandermonde matrix at the midpoints
        p = ExactPoly.from_roots(
            [GaussianRational.of(Fraction(-465 + 30 * j, 12)) for j in range(32)]
        )
        roots = find_roots(p, 128)
        cert = reduce_vandermonde(roots, orient([(j, j + 1) for j in range(31)], roots))
        assert _in_ball(exact_det(vandermonde_matrix(midpoints(roots))), cert.det_w)
        assert cert.det_w.rad / abs(cert.det_w.mid) <= 1e-30


def _step_matrices(roots, g):
    """The reduction's matrix sequence at the exact midpoints: the
    Vandermonde matrix, then one row replaced per step (highest index first)
    by the divided difference of the power basis over the sources of its
    edges plus the vertex itself."""
    z = midpoints(roots)
    current = vandermonde_matrix(z)
    matrices = [[list(row) for row in current]]
    for j in range(roots.r - 1, 0, -1):
        sources = [a for a, _ in g.edges_into(j)]
        if sources:
            current[j] = power_basis_row(roots.r, [z[a] for a in sources] + [z[j]])
        matrices.append([list(row) for row in current])
    return matrices


def _step_products(roots, g) -> list:
    """The exact step factors at the midpoints, highest row first."""
    z = midpoints(roots)
    return [
        math.prod([z[j] - z[a] for a, _ in g.edges_into(j)], start=GaussianRational.of(1))
        for j in range(roots.r - 1, 0, -1)
    ]


class TestReduction:
    def test_empty_edges_identity(self):
        roots = find_roots(parse_polynomial("x^2-1"), 128)
        cert = reduce_vandermonde(roots, orient([], roots))
        assert all(f.mid == 1 for f in cert.step_factors)
        assert abs(cert.det_w.mid - cert.det_w1.mid) < 1e-30

    def test_two_by_two_reduction(self):
        roots = find_roots(parse_polynomial("x^2-1"), 128)
        g = orient([(0, 1)], roots)
        cert = reduce_vandermonde(roots, g)
        w1 = _step_matrices(roots, g)[-1]
        # the rebuilt matrix is the one the reduction took det_w1 of
        assert _in_ball(exact_det(w1), cert.det_w1)
        assert w1 == [[1, -1], [0, 1]]
        assert abs(cert.det_w1.mid - 1) < 1e-30
        assert abs(cert.step_factors[0].mid - 2) < 1e-30
        assert abs(cert.det_w.mid - 2) < 1e-30

    def test_path_reduction(self):
        roots = find_roots(parse_polynomial("x*(x-1)*(x-2)"), 128)
        cert = reduce_vandermonde(roots, orient([(0, 1), (1, 2)], roots))
        # the roots are exact, and so is every product of their differences
        combined = exact_mid(cert.det_w1) * exact_mid(cert.edge_product)
        assert combined == exact_mid(cert.det_w) == 2

    def test_stepwise_identity(self):
        # det W_j = det W_{j-1} * step factor, for every intermediate step
        rng = random.Random(3)
        for _ in range(8):
            p, edges = _random_instance(rng)
            roots = find_roots(p, 128)
            g = orient(edges, roots)
            cert = reduce_vandermonde(roots, g)
            dets = [exact_det(m) for m in _step_matrices(roots, g)]
            # the rebuilt sequence runs from the reduction's W to its W_1
            assert _in_ball(dets[0], cert.det_w)
            assert _in_ball(dets[-1], cert.det_w1)
            for step, (factor, exact) in enumerate(zip(cert.step_factors, _step_products(roots, g))):
                assert _in_ball(exact, factor)
                assert dets[step] == dets[step + 1] * exact

    def test_identity_holds_modulo_q(self):
        rng = random.Random(9)
        for _ in range(10):
            p, edges = _random_instance(rng)
            roots = find_roots(p, 128)
            g = orient(edges, roots)
            cert = reduce_vandermonde(roots, g)
            assert cert.identity.holds
            # det_w1 is det W / E, the product of the non-edge differences
            matrices = _step_matrices(roots, g)
            det_w, det_w1 = exact_det(matrices[0]), exact_det(matrices[-1])
            edge_product = math.prod(_step_products(roots, g), start=GaussianRational.of(1))
            assert det_w == det_w1 * edge_product
            assert _in_ball(det_w, cert.det_w)
            assert _in_ball(det_w1, cert.det_w1)
            assert _in_ball(edge_product, cert.edge_product)


def _spy_builds(monkeypatch) -> list:
    """The ambient precision of every rung table built from here on."""
    builds = []
    real_build = RungTable.build

    def build_spy(values):
        builds.append(mp.prec)
        return real_build(values)

    monkeypatch.setattr(RungTable, "build", staticmethod(build_spy))
    return builds


class TestRungTable:
    def test_no_ball_subtraction_and_no_distance(self, monkeypatch):
        # the certificate, the LHS, sDisc and the Mahler measure all read one
        # table of differences, taken on the grid
        r = 12
        p = ExactPoly.from_roots(
            [GaussianRational.of(Fraction(k - 6, 2), Fraction(k % 3, 3)) for k in range(r)]
        )
        roots = find_roots(p, 128)
        edges = [(i, j) for j in range(r) for i in range(j)]
        distances = []
        real_distance = RootSet.distance

        def distance_spy(self, i, j):
            distances.append((i, j))
            return real_distance(self, i, j)

        monkeypatch.setattr(RootSet, "distance", distance_spy)
        builds = _spy_builds(monkeypatch)
        rep = bound_main(p, edges, 128, roots=roots)
        assert rep.holds and rep.certificate is not None
        assert len(builds) == 1
        assert distances == []
        # and a CBall has no subtraction to call
        assert not hasattr(CBall, "__sub__")

    @pytest.mark.parametrize("variant", ["main", "sep_product"])
    def test_one_table_per_rung(self, variant, monkeypatch):
        # the first rung is inconclusive, so the ladder runs two; each rung
        # that has a root set builds one table, at its own precision, for
        # the certificate, the components, the distances and both
        # sep-product sub-bounds. main's 64-bit rung has one (_tight_pair)
        # and sep_product's none: 64 bits cannot separate _far_cluster's pair
        if variant == "main":
            p, edges, tables = _tight_pair(), [], [64, 128]
        else:
            p, edges, tables = _far_cluster(), [(1, 2)], [128]
        builds = _spy_builds(monkeypatch)
        rep = verify(p, edges, variant, precision=64, ceiling=256, subset=[2])
        assert rep.holds and rep.precision_bits == 128
        assert builds == [bits + balls.GUARD_BITS for bits in tables]

    def test_invariants_reuse_the_bounds_table(self, monkeypatch):
        q, mults = _degree_16_roots()
        p = ExactPoly.from_roots(q, mults, GaussianRational.of(2, 1))
        roots = find_roots(p, 128)
        builds = _spy_builds(monkeypatch)
        rep = bound_main(p, [(0, 1), (1, 2)], 128, roots=roots)
        assert rep.holds and len(builds) == 1
        bundle = compute_invariants(p, 128, roots=roots)
        assert len(builds) == 1
        assert bundle.mahler.overlaps(mahler_measure(roots))

    # {0, 1, 2} -> 3 and {0, 1, 2, 3} -> 4 nest and {1, 4} -> 5 does not
    @pytest.mark.parametrize("edges", [
        [(i, j) for j in range(8) for i in range(j)],
        [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4), (1, 5), (4, 5)],
    ])
    def test_w1_rows_overlap_power_basis_rows(self, edges):
        # the grid rows, nested or not, are the exact oracle's rows at the
        # midpoints, which the grid holds exactly
        p = ExactPoly.from_roots(
            [GaussianRational.of(Fraction(k - 3, 3), Fraction(k % 2, 2)) for k in range(8)]
        )
        roots = find_roots(p, 128)
        g = orient(edges, roots)
        table = roots.table
        sources = table.edges(g).sources
        w1 = bounds._w1(table, sources, bounds._second_point(table))
        assert _grid_matrix(w1, table.w) == _step_matrices(roots, g)[-1]


def _mpf(x: Fraction):
    """x as an mpf, exactly (x is dyadic)."""
    return mpmath.mp.make_mpf(from_man_exp(x.numerator, -(x.denominator.bit_length() - 1)))


def _q(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _in_disk(z: GaussianRational, x: Fraction, y: Fraction, rad: Fraction) -> bool:
    return (z.re - x) ** 2 + (z.im - y) ** 2 <= rad * rad


def _in_ball(z: GaussianRational, ball: CBall) -> bool:
    return _in_disk(z, _q(ball.mid.real), _q(ball.mid.imag), _q(ball.rad))


def _norm_in(norm_sq: Fraction, ball) -> bool:
    """sqrt(norm_sq) lies in the real ball, decided on squares."""
    lo, hi = _q(ball.mid) - _q(ball.rad), _q(ball.mid) + _q(ball.rad)
    return (lo <= 0 or lo * lo <= norm_sq) and norm_sq <= hi * hi


def _in_interval(norm_sq: Fraction, ball) -> bool:
    """sqrt(norm_sq) lies in the interval [ball.lo, ball.hi]."""
    lo, hi = _q(ball.lo), _q(ball.hi)
    return lo * lo <= norm_sq <= hi * hi


def _grid_matrix(rows, w: int) -> list:
    """W_1's rows (see `bounds.W1Row`) as Gaussian rationals: the exact
    midpoints of the grid entries, entry i of a row in units of 2^-(i w)."""
    return [
        [GaussianRational.of(0)] * row.start
        + [GaussianRational(Fraction(x, 2 ** (i * w)), Fraction(y, 2 ** (i * w)))
           for i, (x, y) in enumerate(zip(row.xs, row.ys))]
        for row in rows
    ]


# dyadic midpoint parts, 0 among them, some with more bits than the 128-bit
# working precision, and radii: 0 (exact dyadic roots), plain, near 1 and
# near 2^-1100
_parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda m, s: m / Fraction(2) ** s, st.integers(-(2**40), 2**40), st.integers(-4, 60)),
    st.builds(lambda m, s: m / Fraction(2) ** s, st.integers(-(2**90), 2**90), st.integers(80, 92)),
)
_radii = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda m, s: Fraction(m, 2**s), st.integers(1, 2**30), st.integers(40, 140)),
    st.integers(1, 64).map(lambda k: Fraction(2**60 - k, 2**61)),
    st.integers(-(2**20), 2**20).map(lambda k: Fraction(2**40 + k, 2**1140)),
)
# offsets inside the unit disk: the centre and points on the rim
_units = st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                          (Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(-3, 5))])
# half the draws are exact dyadic roots throughout, whose W_1 entries carry
# no radius but the units of their floors
_disks = st.builds(
    lambda disks, exact: [(x, y, Fraction(0) if exact else rad, u) for x, y, rad, u in disks],
    st.lists(st.tuples(_parts, _parts, _radii, _units), min_size=2, max_size=5),
    st.booleans(),
)


def _sampled_roots(disks):
    """A root set on the disks, and one exact point of each disk."""
    with mp.workprec(256):  # mpc rounds its parts at the working precision
        entries = tuple(
            RootEntry(CBall(mpmath.mpc(_mpf(x), _mpf(y)), _mpf(rad)), 1) for x, y, rad, _ in disks
        )
    roots = RootSet(entries, GaussianRational.of(1), len(disks), 128, ())
    points = [GaussianRational(x + rad * u, y + rad * v) for x, y, rad, (u, v) in disks]
    return roots, points


def _identity_of(roots, g, sources=None, rows=None):
    """`bounds._identity` on the grid of `roots` for the graph g, with W_1
    built for `sources` (default: g's) or given as `rows`."""
    t = roots.table
    true_sources = t.edges(g).sources
    point = bounds._second_point(t)
    if rows is None:
        rows = bounds._w1(t, true_sources if sources is None else sources, point)
    return bounds._identity(t, true_sources, rows, point)


def _w1_matrix(rows, entry) -> list:
    """The square matrix of W_1's rows (see `bounds.W1Row`), each entry
    mapped by `entry`."""
    return [[entry(0, 0)] * row.start + [entry(x, y) for x, y in zip(row.xs, row.ys)] for row in rows]


# Gaussian integers, a fifth of them 0, for matrices that need row swaps
_gauss = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-(2**200), 2**200), st.integers(-2, 2)),
)


class TestIdentityCheck:
    @settings(max_examples=80, deadline=None)
    @given(_disks, st.data())
    def test_a_wrong_w1_fails_the_check(self, disks, data):
        roots, _ = _sampled_roots(disks)
        r = roots.r
        t = roots.table
        assume(len({(x, y) for x, y, _, _ in t.nodes}) == r)
        g = orient([e for e in ((i, j) for j in range(r) for i in range(j)) if data.draw(st.booleans())], r)
        sources = t.edges(g).sources
        rows = bounds._w1(t, sources, bounds._second_point(t))
        assert _identity_of(roots, g).holds
        kind = data.draw(st.sampled_from(["entry", "drop", "replace", "swap"]))
        if kind == "entry":
            # a perturbed entry fails exactly when it changes the determinant
            j = data.draw(st.integers(0, r - 1))
            i = data.draw(st.integers(0, len(rows[j].xs) - 1))
            dx, dy = data.draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (3, -2)]))
            xs, ys = list(rows[j].xs), list(rows[j].ys)
            xs[i] += dx
            ys[i] += dy
            wrong = rows[:j] + (rows[j]._replace(xs=xs, ys=ys),) + rows[j + 1:]
            gauss = lambda x, y: GaussianRational.of(x, y)  # noqa: E731
            same = exact_det(_w1_matrix(wrong, gauss)) == exact_det(_w1_matrix(rows, gauss))
            assert _identity_of(roots, g, rows=wrong).holds == same
            return
        if kind == "swap":
            j, k = data.draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
            wrong = list(rows)
            wrong[j], wrong[k] = wrong[k], wrong[j]
            assert not _identity_of(roots, g, rows=tuple(wrong)).holds
            return
        fed = [j for j in range(r) if sources[j]]
        assume(fed)
        j = data.draw(st.sampled_from(fed))
        a = data.draw(st.sampled_from(sources[j]))
        kept = [b for b in sources[j] if b != a]
        if kind == "replace":
            others = [b for b in range(j) if b not in sources[j]]
            assume(others)
            kept.append(data.draw(st.sampled_from(others)))
        wrong = sources[:j] + (tuple(sorted(kept)),) + sources[j + 1:]
        assert not _identity_of(roots, g, sources=wrong).holds

    def test_the_second_point_is_checked(self):
        # the complete graph's W_1 is unit upper triangular, so one more unit
        # on the diagonal doubles its determinant, at either point alone
        roots = find_roots(parse_polynomial("x*(x-1/3)*(x+2/5)"), 128)
        g = orient([(0, 1), (0, 2), (1, 2)], roots)
        t = roots.table
        rows = bounds._w1(t, t.edges(g).sources, bounds._second_point(t))
        assert _identity_of(roots, g, rows=rows).holds
        last = rows[-1]
        at_point = [last.at_point[0] + 1] + last.at_point[1:]
        assert not _identity_of(roots, g, rows=rows[:-1] + (last._replace(at_point=at_point),)).holds
        xs = [last.xs[0] + 1] + last.xs[1:]
        assert not _identity_of(roots, g, rows=rows[:-1] + (last._replace(xs=xs),)).holds

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(_gauss, min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_modular_determinant_matches_the_exact_one(self, entries):
        exact = exact_det([[GaussianRational.of(x, y) for x, y in row] for row in entries])
        assert exact.re.denominator == exact.im.denominator == 1
        mod_q = bounds._det_mod_q([[(x + _IOTA * y) % _Q for x, y in row] for row in entries])
        assert mod_q == (exact.re.numerator + _IOTA * exact.im.numerator) % _Q

    def test_second_point_is_the_same_on_every_run(self):
        # the point hashes the grid numerators, not Python's salted hashes
        code = (
            "from rootsep import find_roots, parse_polynomial\n"
            "from rootsep.bounds import _second_point\n"
            "roots = find_roots(parse_polynomial('(x-1/3-i/5)*(x+2/7)*(x-5/8+i)*(x+1)'), 128)\n"
            "print(list(_second_point(roots.table)))"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")
        ]
        roots = find_roots(parse_polynomial("(x-1/3-i/5)*(x+2/7)*(x-5/8+i)*(x+1)"), 128)
        point = bounds._second_point(roots.table)
        assert runs[0] == runs[1] == f"{list(point)}\n"
        assert all(0 <= v < _Q for v in point) and len(set(point)) == 4
        # a table on other numerators draws another point
        other = find_roots(parse_polynomial("(x-1/3-i/5)*(x+2/7)*(x-5/8+i)*(x+2)"), 128)
        assert bounds._second_point(other.table) != point


class TestGridEnclosure:
    @settings(max_examples=60, deadline=None)
    @given(_disks)
    def test_grid_holds_the_midpoints_exactly(self, disks):
        # every midpoint is exact on the grid and every radius is its ball
        # radius rounded up to a unit, so a difference adds no cushion
        roots, _ = _sampled_roots(disks)
        table = roots.table
        scale = 2**table.w
        units = []
        for e, (x, y, h, l) in zip(roots.entries, table.nodes):
            assert Fraction(x, scale) == _q(e.value.mid.real)
            assert Fraction(y, scale) == _q(e.value.mid.imag)
            rad = _q(e.value.rad) * scale
            assert rad <= h - l < rad + 1
            units.append(h - l)
        for (i, j), (x, y, h, l) in table.diff.items():
            assert h - l == units[i] + units[j]
        # the moduli of exact roots keep the working precision, whatever
        # the grid
        for (x, y, h, l), m1 in zip(table.nodes, table.max1):
            if h == l:
                assert _q(m1.hi) - _q(m1.lo) <= _q(m1.lo) / 2**140
        for (i, j), (x, y, h, l) in table.diff.items():
            if h == l and (x or y):
                with working_precision(128):
                    dist = table.distance(i, j)
                assert _q(dist.rad) <= _q(dist.mid) / 2**140

    @settings(max_examples=60, deadline=None)
    @given(_disks, st.data())
    def test_table_products_and_w1_enclose_their_values(self, disks, data):
        roots, z = _sampled_roots(disks)
        r = roots.r
        pairs = [(i, j) for j in range(r) for i in range(j)]
        edges = [e for e in pairs if data.draw(st.booleans())]
        g = orient(edges, r)
        with working_precision(128):
            table = roots.table
            products = table.edges(g)
            # the certificate on the table as it is: the disks may meet
            point = bounds._second_point(table)
            w1 = bounds._w1(table, products.sources, point)
            cert = bounds.VandermondeCertificate(
                table, products, g.in_degrees, w1, bounds._identity(table, products.sources, w1, point)
            )
        # the identity is exact: it holds whatever the disks
        assert cert.identity.holds
        unit = Fraction(1, 2**table.w)
        det_w = GaussianRational.of(1)
        for (i, j) in pairs:
            dz = z[j] - z[i]
            x, y, h, l = table.diff[i, j]
            assert _in_disk(dz, x * unit, y * unit, (h - l) * unit)
            det_w = det_w * dz
        assert _in_ball(det_w, table.det_w)
        edge_product = GaussianRational.of(1)
        for j, factor in zip(range(r - 1, 0, -1), cert.step_factors):
            step = GaussianRational.of(1)
            for a in products.sources[j]:
                step = step * (z[j] - z[a])
            assert _in_ball(step, factor)
            edge_product = edge_product * step
        assert _in_ball(edge_product, products.edge_product)
        det_w1 = GaussianRational.of(1)
        for (i, j) in pairs:
            if i not in products.sources[j]:
                det_w1 = det_w1 * (z[j] - z[i])
        assert _in_ball(det_w1, cert.det_w1)
        hadamard = Fraction(1)
        for j, (row, norm, bound) in enumerate(zip(w1, cert.row_norms, cert.row_norm_bounds)):
            exact = power_basis_row(r, [z[a] for a in products.sources[j]] + [z[j]])
            assert all(h.is_zero for h in exact[:row.start])
            for i, (h, x, y, rad) in enumerate(zip(exact[row.start:], row.xs, row.ys, row.rads)):
                unit = Fraction(1, 2 ** (i * table.w))
                assert _in_disk(h, x * unit, y * unit, rad * unit)
            assert _norm_in(sum(h.norm() for h in exact), norm)
            # the bound's square: r^(2d+1) / 3^d max(1, |z_j|^2)^(r-1-d)
            d = g.in_degrees[j]
            square = Fraction(r ** (2 * d + 1), 3**d) * max(Fraction(1), z[j].norm()) ** (r - 1 - d)
            assert _norm_in(square, bound)
            hadamard *= square
        assert _norm_in(hadamard, cert.hadamard_rhs)
        for zj, m1 in zip(z, table.max1):
            assert _in_interval(max(Fraction(1), zj.norm()), m1)


def _degree_16_roots():
    """The six Gaussian-rational roots, multiplicities 1..5, of the degree 16
    polynomial in test_invariants."""
    rng = random.Random(16)
    roots = []
    while len(roots) < 6:
        q = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.choice((3, 5, 7, 8))),
            Fraction(rng.randint(-6, 6), rng.choice((3, 5, 7, 8))),
        )
        if q not in roots:
            roots.append(q)
    return roots, [1, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("case", ["degree-16", "cluster-2^-200"])
@pytest.mark.parametrize("variant", ["main", "remark_degree", "sep_product"])
def test_table_routes_agree_with_independent_routes(variant, case):
    # the report's sDisc, read off det W, overlaps the exact subresultant
    # route, and its LHS the product of independently taken distances
    if case == "degree-16":
        q, mults = _degree_16_roots()
        # remark_degree needs a monic polynomial
        lead = 1 if variant == "remark_degree" else GaussianRational.of(2, 1)
        precision = 128
    else:
        q = [GaussianRational.of(1), GaussianRational.of(1 + Fraction(1, 2**200)),
             GaussianRational.of(-2, 1), GaussianRational.of(3)]
        mults, lead, precision = [2, 2, 1, 1], 1, 256
    p = ExactPoly.from_roots(q, mults, lead)
    roots = find_roots(p, precision)
    r = roots.r
    if variant == "sep_product":
        rep = bound_sep_product(p, list(range(r)), precision, roots=roots)
        # the sep-product row is the main row squared: this slot holds |sDisc|
        sdisc = rep.components["sdisc_sqrt"]
        edges = [tuple(e) for e in rep.extra["e0"] + rep.extra["e1"]]
    else:
        edges = [(i, j) for j in range(r) for i in range(j)]
        bound = bound_main if variant == "main" else bound_remark_degree
        rep = bound(p, edges, precision, roots=roots)
        sdisc = rep.components["sdisc_sqrt"] * rep.components["sdisc_sqrt"]
    lhs = _bracket_product([_distance_bracket(roots, a, b) for a, b in edges])
    assert _meets(rep.lhs, lhs)
    with working_precision(precision):
        assert sdisc.overlaps(compute_invariants(p, precision, roots=roots).sdisc_abs)


class TestDeterminantOnIntegers:
    def test_real_path_w1_takes_the_real_branch(self):
        # roots k/4 are certified on the axis, exactly, so the grid W_1 is
        # real and is the exact W_1, whose determinant det_w1 is, exactly
        r = 16
        p = ExactPoly.from_roots([GaussianRational.of(Fraction(2 * k - r, 8)) for k in range(r)])
        roots = find_roots(p, 128)
        g = orient(preset_edges("path", roots), roots)
        cert = reduce_vandermonde(roots, g)
        assert all(y == 0 and rad == 0 for row in cert.rows for y, rad in zip(row.ys, row.rads))
        w1 = _step_matrices(roots, g)[-1]
        assert _grid_matrix(cert.rows, roots.table.w) == w1
        assert cert.det_w1.rad == 0 and cert.det_w1.mid.imag == 0
        assert exact_det(w1) == exact_mid(cert.det_w1)

    @pytest.mark.parametrize("preset", ["complete", "path"])
    def test_roots_across_a_wide_range_certify(self, preset):
        p = ExactPoly.from_roots(
            [GaussianRational.of(v) for v in (Fraction(1, 2**100), 1, 3, 10)]
        )
        roots = find_roots(p, 128)
        rep = bound_main(p, preset_edges(preset, roots), 128, roots=roots)
        assert rep.holds and rep.certificate is not None


class TestRowNormHadamard:
    def test_reduced_row(self):
        roots = find_roots(parse_polynomial("x^2-1"), 128)
        g = orient([(0, 1)], roots)
        cert = reduce_vandermonde(roots, g)
        norm, bound = cert.row_norms[1], cert.row_norm_bounds[1]
        assert abs(norm.mid - 1) < 1e-30
        assert abs(bound.mid - hp(lambda: 2 * mpmath.sqrt(2) / mpmath.sqrt(3))) < 1e-25

    def test_unreduced_row_equality(self):
        roots = find_roots(parse_polynomial("x^2-1"), 128)
        g = orient([(0, 1)], roots)
        cert = reduce_vandermonde(roots, g)
        norm, bound = cert.row_norms[0], cert.row_norm_bounds[0]
        root2 = hp(lambda: mpmath.sqrt(2))
        assert abs(norm.mid - root2) < 1e-30
        assert abs(bound.mid - root2) < 1e-30

    def test_full_indegree_bound_ignores_modulus(self):
        # exponent r-1-d_j = 0 removes the max(1,|v|) factor
        p = parse_polynomial("(x-3)*(x-5)")
        roots = find_roots(p, 128)
        g = orient([(0, 1)], roots)
        cert = reduce_vandermonde(roots, g)
        bound = cert.row_norm_bounds[1]
        expected = hp(lambda: 2 / mpmath.sqrt(3) * mpmath.sqrt(2))
        assert abs(bound.mid - expected) < 1e-25

    def test_hadamard_values(self):
        roots = find_roots(parse_polynomial("x^2-1"), 128)
        g = orient([(0, 1)], roots)
        cert = reduce_vandermonde(roots, g)
        h = cert.hadamard_rhs
        assert abs(h.mid - hp(lambda: 4 / mpmath.sqrt(3))) < 1e-25
        assert cert.det_w1.abs().lo <= h.hi

    def test_hadamard_empty_edges(self):
        roots = find_roots(parse_polynomial("x*(x-1)"), 128)
        g = orient([], roots)
        cert = reduce_vandermonde(roots, g)
        h = cert.hadamard_rhs
        assert abs(h.mid - 2) < 1e-25

    def test_hadamard_single_root(self):
        roots = find_roots(parse_polynomial("(x-1)^3"), 128)
        g = orient([], roots)
        cert = reduce_vandermonde(roots, g)
        assert abs(cert.hadamard_rhs.mid - 1) < 1e-25

    def test_checks_decide_at_equality_and_fail_on_a_wrong_bound(self):
        # roots +-1, no edges: W_1 = W = [[1, -1], [1, 1]], each row norm
        # sqrt(2) is its bound sqrt(2) max(1, 1), and |det W_1| = 2 the
        # Hadamard bound: both checks hold, at equality
        roots = find_roots(parse_polynomial("x^2-1"), 128)
        assert roots.entries[0].value.rad == 0
        cert = reduce_vandermonde(roots, orient([], roots))
        assert cert.rows_ok() and cert.hadamard_ok()
        # roots +-2 with in-degrees 1 claimed: each bound sqrt(8/3) is below
        # the row norms sqrt(5), and their product 8/3 below |det W_1| = 4
        roots = find_roots(parse_polynomial("x^2-4"), 128)
        cert = reduce_vandermonde(roots, orient([], roots))
        assert cert.rows_ok() and cert.hadamard_ok()
        wrong = dataclasses.replace(cert, in_degrees=(1, 1))
        assert not wrong.rows_ok() and not wrong.hadamard_ok()

    def test_chain_random(self):
        rng = random.Random(41)
        for _ in range(12):
            p, edges = _random_instance(rng)
            roots = find_roots(p, 128)
            g = orient(edges, roots)
            cert = reduce_vandermonde(roots, g)
            assert cert.rows_ok()
            assert cert.hadamard_ok()
            with working_precision(128):
                norm_prod = ball_product(list(cert.row_norms))
                assert cert.det_w1.abs().lo <= norm_prod.hi
                assert norm_prod.lo <= cert.hadamard_rhs.hi



_small_parts = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))
# roots on the unit circle put a row without incoming edges on its bound
_on_circle = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 5), Fraction(4, 5))])
_real_roots = st.lists(st.one_of(st.sampled_from([1, -1]), _small_parts).map(GaussianRational.of),
                       min_size=2, max_size=6, unique=True)
_gaussian_roots = st.lists(
    st.one_of(_on_circle, st.tuples(_small_parts, _small_parts)).map(lambda z: GaussianRational.of(*z)),
    min_size=2, max_size=6, unique=True,
)


def _parent_row_bounds(cert) -> tuple:
    """The row bounds and the Hadamard bound by ball arithmetic at the
    table's precision: sqrt(r^(2d+1) / 3^d) rounded twice, times
    max1[j].powi(r - 1 - d), and their product."""
    t, r = cert.table, len(cert.rows)
    with mp.workprec(t.prec):
        rows = [RBall.exact(Fraction(r ** (2 * d + 1), 3**d)).sqrt() * t.max1[j].powi(r - 1 - d)
                for j, d in enumerate(cert.in_degrees)]
        return rows, ball_product(rows)


class TestCertificateBrackets:
    """`rows_ok` and `hadamard_ok` compare a small certificate's exact
    integers directly; a larger one's they decide on working-precision
    brackets, with the exact comparison where two brackets overlap. The
    tests force the brackets by setting `_EXACT_CHECK_BITS` to 0."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_real_roots, _gaussian_roots), st.sampled_from(["path", "complete", "random"]), st.data())
    def test_brackets_decide_as_the_exact_comparison(self, zs, kind, data):
        roots = find_roots(ExactPoly.from_roots(zs), 128)
        r = roots.r
        if kind == "random":
            edges = [(i, j) for j in range(r) for i in range(j) if data.draw(st.booleans())]
        else:
            edges = preset_edges(kind, roots)
        cert = reduce_vandermonde(roots, orient(edges, roots))
        # claimed in-degrees change only the bounds, which then often fail
        claimed = tuple([data.draw(st.integers(0, j)) for j in range(r)])
        for c in (cert, dataclasses.replace(cert, in_degrees=claimed)):
            expected = certificate_checks(c)
            # small enough for the direct comparison, and on brackets
            assert c._exact_checks
            assert (c.rows_ok(), c.hadamard_ok()) == expected
            assert "_brackets" not in c.__dict__
            with mock.patch.object(bounds, "_EXACT_CHECK_BITS", 0):
                c = dataclasses.replace(c)
                assert (c.rows_ok(), c.hadamard_ok()) == expected

    def test_a_tie_falls_back_to_the_exact_comparison(self, monkeypatch):
        # roots -1, i, 1: a row without incoming edges, (1, v, v^2) with
        # |v| = 1, has norm sqrt(3), exactly its bound sqrt(3) max(1, |v|)^2
        roots = find_roots(parse_polynomial("(x-1)*(x+1)*(x-i)"), 128)
        assert all(e.value.rad == 0 for e in roots.entries)
        cert = reduce_vandermonde(roots, orient([(0, 1)], roots))
        calls = []
        exceeds = bounds._exceeds
        monkeypatch.setattr(bounds, "_exceeds", lambda *args: calls.append(args) or exceeds(*args))
        monkeypatch.setattr(bounds, "_EXACT_CHECK_BITS", 0)
        assert cert.rows_ok() and cert.hadamard_ok()
        # the two rows without incoming edges; the reduced row (norm at most
        # sqrt(5), bound 3) and |det W_1| (2, bound 9) are decided on brackets
        assert len(calls) == 2
        assert certificate_checks(cert) == (True, True)

    @pytest.mark.parametrize("zs, preset", [
        ([Fraction(2 * k - 15, 4) for k in range(16)], "path"),
        ([Fraction(k, 12) for k in (-31, -7, 1, 5, 22, 40, 47, 59)], "complete"),
        ([GaussianRational.of(Fraction(1, 3), Fraction(-1, 5)), GaussianRational.of(Fraction(-2, 7), Fraction(3, 8)),
          GaussianRational.of(Fraction(5, 8), -1), GaussianRational.of(-1, Fraction(2, 3))], "complete"),
        ([10**20, 3, -2, Fraction(1, 3)], "path"),
        ([1, -1, GaussianRational.of(0, 1)], "nearest_neighbor"),
    ])
    def test_report_balls_hold_their_values_inside_the_ball_formula(self, zs, preset):
        zs = [z if isinstance(z, GaussianRational) else GaussianRational.of(z) for z in zs]
        roots = find_roots(ExactPoly.from_roots(zs), 128)
        cert = reduce_vandermonde(roots, orient(preset_edges(preset, roots), roots))
        r = roots.r
        # each entry's root, the constructed value in its disk
        z = [min(zs, key=lambda q: abs(e.value.mid - complex(float(q.re), float(q.im)))) for e in roots.entries]
        squares = [row_bound_square(r, d, zj) for d, zj in zip(cert.in_degrees, z)]
        assert all(_in_interval(sq, b) for sq, b in zip(squares, cert.row_norm_bounds))
        assert _in_interval(math.prod(squares), cert.hadamard_rhs)
        det_w1 = GaussianRational.of(1)
        edges = {(a, j) for j, s in enumerate(cert.products.sources) for a in s}
        for j in range(r):
            for i in range(j):
                if (i, j) not in edges:
                    det_w1 = det_w1 * (z[j] - z[i])
        assert _in_ball(det_w1, cert.det_w1)
        rows, hadamard = _parent_row_bounds(cert)
        for new, old in zip((*cert.row_norm_bounds, cert.hadamard_rhs), (*rows, hadamard)):
            assert old.lo <= new.lo and new.hi <= old.hi

def _random_instance(rng, force_mult=False):
    n = rng.randint(2, 5)
    roots = []
    while len(roots) < n:
        q = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0),
        )
        if q not in roots:
            roots.append(q)
    mults = [rng.randint(1, 3) for _ in roots]
    if force_mult and all(m == 1 for m in mults):
        mults[0] = 2
    p = ExactPoly.from_roots(roots, mults, rng.choice([1, 2, -1]))
    edges = [
        (i, j) for j in range(n) for i in range(j) if rng.random() < 0.4
    ]
    if not edges:
        edges = [(0, 1)]
    return p, edges


class TestBoundMain:
    def test_worked_example(self):
        rep = bound_main(parse_polynomial("x^2-1"), [(0, 1)], 128)
        assert rep.holds
        assert abs(rep.lhs.mid - 2) < 1e-30
        assert abs(rep.rhs.mid - hp(lambda: mpmath.sqrt(3) / 2)) < 1e-30

    def test_multiplicity_example(self):
        rep = bound_main(parse_polynomial("(x-1)^2*x"), [(0, 1)], 128)
        assert rep.holds
        expected = hp(lambda: mpmath.sqrt(2) * (mpmath.sqrt(3) / 2) / 2 * 3 ** (-mpmath.mpf(1) / 3))
        assert abs(rep.lhs.mid - 1) < 1e-30
        assert abs(rep.rhs.mid - expected) / expected < 1e-30

    def test_empty_edges(self):
        rep = bound_main(parse_polynomial("(x-2)*(x+1)"), [], 128)
        assert rep.lhs.mid == 1 and rep.lhs.rad == 0
        assert rep.holds
        assert abs(rep.rhs.mid - 0.75) < 1e-25

    def test_empty_edges_tight_instance_is_inconclusive(self):
        # all roots on the unit circle: LHS = RHS = 1 exactly, so interval
        # separation can never decide the non-strict inequality
        rep = bound_main(parse_polynomial("x^2-1"), [], 128)
        assert rep.verdict == "inconclusive"
        assert abs(rep.margin) < 1e-30

    def test_rhs_is_component_product(self):
        rng = random.Random(6)
        for _ in range(8):
            p, edges = _random_instance(rng)
            rep = bound_main(p, edges, 128)
            with working_precision(128):
                prod = ball_product(list(rep.components.values()))
            assert rep.rhs.overlaps(prod)
            assert set(rep.components) == {
                "sdisc_sqrt", "mahler_power", "edge_factor", "r_power", "multiplicity_factor",
            }

    def test_root_set_is_carried_to_the_bound_precision(self):
        # the table and the certificate run at the precision the report states
        p = parse_polynomial("x*(x-1/3)*(x-3)")
        roots = find_roots(p, 128)
        rep = bound_main(p, [(0, 1)], 256, roots=roots)
        assert rep.holds and rep.roots.precision_bits == 256
        assert _exact_fields(rep) == _exact_fields(
            bound_main(p, [(0, 1)], 256, roots=refine(p, roots, 256))
        )

    def test_degenerate_single_root(self):
        rep = bound_main(parse_polynomial("(x-1)^3"), [], 128)
        assert rep.holds
        assert rep.extra.get("degenerate")

    def test_graph_index_out_of_range(self):
        with pytest.raises(ValidationError):
            bound_main(parse_polynomial("x^2-1"), [(0, 5)], 128)

    def test_underflowing_negative_margin_is_inconclusive(self):
        # lhs.lo - rhs.hi = -1e-400 converts to the float -0.0, and -0.0 >= 0
        from rootsep.balls import RBall
        from rootsep.bounds import _finish

        with working_precision(128):
            lhs = RBall.exact(mpmath.mpf("1e-400"))
            rhs = RBall.exact(mpmath.mpf("2e-400"))
            rep = _finish("main", lhs, {"sdisc_sqrt": rhs}, None, 128, None, None, {})
        assert rep.margin == 0
        assert rep.verdict == "inconclusive"

    def test_margin_bits_reads_the_enclosures(self):
        # lhs / rhs = 1/2 below the double range, where the float margin is
        # -0.0; a zero lhs has no margin in bits
        from rootsep.balls import RBall
        from rootsep.bounds import _finish

        with working_precision(128):
            half = _finish("main", RBall.exact(mpmath.mpf("1e-400")),
                           {"sdisc_sqrt": RBall.exact(mpmath.mpf("2e-400"))}, None, 128, None, None, {})
            zero = _finish("main", RBall.exact(0), {"sdisc_sqrt": RBall.exact(1)},
                           None, 128, None, None, {})
        assert abs(half.margin_bits() + 1) < 1e-12
        assert zero.margin_bits() is None and zero.to_json()["margin_bits"] is None


class TestBoundClassical:
    def test_coincides_with_main_on_square_free(self):
        p = parse_polynomial("x^2-1")
        rep_c = bound_classical(p, [(0, 1)], 128)
        rep_m = bound_main(p, [(0, 1)], 128)
        assert abs(rep_c.rhs.mid - rep_m.rhs.mid) / rep_m.rhs.mid < 1e-12

    def test_indegree_two_rejected(self):
        p = parse_polynomial("x*(x-1)*(x-3)")
        with pytest.raises(PreconditionError, match="condition 3"):
            bound_classical(p, [(0, 2), (1, 2)], 128)

    def test_non_square_free_rejected(self):
        with pytest.raises(PreconditionError, match="Disc"):
            bound_classical(parse_polynomial("(x-1)^2*x"), [(0, 1)], 128)

    def test_decimal_bounded_like_rational(self):
        # the decimal is its exact rational, so square-freeness is decided
        # exactly and the report is the rational input's
        rep = bound_classical(parse_polynomial("x^2 - 0.5"), [(0, 1)], 128)
        assert rep.holds
        assert _exact_fields(rep) == _exact_fields(
            bound_classical(parse_polynomial("x^2 - 1/2"), [(0, 1)], 128)
        )


    def test_disc_read_off_the_root_set(self, monkeypatch):
        # p is square-free, so find_roots builds no chain; |Disc| comes from
        # the chain of (monic p, p'), built on the first read for the root
        # set's decomposition and kept for the next
        import rootsep.poly

        p = parse_polynomial("(x-1/4)*(x+3/4)*(x-5/2)*(x+7/2)")
        chains = []
        real_chain = rootsep.poly._subresultant_chain

        def chain_spy(a, b):
            chains.append(len(a) - 1)
            return real_chain(a, b)

        monkeypatch.setattr(rootsep.poly, "_subresultant_chain", chain_spy)
        roots = find_roots(p, 128)
        g = orient(preset_edges("path", roots), roots)
        assert chains == []
        rep = bound_classical(p, g, 128, roots=roots)
        assert rep.holds and chains == [4]
        again = bound_classical(p, g, 128, roots=refine(p, roots, 256))
        assert again.holds and chains == [4]
        monkeypatch.setattr(rootsep.poly, "_subresultant_chain", real_chain)
        assert _exact_fields(rep) == _exact_fields(bound_classical(p, g, 128))


class TestBoundRemarkDegree:
    def test_monic_unit_mahler(self):
        p = parse_polynomial("x^2-1")
        rep = bound_remark_degree(p, [(0, 1)], 128)
        rep_m = bound_main(p, [(0, 1)], 128)
        assert abs(rep.rhs.mid - rep_m.rhs.mid) < 1e-25

    def test_roots_outside_disk_improves(self):
        p = parse_polynomial("(x-2)*(x-3)*(x-5)")
        edges = [(0, 1), (0, 2), (1, 2)]
        rep = bound_remark_degree(p, edges, 128)
        rep_m = bound_main(p, edges, 128)
        assert rep.rhs.mid > rep_m.rhs.mid
        assert rep.holds

    def test_isolated_vertex_no_change(self):
        p = parse_polynomial("x*(x-1)*(x-2)")
        rep = bound_remark_degree(p, [(0, 1)], 128)
        rep_m = bound_main(p, [(0, 1)], 128)
        assert rep.extra["min_total_degree"] == 0
        assert abs(rep.rhs.mid - rep_m.rhs.mid) < 1e-25

    def test_non_monic_rejected(self):
        with pytest.raises(PreconditionError, match="monic"):
            bound_remark_degree(parse_polynomial("2*x^2-2"), [(0, 1)], 128)


def _clustered_instance(eps: Fraction):
    roots = [
        GaussianRational.of(-eps),
        GaussianRational.of(eps),
        GaussianRational.of(1 - eps),
        GaussianRational.of(1 + eps),
        GaussianRational.of(-2),
    ]
    return ExactPoly.from_roots(roots)


def _tight_pair():
    """(x - c)(x + c), c = 1 + 2^-87: its roots are exact from 64 bits on
    (88 working bits), and with no edges LHS = 1 against RHS = 1/c, a
    margin of about 2^-87, one unit in the last place of 1 at those bits,
    that the 64-bit rung's rounding cannot resolve and the 128-bit rung's
    can."""
    c = 1 + Fraction(1, 2**87)
    return ExactPoly.from_roots([GaussianRational.of(c), GaussianRational.of(-c)])


def _far_cluster():
    """Roots 1, 1 + 2^-1500 and 3: at 64 bits `find_roots` cannot separate
    the pair (its working precision stops at 1408 bits), at 128 bits it
    can."""
    return ExactPoly.from_roots(
        [GaussianRational.of(1), GaussianRational.of(1 + Fraction(1, 2**1500)), GaussianRational.of(3)]
    )


def _hints_for(p, edges, n_pairs=2):
    roots = find_roots(p, 128)
    r = roots.r
    dists = sorted(
        (float(mid_distance(roots.entries[i].value, roots.entries[j].value)), i, j)
        for j in range(r)
        for i in range(j)
    )
    hints = []
    for dist, i, j in dists[:n_pairs]:
        delta = math.log(dist) / math.log(math.sqrt(3) / r) - 1
        hints.append((i, j, delta * 0.999))
    return roots, hints


class TestBoundRemarkPairs:
    def test_tiny_deltas_approach_main(self):
        p = _clustered_instance(Fraction(1, 100))
        roots, hints = _hints_for(p, None)
        weak = [(g, d, 1e-9) for g, d, _ in hints]
        rep = bound_remark_pairs(p, [hints[0][:2]], weak, 128)
        rep_m = bound_main(p, [hints[0][:2]], 128)
        assert abs(rep.rhs.mid - rep_m.rhs.mid) / rep_m.rhs.mid < 1e-6

    def test_exponent_arithmetic(self):
        # k = 2, #E = 1, Delta_2 = 1 makes the edge factor exactly 1
        p = _clustered_instance(Fraction(1, 1000))
        roots, hints = _hints_for(p, None)
        crafted = [(hints[0][0], hints[0][1], hints[0][2]), (hints[1][0], hints[1][1], 1.0)]
        rep = bound_remark_pairs(p, [crafted[0][:2]], crafted, 128)
        assert abs(rep.components["edge_factor"].mid - 1) < 1e-20

    def test_full_pipeline_improvement(self):
        for eps in (Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**6)):
            p = _clustered_instance(eps)
            roots, hints = _hints_for(p, None)
            edge = [hints[0][:2]]
            rep = bound_remark_pairs(p, edge, hints, 128)
            rep_m = bound_main(p, edge, 128)
            assert rep.rhs.mid >= rep_m.rhs.mid
            assert rep.holds

    def test_preconditions(self):
        p = _clustered_instance(Fraction(1, 100))
        roots, hints = _hints_for(p, None)
        with pytest.raises(PreconditionError, match="#E"):
            bound_remark_pairs(p, [h[:2] for h in hints], hints, 128)
        small = parse_polynomial("x^2-1")
        with pytest.raises(PreconditionError, match="r > 2"):
            bound_remark_pairs(small, [(0, 1)], [(0, 1, 0.5)], 128)

    def test_invalid_hint_rejected(self):
        p = _clustered_instance(Fraction(1, 100))
        roots = find_roots(p, 128)
        # the far pair cannot satisfy any positive Delta certificate
        far = max(
            ((float(mid_distance(roots.entries[i].value, roots.entries[j].value)), i, j) for j in range(roots.r) for i in range(j))
        )
        with pytest.raises(ValidationError, match="violates"):
            ClusterHint.build([(far[1], far[2], 0.5)], roots)

    def test_overlap_with_edges_allowed(self):
        p = _clustered_instance(Fraction(1, 100))
        roots, hints = _hints_for(p, None)
        # the hinted pair coincides with the single edge: still valid
        rep = bound_remark_pairs(p, [hints[0][:2]], hints, 128)
        assert rep.holds


class TestBoundSepProduct:
    def test_fixture_both_roots(self):
        rep = bound_sep_product(parse_polynomial("x^2-1"), [0, 1], 128)
        assert rep.holds
        assert abs(rep.lhs.mid - 4) < 1e-28
        assert abs(rep.rhs.mid - 0.75) < 1e-28
        assert rep.extra["e0"] == [[0, 1]] and rep.extra["e1"] == [[0, 1]]

    def test_single_vertex(self):
        rep = bound_sep_product(parse_polynomial("x^2-1"), [0], 128)
        assert rep.holds
        assert abs(rep.lhs.mid - 2) < 1e-28
        assert rep.extra["e0"] == [[0, 1]] and rep.extra["e1"] == []

    def test_empty_subset(self):
        rep = bound_sep_product(parse_polynomial("x^2-1"), [], 128)
        assert rep.holds
        assert rep.lhs.mid == 1 and rep.lhs.rad == 0

    def test_split_identity_random(self):
        rng = random.Random(12)
        for _ in range(12):
            p, _ = _random_instance(rng)
            roots = find_roots(p, 128)
            if roots.r < 2:
                continue
            subset = [j for j in range(roots.r) if rng.random() < 0.6]
            rep = bound_sep_product(p, subset, 128, roots=roots)
            assert len(rep.extra["e0"]) + len(rep.extra["e1"]) == len(subset)
            assert rep.holds

    def test_single_root_rejected(self):
        with pytest.raises(PreconditionError):
            bound_sep_product(parse_polynomial("(x-1)^3"), [0], 128)


class TestVerify:
    def test_main_margin(self):
        rep = verify(parse_polynomial("x^2-1"), [(0, 1)], "main")
        assert rep.holds
        assert abs(rep.margin - (2 - math.sqrt(3) / 2)) < 1e-12

    def test_classical_same_margin(self):
        rep = verify(parse_polynomial("x^2-1"), [(0, 1)], "classical")
        assert rep.holds
        assert abs(rep.margin - (2 - math.sqrt(3) / 2)) < 1e-12

    def test_degenerate_cube(self):
        rep = verify(parse_polynomial("(x-1)^3"), [], "main")
        assert rep.holds

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            verify(parse_polynomial("x^2-1"), [(0, 1)], "nope")

    def test_precision_must_be_a_positive_int(self):
        # a precision of 0 never doubles: the ladder would never reach the
        # ceiling
        p = parse_polynomial("x^2 - 1")
        for bad in (0, -64, 64.0, "64"):
            with pytest.raises(ValidationError):
                verify(p, [], precision=bad, ceiling=128)

    def test_ceiling_must_be_a_positive_int(self):
        # x^2 - 1 with no edges sits on the boundary and is inconclusive at
        # every rung; an infinite or NaN ceiling is never reached, so the
        # ladder would double the precision for good
        p = parse_polynomial("x^2 - 1")
        for bad in (float("inf"), float("nan"), 1.5, 512.0, 0, -512, "512"):
            with pytest.raises(ValidationError, match="ceiling"):
                verify(p, [], precision=64, ceiling=bad)

    def test_escalation_resolves_tight_instance(self):
        # the pair 1, 1 + 2^-1500 is indistinguishable at 64 bits; only
        # escalation separates it
        rep = verify(_far_cluster(), [(1, 2)], "main", precision=64, ceiling=512)
        assert rep.holds
        assert rep.precision_bits == 128

    def test_edge_on_the_tight_pair_holds_at_the_first_rung(self):
        # the edge (0, 1) replaces one of the two near-equal rows by their
        # divided difference, so W_1 is well conditioned, and det W comes from
        # the root differences rather than from LU of the Vandermonde matrix
        eps = Fraction(1, 10**30)
        p = ExactPoly.from_roots(
            [GaussianRational.of(1), GaussianRational.of(1 + eps), GaussianRational.of(3)]
        )
        rep = verify(p, [(0, 1)], "main", precision=64, ceiling=512)
        assert rep.holds
        assert rep.precision_bits == 64

    def test_degree_32_real_roots_on_a_path(self):
        # 32 roots k/12 in [-40, 40], 5/2 apart: Aberth started on one circle
        # of the Cauchy radius did not converge at this degree
        p = ExactPoly.from_roots(
            [GaussianRational.of(Fraction(-465 + 30 * j, 12)) for j in range(32)]
        )
        roots = find_roots(p, 128)
        assert roots.r == 32 and roots.precision_bits == 128
        rep = verify(p, [(j, j + 1) for j in range(31)], "main", precision=128, roots=roots)
        assert rep.holds
        assert rep.precision_bits == 128

    def test_root_set_spares_the_first_rung(self, monkeypatch):
        import rootsep.roots

        # _tight_pair's roots are exact at 64 bits and its 64-bit rung is
        # inconclusive, so its root set is carried to 128 bits as it is
        p = _tight_pair()
        expected = verify(p, [], "main", precision=64, ceiling=256)
        assert expected.precision_bits == 128
        roots = find_roots(p, 64)
        solved = []
        real_solve = rootsep.roots._find_roots_exact

        def counting_solve(poly, bits, warm=None):
            solved.append(bits)
            return real_solve(poly, bits, warm)

        monkeypatch.setattr(rootsep.roots, "_find_roots_exact", counting_solve)
        rep = verify(p, [], "main", precision=64, ceiling=256, roots=roots)
        assert _exact_fields(rep) == _exact_fields(expected)
        carried = refine(p, roots, 128)
        assert _exact_fields(rep) == _exact_fields(bound_main(p, [], 128, roots=carried))
        assert solved == []
        # a root set at another precision is carried to it, not solved again
        again = verify(p, [], "main", precision=128, ceiling=256, roots=roots)
        assert solved == []
        assert _exact_fields(again) == _exact_fields(rep)

    def test_one_square_free_decomposition_per_verify(self, monkeypatch):
        import rootsep.roots

        # the instance of test_rung_limited_by_disk_width_gets_tighter_disks:
        # the 64-bit rung is inconclusive, and the 128-bit rung solves again
        # from its root set, which brings the decomposition along
        p = parse_polynomial(f"x^2 - {2**90 + 1}/{2**90}")
        decomposed, solved = [], []
        real_decomposition = rootsep.roots.square_free_decomposition
        real_solve = rootsep.roots._find_roots_exact

        def decomposition_spy(poly):
            decomposed.append(poly)
            return real_decomposition(poly)

        def counting_solve(poly, bits, warm=None):
            solved.append(bits)
            return real_solve(poly, bits, warm)

        monkeypatch.setattr(rootsep.roots, "square_free_decomposition", decomposition_spy)
        monkeypatch.setattr(rootsep.roots, "_find_roots_exact", counting_solve)
        rep = verify(p, [], "main", precision=64, ceiling=1024)
        assert rep.holds and rep.precision_bits == 128
        assert solved == [64, 128]
        assert decomposed == [p]

    def test_rung_limited_by_disk_width_gets_tighter_disks(self, monkeypatch):
        import rootsep.bounds
        import rootsep.roots

        # x^2 - (1 + 2^-90), no edges: LHS = 1 and RHS = (1 + 2^-90)^(-1/2),
        # a margin of about 2^-91 that the 64-bit disks (radius about 2^-77)
        # cannot resolve, though they certify without any escalation
        p = parse_polynomial(f"x^2 - {2**90 + 1}/{2**90}")
        work = []
        real_solve = rootsep.roots._solve_factor

        def spy(factor, p_bits, work_bits, warm=None):
            work.append(work_bits)
            return real_solve(factor, p_bits, work_bits, warm)

        monkeypatch.setattr(rootsep.roots, "_solve_factor", spy)
        roots = find_roots(p, 64)
        assert work == [88]
        assert bound_main(p, [], 64, roots=roots).verdict == "inconclusive"
        rep = verify(p, [], "main", precision=64, ceiling=1024, roots=roots)
        assert rep.holds and rep.precision_bits == 128
        # a fresh solve on every rung resolves at the same rung
        monkeypatch.setattr(
            rootsep.bounds, "refine", lambda p, roots, bits: rootsep.roots.find_roots(p, bits)
        )
        fresh = verify(p, [], "main", precision=64, ceiling=1024, roots=roots)
        assert fresh.holds and fresh.precision_bits == rep.precision_bits

    def test_ladder_stops_at_the_ceiling(self):
        # LHS = RHS = 1: inconclusive on every rung 96, 192, 384, 768, 1024
        rep = verify(parse_polynomial("x^2-1"), [], "main", precision=96, ceiling=1024)
        assert rep.verdict == "inconclusive"
        assert rep.precision_bits == 1024

    def test_remark_variants_match_the_direct_call(self):
        # both are inconclusive at 64 bits, so the ladder escalates:
        # remark_degree on _tight_pair's margin, whose 64-bit root set the
        # ladder carries up, and remark_pairs on _far_cluster's pair, which
        # 64 bits cannot separate
        pair, cluster = _tight_pair(), _far_cluster()
        hints = [(0, 1, 1.0)]
        for variant, p, direct in (
            ("remark_degree", pair, lambda bits, roots: bound_remark_degree(pair, [], bits, roots)),
            ("remark_pairs", cluster, lambda bits, roots: bound_remark_pairs(cluster, [], hints, bits, roots)),
        ):
            rep = verify(p, [], variant, precision=64, ceiling=1024, hints=hints)
            assert rep.holds and rep.precision_bits > 64
            # the report is the direct call's at the rung that holds
            assert _exact_fields(rep) == _exact_fields(direct(rep.precision_bits, rep.roots))
            assert direct(rep.precision_bits, None).verdict == rep.verdict

    def test_missing_variant_inputs_rejected(self):
        p = _clustered_instance(Fraction(1, 100))
        with pytest.raises(ValidationError, match="hint pairs"):
            verify(p, [(0, 1)], "remark_pairs")
        with pytest.raises(ValidationError, match="root subset"):
            verify(p, None, "sep_product")

    def test_every_rung_failing_is_inconclusive_at_the_ceiling(self):
        # a pair 2^-3000 apart inside one square-free factor defeats every
        # internal escalation of find_roots at these precisions
        p = ExactPoly.from_roots(
            [GaussianRational.of(1), GaussianRational.of(1 + Fraction(1, 2**3000)), GaussianRational.of(3)]
        )
        rep = verify(p, [], "main", precision=64, ceiling=128)
        assert rep.verdict == "inconclusive"
        assert rep.precision_bits == 128
        assert rep.components == {} and rep.roots is None
        assert "indistinguishable roots at precision 128" in rep.extra["error"]


def _exact_fields(rep):
    """Everything a report carries, with every ball as exact mpf strings."""
    balls = {"lhs": rep.lhs, "rhs": rep.rhs, **rep.components}
    return (
        rep.to_json(),
        rep.precision_bits,
        {k: (repr(b.mid), repr(b.rad)) for k, b in balls.items()},
    )


class TestSoundnessMini:
    def test_never_violated(self):
        rng = random.Random(777)
        for _ in range(30):
            p, edges = _random_instance(rng, force_mult=True)
            rep = bound_main(p, edges, 128)
            assert rep.verdict in ("holds", "inconclusive")
            if not rep.holds:
                resolved = verify(p, edges, "main", precision=128, ceiling=512)
                assert resolved.holds
