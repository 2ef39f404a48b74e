"""Divided differences: the three routes must agree; exact annihilation."""
import random

import mpmath
import pytest

from rootsep import ValidationError
from rootsep.balls import CBall, working_precision

from oracles import (
    NodeList,
    divdiff_explicit,
    divdiff_monomial,
    divdiff_recursive,
    divdiff_vector,
    power_basis_row,
)


class TestRecursive:
    def test_square_two_nodes(self):
        with working_precision(128):
            assert divdiff_recursive([1, 4], [1, 2]).mid == 3  # (1-4)/(1-2)

    def test_cube_two_nodes(self):
        with working_precision(128):
            assert divdiff_recursive([1, 8], [1, 2]).mid == 7

    def test_single_node(self):
        with working_precision(128):
            assert divdiff_recursive([42], [5]).mid == 42

    def test_duplicate_nodes_rejected(self):
        with working_precision(128):
            with pytest.raises(ValidationError):
                divdiff_recursive([1, 2], [3, 3])

    def test_near_duplicate_balls_rejected(self):
        with working_precision(128):
            a = CBall(1, 0.25)
            b = CBall(1.25, 0.25)
            with pytest.raises(ValidationError):
                divdiff_recursive([1, 2], [a, b])


class TestExplicit:
    def test_constant(self):
        with working_precision(128):
            v = divdiff_explicit([1, 1], [1, 3])
            assert abs(v.mid) < 1e-35

    def test_identity(self):
        with working_precision(128):
            assert abs(divdiff_explicit([1, 3], [1, 3]).mid - 1) < 1e-35

    def test_matches_recursive(self):
        with working_precision(128):
            a = divdiff_explicit([1, 4], [1, 2])
            b = divdiff_recursive([1, 4], [1, 2])
            assert abs(a.mid - b.mid) < 1e-35


class TestMonomial:
    def test_annihilation_three_nodes(self):
        with working_precision(128):
            v = divdiff_monomial(1, [1, 2, 3])
            assert v.mid == 0 and v.rad == 0

    def test_degree_two(self):
        with working_precision(128):
            assert divdiff_monomial(2, [1, 2]).mid == 3  # v1 + v2

    def test_degree_three(self):
        with working_precision(128):
            assert divdiff_monomial(3, [1, 2]).mid == 7  # 1 + 2 + 4


class TestVector:
    def test_two_nodes(self):
        with working_precision(128):
            out = divdiff_vector([[1, 1], [1, 3]], [1, 3])
            assert abs(out[0].mid) < 1e-35
            assert abs(out[1].mid - 1) < 1e-35

    def test_single_node(self):
        with working_precision(128):
            out = divdiff_vector([[1, 2, 4]], [2])
            assert [v.mid for v in out] == [1, 2, 4]

    def test_three_nodes_power_basis(self):
        with working_precision(128):
            rows = [[1, z, z * z] for z in (0, 1, 2)]
            out = divdiff_vector(rows, [0, 1, 2])
            assert abs(out[0].mid) < 1e-35
            assert abs(out[1].mid) < 1e-35
            assert abs(out[2].mid - 1) < 1e-35

    def test_ragged_rejected(self):
        with working_precision(128):
            with pytest.raises(ValidationError):
                divdiff_vector([[1, 2], [1]], [0, 1])


def _random_nodes(rng, n):
    nodes = set()
    while len(nodes) < n:
        nodes.add(complex(rng.randint(-6, 6), rng.randint(-6, 6)))
    return list(nodes)


def test_three_way_equality_random():
    rng = random.Random(404)
    with working_precision(128):
        for _ in range(120):
            n = rng.randint(1, 8)
            p = rng.randint(0, 10)
            nodes = _random_nodes(rng, n)
            values = [z**p for z in nodes]
            rec = divdiff_recursive(values, nodes)
            exp = divdiff_explicit(values, nodes)
            mono = divdiff_monomial(p, nodes)
            scale = max(abs(rec.mid), abs(mono.mid), 1e-20)
            assert abs(rec.mid - exp.mid) / scale < 1e-12
            assert abs(rec.mid - mono.mid) / scale < 1e-12


def test_symmetry_under_permutation():
    rng = random.Random(17)
    with working_precision(128):
        for _ in range(40):
            n = rng.randint(2, 6)
            nodes = _random_nodes(rng, n)
            values = [z**3 - 2 * z for z in nodes]
            base = divdiff_explicit(values, nodes)
            pairs = list(zip(values, nodes))
            rng.shuffle(pairs)
            sh_values, sh_nodes = zip(*pairs)
            permuted = divdiff_explicit(list(sh_values), list(sh_nodes))
            assert abs(base.mid - permuted.mid) <= base.rad + permuted.rad + 1e-25


def test_annihilation_exact_vs_recursive():
    rng = random.Random(99)
    with working_precision(128):
        for _ in range(30):
            p = rng.randint(0, 6)
            n = p + 2
            nodes = _random_nodes(rng, n)
            values = [z**p for z in nodes]
            mono = divdiff_monomial(p, nodes)
            assert mono.mid == 0 and mono.rad == 0
            rec = divdiff_recursive(values, nodes)
            assert abs(rec.mid) <= rec.rad


def test_power_basis_row_is_the_monomial_route_bit_for_bit():
    # one pass of the recurrence must repeat each component's own pass
    rng = random.Random(5)
    with working_precision(128):
        for _ in range(40):
            n = rng.randint(1, 6)
            r = rng.randint(0, 10)
            nodes = [
                CBall(mpmath.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)), mpmath.ldexp(1, -100))
                for _ in range(n)
            ]
            row = power_basis_row(r, nodes)
            assert len(row) == r
            for p, b in enumerate(row):
                ref = divdiff_monomial(p, nodes)
                assert (repr(b.mid), repr(b.rad)) == (repr(ref.mid), repr(ref.rad))


def test_nodelist_validates():
    with working_precision(128):
        nl = NodeList.of([1, 2, 3])
        assert len(nl) == 3
        with pytest.raises(ValidationError):
            NodeList.of([1, 1])
