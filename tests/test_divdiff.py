"""Divided differences: the three routes agree exactly; exact annihilation."""
import math
import random
from fractions import Fraction

import mpmath
import pytest

from rootsep import GaussianRational, ValidationError
from rootsep.balls import CBall

from oracles import (
    NodeList,
    divdiff_explicit,
    divdiff_monomial,
    divdiff_recursive,
    divdiff_vector,
    power_basis_row,
)


def _g(x) -> GaussianRational:
    return GaussianRational(Fraction(x.real), Fraction(x.imag))


class TestRecursive:
    def test_square_two_nodes(self):
        assert divdiff_recursive([1, 4], [1, 2]) == 3  # (1-4)/(1-2)

    def test_cube_two_nodes(self):
        assert divdiff_recursive([1, 8], [1, 2]) == 7

    def test_single_node(self):
        assert divdiff_recursive([42], [5]) == 42

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValidationError):
            divdiff_recursive([1, 2], [3, 3])

    def test_near_duplicate_balls_rejected(self):
        # the disks touch, so no exact node can be read off either ball
        quarter, zero = mpmath.mpf(0.25), mpmath.mpf(0)
        a = CBall(mpmath.mpc(1), quarter)
        b = CBall(mpmath.mpc(1.25), quarter)
        with pytest.raises(ValidationError):
            divdiff_recursive([1, 2], [a, b])
        # the midpoints alone are exact, distinct nodes
        assert divdiff_recursive([1, 2], [CBall(mpmath.mpc(1), zero), CBall(mpmath.mpc(1.25), zero)]) == 4


class TestExplicit:
    def test_constant(self):
        assert divdiff_explicit([1, 1], [1, 3]).is_zero

    def test_identity(self):
        assert divdiff_explicit([1, 3], [1, 3]) == 1

    def test_matches_recursive(self):
        assert divdiff_explicit([1, 4], [1, 2]) == divdiff_recursive([1, 4], [1, 2])


class TestMonomial:
    def test_annihilation_three_nodes(self):
        assert divdiff_monomial(1, [1, 2, 3]).is_zero

    def test_degree_two(self):
        assert divdiff_monomial(2, [1, 2]) == 3  # v1 + v2

    def test_degree_three(self):
        assert divdiff_monomial(3, [1, 2]) == 7  # 1 + 2 + 4


class TestVector:
    def test_two_nodes(self):
        assert divdiff_vector([[1, 1], [1, 3]], [1, 3]) == [0, 1]

    def test_single_node(self):
        assert divdiff_vector([[1, 2, 4]], [2]) == [1, 2, 4]

    def test_three_nodes_power_basis(self):
        rows = [[1, z, z * z] for z in (0, 1, 2)]
        assert divdiff_vector(rows, [0, 1, 2]) == [0, 0, 1]

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError):
            divdiff_vector([[1, 2], [1]], [0, 1])


def _random_nodes(rng, n):
    nodes = set()
    while len(nodes) < n:
        nodes.add(GaussianRational.of(rng.randint(-6, 6), rng.randint(-6, 6)))
    return list(nodes)


def _power(z, p):
    return math.prod([z] * p, start=GaussianRational.of(1))


def test_three_way_equality_random():
    rng = random.Random(404)
    for _ in range(120):
        n = rng.randint(1, 8)
        p = rng.randint(0, 10)
        nodes = _random_nodes(rng, n)
        values = [_power(z, p) for z in nodes]
        rec = divdiff_recursive(values, nodes)
        assert rec == divdiff_explicit(values, nodes) == divdiff_monomial(p, nodes)


def test_symmetry_under_permutation():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 6)
        nodes = _random_nodes(rng, n)
        values = [_power(z, 3) - 2 * z for z in nodes]
        base = divdiff_explicit(values, nodes)
        pairs = list(zip(values, nodes))
        rng.shuffle(pairs)
        sh_values, sh_nodes = zip(*pairs)
        assert divdiff_explicit(list(sh_values), list(sh_nodes)) == base


def test_annihilation_exact_vs_recursive():
    rng = random.Random(99)
    for _ in range(30):
        p = rng.randint(0, 6)
        n = p + 2
        nodes = _random_nodes(rng, n)
        values = [_power(z, p) for z in nodes]
        assert divdiff_monomial(p, nodes).is_zero
        assert divdiff_recursive(values, nodes).is_zero


def test_power_basis_row_is_the_monomial_route_bit_for_bit():
    # one pass of the recurrence must repeat each component's own pass
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        r = rng.randint(0, 10)
        nodes = [_g(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for _ in range(n)]
        row = power_basis_row(r, nodes)
        assert row == [divdiff_monomial(p, nodes) for p in range(r)]


def test_nodelist_validates():
    nl = NodeList.of([1, 2, 3])
    assert len(nl) == 3
    with pytest.raises(ValidationError):
        NodeList.of([1, 1])
