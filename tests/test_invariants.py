"""Mahler measure, |Disc| and |sDisc|: examples, the subresultant chain
against its Sylvester-determinant definition, and the two |sDisc| routes."""
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from rootsep import (
    ExactPoly,
    GaussianRational,
    compute_invariants,
    find_roots,
    mahler_measure,
    parse_polynomial,
    sdisc_abs_from_roots,
)
import rootsep.cli
import rootsep.poly
from rootsep.balls import CBall, RBall, working_precision
from rootsep.invariants import _abs_ball
from rootsep.poly import (
    _chain_heads,
    _derivative_coefficients,
    _subresultant_chain,
    square_free_decomposition,
)
from rootsep.roots import RootEntry, RootSet

from oracles import JensenUnavailableError, mahler_measure_jensen


class TestMahler:
    def test_unit_roots(self):
        roots = find_roots(parse_polynomial("x^2 - 1"), 128)
        with working_precision(128):
            m = mahler_measure(roots)
        assert abs(m.mid - 1) < 1e-30

    def test_leading_coefficient(self):
        roots = find_roots(parse_polynomial("2*x^2 - 2"), 128)
        with working_precision(128):
            m = mahler_measure(roots)
        assert abs(m.mid - 2) < 1e-30

    def test_an_exact_leading_coefficient_stays_exact(self):
        # 3/2 is dyadic and the roots 1 and -2 exact, so M = 3 exactly
        roots = find_roots(parse_polynomial("3/2*(x-1)*(x+2)"), 128)
        with working_precision(128):
            m = mahler_measure(roots)
        assert m.mid == 3 and m.rad == 0

    def test_mixed_radii(self):
        # (x-2)(x-1/2): max(1,2) * max(1,1/2) = 2
        roots = find_roots(parse_polynomial("(x-2)*(x-1/2)"), 128)
        with working_precision(128):
            m = mahler_measure(roots)
        assert abs(m.mid - 2) < 1e-30


class TestJensen:
    def test_single_root_at_origin(self):
        value, gap = mahler_measure_jensen(parse_polynomial("x"), 64)
        assert abs(value - 1) < 1e-12
        assert gap < 1e-12

    def test_linear(self):
        value, _ = mahler_measure_jensen(parse_polynomial("2*x - 4"), 128)
        assert abs(value - 4) < 1e-9

    def test_imaginary_pair(self):
        value, _ = mahler_measure_jensen(parse_polynomial("x^2 + 4"), 128)
        assert abs(value - 4) < 1e-9

    def test_near_circle_rejected(self):
        with pytest.raises(JensenUnavailableError):
            mahler_measure_jensen(parse_polynomial("x^2 - 1"), 64)

    def test_two_route_agreement(self):
        rng = random.Random(7)
        for _ in range(12):
            # roots kept well away from the unit circle so the quadrature converges
            n = rng.randint(1, 4)
            roots = []
            while len(roots) < n:
                q = GaussianRational.of(
                    Fraction(rng.choice([-7, -5, -4, -3, 3, 4, 5, 7]), rng.choice([1, 10]))
                )
                if q not in roots and abs(abs(float(q.re)) - 1) > 0.15:
                    roots.append(q)
            p = ExactPoly.from_roots(roots, lead=rng.choice([1, 2]))
            rs = find_roots(p, 128)
            with working_precision(128):
                product_route = mahler_measure(rs)
            nodes = 256
            while True:
                value, gap = mahler_measure_jensen(p, nodes, roots=rs)
                if gap < 1e-8 * abs(value) or nodes >= 1 << 14:
                    break
                nodes *= 2
            assert abs(value - product_route.mid) / product_route.mid < 1e-6


def _psc(p):
    """psc_0 .. psc_{d-1} of (P, P') by the pipeline's route: the heads of
    the chain that the square-free decomposition holds, rescaled."""
    return _derivative_coefficients(p, square_free_decomposition(p).heads)


def _exact(ball, value):
    return ball.mid == value and ball.rad == 0


class TestDiscriminant:
    def test_quadratics(self):
        # only |Disc| is reported: Disc(x^2 + x + 1) is -3
        assert _exact(compute_invariants(parse_polynomial("x^2 - 1")).disc_abs, 4)
        assert _exact(compute_invariants(parse_polynomial("x^2 + x + 1")).disc_abs, 3)

    def test_repeated_root(self):
        assert _exact(compute_invariants(parse_polynomial("(x-1)^2")).disc_abs, 0)

    def test_degree_one_rejected(self):
        # a linear P has no discriminant, and the bundle reports none
        bundle = compute_invariants(parse_polynomial("x - 1"))
        assert bundle.disc_abs is None and bundle.to_json()["disc_abs"] is None

    def test_zero_iff_multiple_root(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 4)
            roots = []
            while len(roots) < n:
                q = GaussianRational.of(Fraction(rng.randint(-5, 5), rng.randint(1, 2)))
                if q not in roots:
                    roots.append(q)
            mults = [rng.randint(1, 2) for _ in roots]
            p = ExactPoly.from_roots(roots, mults)
            disc = compute_invariants(p).disc_abs
            assert _exact(disc, 0) == any(m >= 2 for m in mults)


class TestSubresultantRoute:
    def test_square_free_equals_disc(self):
        b = compute_invariants(parse_polynomial("x^2 - 1"))
        assert b.sdisc_index == 0 and _exact(b.sdisc_abs, 4) and _exact(b.disc_abs, 4)

    def test_multiple_root_instance(self):
        b = compute_invariants(parse_polynomial("(x-1)^2*x"))
        assert b.sdisc_index == 1 and _exact(b.sdisc_abs, 2)

    def test_r_equal_one_convention(self):
        b = compute_invariants(parse_polynomial("x^2 - 2*x + 1"))
        assert b.sdisc_index == 1 and _exact(b.sdisc_abs, 1)
        rb = sdisc_abs_from_roots(find_roots(parse_polynomial("(x-1)^3"), 128))
        assert rb.mid == 1 and rb.rad == 0

    def test_exact_values(self):
        p = parse_polynomial("(x-1)^2*x")
        psc = _psc(p)
        assert psc[0].is_zero and psc[1] / p.leading == GaussianRational.of(-2)
        assert compute_invariants(p).sdisc_index == 1
        assert _psc(parse_polynomial("x^2 - 1"))[0].norm() == 16

    def test_resultant_via_index_zero(self):
        assert _psc(parse_polynomial("x^2 - 1"))[0] == GaussianRational.of(-4)


class TestRootsRoute:
    def test_quadratic(self):
        rb = sdisc_abs_from_roots(find_roots(parse_polynomial("x^2 - 1"), 128))
        assert abs(rb.mid - 4) < 1e-30

    def test_multiplicity(self):
        rb = sdisc_abs_from_roots(find_roots(parse_polynomial("(x-1)^2*x"), 128))
        assert abs(rb.mid - 2) < 1e-30


def _forced_multiplicity_poly(rng):
    n = rng.randint(1, 4)
    roots = []
    while len(roots) < n:
        q = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2)) if rng.random() < 0.35 else Fraction(0),
        )
        if q not in roots:
            roots.append(q)
    mults = [rng.randint(1, 3) for _ in roots]
    if all(m == 1 for m in mults):
        mults[0] = 2
    lead = rng.choice([GaussianRational.of(1), GaussianRational.of(2),
                       GaussianRational.of(-1), GaussianRational.of(0, 1)])
    return ExactPoly.from_roots(roots, mults, lead)


def test_two_route_agreement_random():
    rng = random.Random(2024)
    for _ in range(40):
        p = _forced_multiplicity_poly(rng)
        roots = find_roots(p, 256)
        with working_precision(256):
            via_roots = sdisc_abs_from_roots(roots)
            via_subres = compute_invariants(p, 256, roots=roots).sdisc_abs
            assert via_subres.overlaps(via_roots)


def test_scaling_covariance():
    rng = random.Random(81)
    for _ in range(15):
        p = _forced_multiplicity_poly(rng)
        c = GaussianRational.of(Fraction(rng.choice([2, 3, -2]), rng.choice([1, 5])))
        scaled = p.scale(c)
        r1 = find_roots(p, 128)
        r2 = find_roots(scaled, 128)
        with working_precision(128):
            m1, m2 = mahler_measure(r1), mahler_measure(r2)
            s1, s2 = sdisc_abs_from_roots(r1), sdisc_abs_from_roots(r2)
            cabs = RBall.exact(abs(c.re))  # scale factors in the test are real
            r = r1.r
            assert abs(m2.mid - (cabs * m1).mid) / m2.mid < 1e-25
            if s1.mid > 0:
                expected = (cabs.powi(2 * (r - 1)) * s1).mid
                assert abs(s2.mid - expected) / expected < 1e-20


def test_bundle_invariants():
    rng = random.Random(8)
    for _ in range(10):
        p = _forced_multiplicity_poly(rng)
        roots = find_roots(p, 128)
        bundle = compute_invariants(p, 128, roots=roots)
        with working_precision(128):
            lead_abs = _abs_ball(roots.leading_coeff).mid
            if lead_abs >= 1:
                assert bundle.mahler.hi >= lead_abs - 1e-25
            assert bundle.sdisc_abs.mid > 0
            assert bundle.sdisc_index == p.degree - roots.r


# ---------------------------------------------------------------------------
# the subresultant chain against its definition
# ---------------------------------------------------------------------------


def _det_by_elimination(rows):
    """Determinant by plain Gaussian elimination over the Gaussian rationals."""
    m = [list(row) for row in rows]
    n = len(m)
    det = GaussianRational.of(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if pivot is None:
            return GaussianRational.of(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] = m[i][j] - f * m[k][j]
    return det


def _psc_by_definition(a, b, j):
    """Determinant of the Sylvester submatrix: rows X^k*a over X^k*b, column
    exponents deg a + deg b - j - 1 down to j."""
    p, q = a.degree, b.degree
    cols = range(p + q - j - 1, j - 1, -1)
    rows = [[a.coeff(e - k) for e in cols] for k in range(q - j - 1, -1, -1)]
    rows += [[b.coeff(e - k) for e in cols] for k in range(p - j - 1, -1, -1)]
    return _det_by_elimination(rows)


def _gaussian_roots(rng, n, denominators=(1, 2, 3)):
    roots = []
    while len(roots) < n:
        q = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.choice(denominators)),
            Fraction(rng.randint(-6, 6), rng.choice(denominators)),
        )
        if q not in roots:
            roots.append(q)
    return roots


def _assert_psc_by_definition(p):
    dp = p.derivative()
    psc = _psc(p)
    assert len(psc) == dp.degree + 1
    for j, v in enumerate(psc):
        assert v == _psc_by_definition(p, dp, j)


def test_chain_matches_sylvester_determinants():
    # psc(P, P') as the pipeline reads it: the heads of the chain of (monic P,
    # P') that Yun or the first read built, rescaled by powers of lc
    rng = random.Random(1606)
    for _ in range(30):
        d = rng.randint(1, 7)
        roots = _gaussian_roots(rng, rng.randint(1, d))
        mults = [1] * len(roots)
        for _ in range(d - len(roots)):
            mults[rng.randrange(len(roots))] += 1
        lead = GaussianRational.of(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2))
        _assert_psc_by_definition(ExactPoly.from_roots(roots, mults, lead))


def test_chain_matches_sylvester_determinants_on_gapped_pairs():
    # sparse pairs of unrelated polynomials give defective chains, where some
    # S_j has degree below j and several principal coefficients vanish
    rng = random.Random(2000)
    for _ in range(30):
        p_deg = rng.randint(2, 7)
        q_deg = rng.randint(0, p_deg - 1)

        def sparse(n):
            coeffs = [
                GaussianRational.of(rng.randint(-3, 3), rng.randint(-1, 1)) if rng.random() < 0.4 else 0
                for _ in range(n)
            ]
            return coeffs + [rng.randint(1, 3)]

        a = ExactPoly.from_coeffs(sparse(p_deg))
        b = ExactPoly.from_coeffs(sparse(q_deg))
        assert a.den == b.den == 1  # the chain runs on these very integers
        heads = _chain_heads(_subresultant_chain(a.nums, b.nums), q_deg)
        for j in range(q_deg + 1):
            assert GaussianRational.of(*heads[j]) == _psc_by_definition(a, b, j)


def test_degree_16_gaussian_multiplicities():
    rng = random.Random(16)
    roots = _gaussian_roots(rng, 6, denominators=(3, 5, 7, 8))
    mults = [1, 1, 2, 3, 4, 5]
    p = ExactPoly.from_roots(roots, mults, GaussianRational.of(2, 1))
    d, r = p.degree, len(roots)
    assert d == 16

    decomposition = square_free_decomposition(p)
    by_mult = {m: f for f, m in decomposition}
    for m in set(mults):
        expected = ExactPoly.from_roots([z for z, k in zip(roots, mults) if k == m])
        assert by_mult.pop(m) == expected
    assert not by_mult

    psc = _derivative_coefficients(p, decomposition.heads)
    assert next(j for j, v in enumerate(psc) if not v.is_zero) == d - r

    # every chain coefficient is a minor of the Sylvester matrix of the
    # integer-scaled (P, P'), so Hadamard's bound on that matrix caps its size
    ca, cb = p.nums, p.derivative().nums

    def norm_sq(coeffs):
        return sum(re * re + im * im for re, im in coeffs)

    bound_bits = ((d - 1) * norm_sq(ca).bit_length() + d * norm_sq(cb).bit_length()) // 2 + 1
    chain = _subresultant_chain(ca, cb)
    assert min(chain) == d - r
    for poly in chain.values():
        for re, im in poly:
            assert max(abs(re), abs(im)).bit_length() <= bound_bits


class TestOneChain:
    def test_yun_chain_gives_the_principal_coefficients(self):
        # rescaling the (monic P, P') chain by powers of lc gives psc of (P, P')
        rng = random.Random(7)
        for _ in range(25):
            p = _forced_multiplicity_poly(rng)
            if rng.random() < 0.5:
                p = p.scale(GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                                             Fraction(rng.randint(-3, 3), 7)))
            _assert_psc_by_definition(p)

    def test_invariants_command_builds_three_chains(self, monkeypatch, capsys):
        # Yun builds three, and compute_invariants reads the first of them
        calls = []
        real_chain = rootsep.poly._subresultant_chain

        def chain_spy(a, b):
            calls.append(len(a) - 1)
            return real_chain(a, b)

        monkeypatch.setattr(rootsep.poly, "_subresultant_chain", chain_spy)
        assert rootsep.cli.main(["invariants", "--poly", "(x-1)^2*(x+2)^3*(x-i)"]) == 0
        assert len(calls) == 3
        assert '"sdisc_index": 3' in capsys.readouterr().out

    def test_subdiscriminant_reads_the_decomposition_chain(self, monkeypatch):
        # Yun's three chains, the first of which holds psc(P, P'): no fourth
        p = parse_polynomial("(x-1)^2*(x+2)^3*(x-i)")
        sdisc = _psc_by_definition(p, p.derivative(), 3) / p.leading
        calls = []
        real_chain = rootsep.poly._subresultant_chain

        def chain_spy(a, b):
            calls.append(len(a) - 1)
            return real_chain(a, b)

        monkeypatch.setattr(rootsep.poly, "_subresultant_chain", chain_spy)
        bundle = compute_invariants(p)
        assert len(calls) == 3
        assert bundle.sdisc_index == 3
        with working_precision(128):
            assert (bundle.sdisc_abs * bundle.sdisc_abs).overlaps(RBall.exact(sdisc.norm()))


def _mpf(x: Fraction):
    """x as an mpf, exactly (x is dyadic)."""
    return mpmath.mp.make_mpf(from_man_exp(x.numerator, -(x.denominator.bit_length() - 1)))


def _q(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


# dyadic midpoint parts, 0 among them; radii 0, plain, near 1 and near
# 2^-1100; points at the centre and on the rim of each disk
_parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda m, s: m / Fraction(2) ** s, st.integers(-(2**40), 2**40), st.integers(-4, 60)),
)
_radii = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda m, s: Fraction(m, 2**s), st.integers(1, 2**30), st.integers(40, 140)),
    st.integers(1, 64).map(lambda k: Fraction(2**60 - k, 2**61)),
    st.integers(-(2**20), 2**20).map(lambda k: Fraction(2**40 + k, 2**1140)),
)
_units = st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                          (Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(-3, 5))])


class TestTableRoutesEnclose:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_parts, _parts, _radii, _units, st.integers(1, 3)),
                    min_size=1, max_size=5))
    def test_sdisc_and_mahler_enclose_their_values(self, disks):
        # |sDisc| and M(P), read off the rung table, hold their values at
        # points of the root disks (lc = 1), decided on squares for M
        entries = tuple(RootEntry(CBall(mpmath.mpc(_mpf(x), _mpf(y)), _mpf(rad)), m)
                        for x, y, rad, _, m in disks)
        d = sum(m for *_, m in disks)
        roots = RootSet(entries, GaussianRational.of(1), d, 128, ())
        z = [GaussianRational(x + rad * u, y + rad * v) for x, y, rad, (u, v), _ in disks]
        sdisc, mahler = sdisc_abs_from_roots(roots), mahler_measure(roots)
        exact_sdisc = Fraction(1)
        if len(z) > 1:
            for m in (m for *_, m in disks):
                exact_sdisc *= m
            for j in range(len(z)):
                for i in range(j):
                    exact_sdisc *= (z[j] - z[i]).norm()
        assert abs(_q(sdisc.mid) - exact_sdisc) <= _q(sdisc.rad)
        mahler_sq = Fraction(1)
        for zj, (*_, m) in zip(z, disks):
            mahler_sq *= max(Fraction(1), zj.norm()) ** m
        lo, hi = _q(mahler.mid) - _q(mahler.rad), _q(mahler.mid) + _q(mahler.rad)
        assert (lo <= 0 or lo * lo <= mahler_sq) and mahler_sq <= hi * hi
