"""Root finding: canonical ordering, certified disks, residuals, sep."""
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsep import (
    ExactPoly,
    GaussianRational,
    IndistinguishableRootsError,
    PreconditionError,
    find_roots,
    parse_polynomial,
    refine,
    sep,
)
from rootsep.balls import CBall, working_precision
from rootsep.roots import (
    _canonical_key,
    _carry_target,
    _certified_radius,
    _exact_horner,
    _first_overlap,
    _newton_starts,
    _overlap_groups,
    _radius_target,
    _taylor_shift,
)

from oracles import disks_meet, dyadic, exact_mid, sqrt_bracket


def test_plus_minus_one_order():
    roots = find_roots(parse_polynomial("x^2 - 1"), 128)
    assert roots.r == 2
    assert roots.entries[0].value.mid.real < 0  # -1 first: tie on modulus, real part breaks
    assert roots.entries[1].value.mid.real > 0
    assert [e.multiplicity for e in roots.entries] == [1, 1]


def _equal_moduli():
    """Four roots of modulus 1."""
    return ExactPoly.from_roots([
        GaussianRational(Fraction(3, 5), Fraction(4, 5)),
        GaussianRational(Fraction(4, 5), Fraction(3, 5)),
        GaussianRational(Fraction(-4, 5), Fraction(3, 5)),
        GaussianRational.of(1),
    ])


def test_equal_moduli_order_by_real_part():
    # four roots of modulus 1: iteration noise far below the stated precision
    # once decided their order
    p = _equal_moduli()
    for bits in (64, 128, 256):
        mids = [e.value.mid for e in find_roots(p, bits).entries]
        expected = [(-0.8, 0.6), (0.6, 0.8), (0.8, 0.6), (1.0, 0.0)]
        for z, (re, im) in zip(mids, expected):
            assert abs(z - mpmath.mpc(re, im)) < 1e-15


def test_factored_multiplicities():
    roots = find_roots(parse_polynomial("(x-1)^2*x"), 128)
    assert [(complex(e.value.mid), e.multiplicity) for e in roots.entries] == [
        (0 + 0j, 1),
        (1 + 0j, 2),
    ]


def test_imaginary_tie_break():
    roots = find_roots(parse_polynomial("x^2 + 1"), 128)
    assert roots.r == 2
    assert roots.entries[0].value.mid.imag < 0  # -i before i
    assert roots.entries[1].value.mid.imag > 0


def test_imaginary_pairs_order_at_every_precision():
    # the real parts are Aberth noise around 0 whose sign changes with the
    # precision; the order must not follow it
    p = parse_polynomial("(x^2 + 1)*(x^2 + 4)*(x - 3)")
    for bits in (64, 128, 256, 512):
        mids = [e.value.mid for e in find_roots(p, bits).entries]
        for z, expected in zip(mids, (-1j, 1j, -2j, 2j, 3)):
            assert abs(z - expected) < 1e-15


def test_radius_target():
    p = parse_polynomial("x^3 - 2*x + 1")
    roots = find_roots(p, 128)
    for e in roots.entries:
        target = mpmath.ldexp(max(mpmath.mpf(1), abs(e.value.mid)), -64)
        assert e.value.rad <= target


def _random_poly(rng, allow_mult=True):
    n = rng.randint(1, 5)
    roots = []
    while len(roots) < n:
        q = GaussianRational(
            Fraction(rng.randint(-7, 7), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.35 else Fraction(0),
        )
        if q not in roots:
            roots.append(q)
    mults = [rng.randint(1, 3) if allow_mult else 1 for _ in roots]
    lead = rng.choice([1, 2, -1, Fraction(3, 2)])
    return ExactPoly.from_roots(roots, mults, lead), roots, mults


def test_residual_bound_random_instances():
    # the disk holds a root z, so |P(v)| = |P(v) - P(z)| <= rad sup|P'| over
    # the disk, and sup|P'| <= sum_k |P^(k+1)(v)| rad^k / k! (Taylor at v):
    # decided exactly at the dyadic midpoint v
    rng = random.Random(101)
    for _ in range(25):
        p, _, _ = _random_poly(rng)
        roots = find_roots(p, 128)
        for e in roots.entries:
            v, rad = exact_mid(e.value), dyadic(e.value.rad)
            slope, dk = Fraction(0), p.derivative()
            for k in range(p.degree):
                slope += sqrt_bracket(dk.eval_exact(v).norm())[1] * rad**k / math.factorial(k)
                dk = dk.derivative()
            assert p.eval_exact(v).norm() <= (rad * slope) ** 2


def test_canonical_order_is_total():
    rng = random.Random(77)
    for _ in range(20):
        p, _, _ = _random_poly(rng)
        roots = find_roots(p, 128)
        entries = list(roots.entries)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        resorted = sorted(shuffled, key=lambda e: _canonical_key(e.value.mid))
        assert [e.value.mid for e in resorted] == [e.value.mid for e in entries]


def test_disjoint_disks():
    rng = random.Random(13)
    for _ in range(20):
        p, _, _ = _random_poly(rng)
        roots = find_roots(p, 128)
        for j in range(roots.r):
            for i in range(j):
                gap = abs(roots.entries[i].value.mid - roots.entries[j].value.mid)
                assert gap > roots.entries[i].value.rad + roots.entries[j].value.rad


class TestSep:
    def test_two_roots(self):
        roots = find_roots(parse_polynomial("x^2 - 1"), 128)
        assert abs(sep(roots, 0).mid - 2) < 1e-30

    def test_multiplicity_instance(self):
        roots = find_roots(parse_polynomial("(x-1)^2*x"), 128)
        assert abs(sep(roots, 1).mid - 1) < 1e-30

    def test_three_roots(self):
        roots = find_roots(parse_polynomial("x^3 - x"), 128)
        j0 = next(i for i, e in enumerate(roots.entries) if abs(e.value.mid + 1) < 1e-20)
        assert abs(sep(roots, j0).mid - 1) < 1e-30

    def test_single_root_rejected(self):
        roots = find_roots(parse_polynomial("(x-1)^3"), 128)
        with pytest.raises(PreconditionError):
            sep(roots, 0)

    def test_equidistant_partners_go_to_the_smallest_index(self):
        # -7/4 is 5/12 from both -4/3 and -3/2 - i/3; the certified midpoints
        # differ from those rationals below the precision, which must not
        # decide the tie, at any ambient precision
        q = [GaussianRational.of(Fraction(-4, 3)), GaussianRational.of(Fraction(-3, 2), Fraction(-1, 3)),
             GaussianRational.of(Fraction(-7, 4))]
        roots = find_roots(ExactPoly.from_roots(q), 128)
        assert all(abs(e.value.mid - complex(z.re, z.im)) < 1e-12 for e, z in zip(roots.entries, q))
        for bits in (53, 152, 300):
            with mpmath.workprec(bits):
                partner = roots.partner(2)
                dist = roots.distance(partner, 2)
            assert partner == 0
            assert abs(dist.mid - mpmath.mpf(5) / 12) < 1e-15

    def test_min_over_j_is_min_pairwise(self):
        rng = random.Random(3)
        for _ in range(10):
            p, _, _ = _random_poly(rng)
            roots = find_roots(p, 128)
            if roots.r < 2:
                continue
            omega1 = min(roots.distance(i, j).mid for j in range(roots.r) for i in range(j))
            best = min((sep(roots, j).mid for j in range(roots.r)))
            assert abs(best - omega1) < 1e-30


class TestEscalation:
    def test_close_pair_resolved_by_escalation(self, monkeypatch):
        # 10^-80 apart inside one square-free factor: the disks separate
        # only after the working precision has doubled twice
        import rootsep.roots

        p = ExactPoly.from_roots(
            [GaussianRational.of(1),
             GaussianRational.of(1 + Fraction(1, 10**80)),
             GaussianRational.of(3)]
        )
        work = []
        real_solve = rootsep.roots._solve_factor

        def spy(factor, p_bits, work_bits, warm=None):
            work.append(work_bits)
            return real_solve(factor, p_bits, work_bits, warm)

        monkeypatch.setattr(rootsep.roots, "_solve_factor", spy)
        roots = find_roots(p, 64)
        assert roots.r == 3
        assert work == [88, 176, 352]

    def test_the_leading_coefficient_stays_exact(self):
        # the solver reads each factor's Gaussian-integer numerators on
        # every attempt, and the root set carries P's leading coefficient
        # exactly, for one attempt (the cubic) as for three (the 10^-80
        # pair)
        for p, bits in ((parse_polynomial("3/2*(x-1)*(x-2)*(x-3)"), 128),
                        (ExactPoly.from_roots([1, 1 + Fraction(1, 10**80), 3]), 64)):
            roots = find_roots(p, bits)
            assert roots.r == 3
            assert roots.leading_coeff == p.leading
            assert isinstance(roots.leading_coeff, GaussianRational)

    def test_real_cluster_on_the_start_circle(self):
        # all three roots have modulus 1/2, the radius of the one Newton
        # polygon edge; starts on that circle stalled on the pair's bisector
        half = Fraction(1, 2)
        p = ExactPoly.from_roots([half, half + Fraction(1, 2**80), -half])
        roots = find_roots(p, 128)
        assert roots.r == 3

    @pytest.mark.parametrize("eps", [Fraction(1, 2**80), Fraction(1, 2**200)])
    def test_iterates_stalled_around_a_pair_escalate(self, eps):
        # at a working precision too low for the pair, the iterates stall
        # near the pair and their exact disks are just disjoint, each as
        # wide as the stall; the factor-2 margin sends the solve up the
        # ladder to disks that resolve the pair
        exact = [Fraction(4, 3), Fraction(4, 3) + eps]
        roots = find_roots(ExactPoly.from_roots(exact), 128)
        assert roots.r == 2 and _encloses_each(roots, exact)
        quarter_gap = mpmath.mpf(eps.numerator) / (4 * eps.denominator)
        assert all(e.value.rad < quarter_gap for e in roots.entries)

    def test_hopeless_pair_raises(self):
        from rootsep import IndistinguishableRootsError

        p = ExactPoly.from_roots(
            [GaussianRational.of(1), GaussianRational.of(1 + Fraction(1, 10**500))]
        )
        with pytest.raises(IndistinguishableRootsError, match="precision 64"):
            find_roots(p, 64)

    def test_root_at_zero_is_exact(self):
        # a zero constant term starts one Aberth point at exactly 0, where it
        # stays with radius 0; the partner 1e-500 then separates at 64 bits
        p = ExactPoly.from_roots(
            [GaussianRational.of(0), GaussianRational.of(Fraction(1, 10**500))]
        )
        roots = find_roots(p, 64)
        assert roots.r == 2 and roots.precision_bits == 64
        zero, tiny = roots.entries
        assert zero.value.mid == 0 and zero.value.rad == 0
        with mpmath.workprec(256):
            assert abs(tiny.value.mid - mpmath.mpf(10) ** -500) <= tiny.value.rad
        assert tiny.value.rad < mpmath.mpf(10) ** -510

    def test_unsolved_factor_error_is_short(self):
        from rootsep import IndistinguishableRootsError

        # the factor's coefficients run to thousands of digits; the message
        # names the factor by index, degree and multiplicity instead
        eps = Fraction(1, 2**2000)
        p = ExactPoly.from_roots([0, Fraction(1, 2), Fraction(1, 2) + eps])
        with pytest.raises(IndistinguishableRootsError) as info:
            find_roots(p, 64)
        assert len(str(info.value)) < 300
        assert "factor 0 (degree 3, multiplicity 1)" in str(info.value)

    def test_multiplicity_sum_is_degree(self):
        rng = random.Random(71)
        for _ in range(10):
            p, _, mults = _random_poly(rng)
            roots = find_roots(p, 128)
            assert sum(e.multiplicity for e in roots.entries) == p.degree


class TestNumericMode:
    """Decimal input is solved as the exact rational polynomial it denotes:
    multiplicities come from the square-free decomposition, not from
    clustering floating-point roots."""

    def test_cluster_multiplicities(self):
        p = parse_polynomial("x^3 - 2.0*x^2 + x")  # (x-1)^2 x
        roots = find_roots(p, 128)
        assert roots.multiplicities() == [1, 2]
        assert [(e.value.mid, e.value.rad) for e in roots.entries] == [(0, 0), (1, 0)]

    def test_simple_numeric(self):
        p = parse_polynomial("x^2 - 0.25")
        roots = find_roots(p, 128)
        assert roots.multiplicities() == [1, 1]
        assert [(e.value.mid, e.value.rad) for e in roots.entries] == [(-0.5, 0), (0.5, 0)]

    @pytest.mark.parametrize("text, root, m", [
        ("(x-0.3)^6", Fraction(3, 10), 6),
        ("(x-1.7)^5", Fraction(17, 10), 5),
    ])
    def test_multiple_decimal_root(self, text, root, m):
        # Aberth iterates of an m-fold root spread by about 2^(-work/m), so
        # only the exact square-free decomposition sees one root here
        roots = find_roots(parse_polynomial(text), 128)
        assert roots.multiplicities() == [m]
        disk = roots.entries[0].value
        with mpmath.workprec(256):
            assert abs(disk.mid - mpmath.mpf(root.numerator) / root.denominator) <= disk.rad


@pytest.fixture
def float_phase(monkeypatch):
    """Spies on the double-precision phase: `unchanged` records, per call,
    whether it returned its starts as they came (then never as isolated),
    and `sweeps` counts the runs of Aberth sweeps on Python complex
    iterates."""
    import rootsep.roots

    seen = {"unchanged": [], "sweeps": 0}
    real_phase = rootsep.roots._float_phase
    real_converge = rootsep.roots._converge

    def phase_spy(factor, starts):
        out, isolated = real_phase(factor, starts)
        seen["unchanged"].append(out is starts)
        assert not (out is starts and isolated)
        return out, isolated

    def converge_spy(coeffs, zs, tol, tiny):
        seen["sweeps"] += isinstance(zs[0], complex)
        return real_converge(coeffs, zs, tol, tiny)

    monkeypatch.setattr(rootsep.roots, "_float_phase", phase_spy)
    monkeypatch.setattr(rootsep.roots, "_converge", converge_spy)
    return seen


@pytest.fixture
def mpc_horner(monkeypatch):
    """Counts the polishing evaluations past the float phase: one
    `_fixed_horner` call per Aberth correction of the integer sweeps, and
    one `_exact_horner` call per Newton step on a cluster's center (the
    calls that certify disks are not counted)."""
    import rootsep.roots

    calls = {"mpc": 0}
    in_cluster = [False]
    real_exact_horner = rootsep.roots._exact_horner
    real_fixed_horner = rootsep.roots._fixed_horner
    real_cluster_starts = rootsep.roots._cluster_starts

    def exact_horner_spy(nums, z):
        calls["mpc"] += in_cluster[0]
        return real_exact_horner(nums, z)

    def fixed_horner_spy(poly, x, y):
        calls["mpc"] += 1
        return real_fixed_horner(poly, x, y)

    def cluster_spy(nums, zs):
        in_cluster[0] = True
        try:
            return real_cluster_starts(nums, zs)
        finally:
            in_cluster[0] = False

    monkeypatch.setattr(rootsep.roots, "_exact_horner", exact_horner_spy)
    monkeypatch.setattr(rootsep.roots, "_fixed_horner", fixed_horner_spy)
    monkeypatch.setattr(rootsep.roots, "_cluster_starts", cluster_spy)
    return calls


@pytest.fixture
def cluster_groups(monkeypatch):
    """The float iterates of each group that the float phase restarts
    around its center."""
    import rootsep.roots

    groups = []
    real_cluster_starts = rootsep.roots._cluster_starts

    def cluster_spy(nums, zs):
        groups.append(list(zs))
        return real_cluster_starts(nums, zs)

    monkeypatch.setattr(rootsep.roots, "_cluster_starts", cluster_spy)
    return groups


def _encloses_each(roots, exact) -> bool:
    """Every exact root lies in exactly one disk of `roots`, decided
    exactly."""
    points = [z if isinstance(z, GaussianRational) else GaussianRational.of(z) for z in exact]
    return all(
        sum((point - exact_mid(e.value)).norm() <= dyadic(e.value.rad) ** 2 for e in roots.entries) == 1
        for point in points
    )


class TestFloatPhase:
    def test_mpmath_only_polishes(self, mpc_horner):
        # 16 integer roots: Aberth reaches them in double precision, and
        # the integer sweeps at 152 working bits only polish; from the
        # Newton-polygon starts they would take 11 sweeps
        p = ExactPoly.from_roots([GaussianRational.of(k) for k in range(-8, 8)])
        roots = find_roots(p, 128)
        assert roots.r == 16
        assert mpc_horner["mpc"] <= 5 * 16

    @pytest.mark.parametrize("poly, expected", [
        # a coefficient overflows
        ("(x-10^200)*(x+2*10^200)*(x-3)", ["3", "1e200", "-2e200"]),
        # the constant coefficient underflows to 0
        ("(x-1/10^200)*(x-2/10^200)*(x+1)", ["1e-200", "2e-200", "-1"]),
    ])
    def test_coefficients_outside_the_float_range_fall_back(self, float_phase, poly, expected):
        roots = find_roots(parse_polynomial(poly), 128)
        assert float_phase["unchanged"] == [True] and float_phase["sweeps"] == 0
        assert roots.r == 3
        with mpmath.workprec(1024):
            for e, root in zip(roots.entries, expected):
                assert abs(e.value.mid - mpmath.mpf(root)) <= e.value.rad

    def test_pair_below_double_precision_is_rejected(self, monkeypatch, cluster_groups):
        # the 2^-80 pair of test_real_cluster_on_the_start_circle: p is 0 in
        # floats at both iterates, so only the rounding term of the disks
        # tells that double precision did not isolate them. The pair's
        # float iterates are never kept as they are: the pair restarts as
        # one group, and -1/2 keeps its float iterate
        import rootsep.roots

        phases, iterates = [], []
        real_phase = rootsep.roots._float_phase
        real_converge = rootsep.roots._converge

        def phase_spy(factor, starts):
            out, isolated = real_phase(factor, starts)
            phases.append((starts, out, isolated))
            return out, isolated

        def converge_spy(coeffs, zs, tol, tiny):
            out = real_converge(coeffs, zs, tol, tiny)
            if isinstance(zs[0], complex):
                iterates.append(list(out))
            return out

        monkeypatch.setattr(rootsep.roots, "_float_phase", phase_spy)
        monkeypatch.setattr(rootsep.roots, "_converge", converge_spy)
        half = Fraction(1, 2)
        p = ExactPoly.from_roots([half, half + Fraction(1, 2**80), -half])
        roots = find_roots(p, 128)
        assert roots.r == 3
        assert phases and len(iterates) == len(phases) == len(cluster_groups)
        for (starts, out, isolated), floats, group in zip(phases, iterates, cluster_groups):
            assert out is not starts and not isolated
            kept = [k for k in range(3) if out[k] == mpmath.mpc(floats[k])]
            assert len(kept) == 1 and abs(floats[kept[0]] + 0.5) < 1e-12
            assert group == [z for k, z in enumerate(floats) if k not in kept]


@pytest.fixture
def polish_routes(monkeypatch):
    """Counts the integer Aberth sweeps (`sweeps`) and records, per call of
    the one-root Newton polish, whether it succeeded (`polished`)."""
    import rootsep.roots

    seen = {"sweeps": 0, "polished": []}
    real_sweep = rootsep.roots._fixed_sweep
    real_polish = rootsep.roots._newton_polish

    def sweep_spy(poly, zs, tiny):
        seen["sweeps"] += 1
        return real_sweep(poly, zs, tiny)

    def polish_spy(poly, zs, tol_bits):
        out = real_polish(poly, zs, tol_bits)
        seen["polished"].append(out is not None)
        return out

    monkeypatch.setattr(rootsep.roots, "_fixed_sweep", sweep_spy)
    monkeypatch.setattr(rootsep.roots, "_newton_polish", polish_spy)
    return seen


def _gaussian_roots(seed: int, n: int) -> list[GaussianRational]:
    rng = random.Random(seed)
    roots: list[GaussianRational] = []
    while len(roots) < n:
        z = GaussianRational(Fraction(rng.randint(-20, 20), rng.choice((3, 5, 7))),
                             Fraction(rng.randint(-20, 20), rng.choice((3, 5, 7))))
        if z not in roots:
            roots.append(z)
    return roots


class TestNewtonPolish:
    """A factor whose roots double precision isolated is polished one root
    at a time by Newton's method; clusters, and a failed polish, go to the
    Aberth sweeps."""

    def test_isolated_roots_take_no_aberth_sweep(self, polish_routes):
        exact = _gaussian_roots(12, 12)
        roots = find_roots(ExactPoly.from_roots(exact), 128)
        assert roots.r == 12 and _encloses_each(roots, exact)
        assert polish_routes == {"sweeps": 0, "polished": [True]}

    def test_a_stalled_root_sends_the_factor_to_aberth(self, monkeypatch, polish_routes):
        # the first two Newton corrections are equal, 2^-20: the second does
        # not halve the first, so the whole factor goes to the sweeps from
        # its float iterates, and still certifies
        import rootsep.roots

        real_quotient = rootsep.roots._newton_quotient
        calls = [0]

        def stalled_quotient(poly, x, y):
            calls[0] += 1
            if calls[0] <= 2:
                return 1 << (poly.w + 1 - 20), 0
            return real_quotient(poly, x, y)

        monkeypatch.setattr(rootsep.roots, "_newton_quotient", stalled_quotient)
        exact = _gaussian_roots(12, 12)
        roots = find_roots(ExactPoly.from_roots(exact), 128)
        assert roots.r == 12 and _encloses_each(roots, exact)
        assert polish_routes["polished"] == [False] and polish_routes["sweeps"] > 0

    @pytest.mark.parametrize("corrections", [
        # the second correction does not halve the first
        lambda k: (1 << 140, 0),
        # p' = 0
        lambda k: None,
        # each correction halves the one before, and none reaches 2^-140
        lambda k: (1 << 140 - k, 0),
    ], ids=["stall", "zero-derivative", "step-cap"])
    def test_a_failed_root_fails_the_polish(self, monkeypatch, corrections):
        import rootsep.roots
        from rootsep.roots import _FixedPoint, _newton_polish

        steps = []

        def quotient(poly, x, y):
            steps.append((x, y))
            return corrections(len(steps) - 1)

        monkeypatch.setattr(rootsep.roots, "_newton_quotient", quotient)
        poly = _FixedPoint.of([(-2, 0), (0, 0), (1, 0)], 160)
        assert _newton_polish(poly, [(1 << 160, 0)], 140) is None
        assert 1 <= len(steps) <= (140).bit_length() + 2

    def test_a_cluster_takes_aberth(self, polish_routes):
        # the 2^-80 pair of test_pair_below_double_precision_is_rejected
        half = Fraction(1, 2)
        exact = [half, half + Fraction(1, 2**80), -half]
        roots = find_roots(ExactPoly.from_roots(exact), 128)
        assert roots.r == 3 and _encloses_each(roots, exact)
        assert polish_routes["polished"] == [] and polish_routes["sweeps"] > 0


def _d64_path() -> ExactPoly:
    ks = random.Random(64).sample(range(-960, 961), 64)
    return ExactPoly.from_roots([GaussianRational.of(Fraction(k, 12)) for k in ks])


def _disks(roots):
    return [(repr(e.value.mid), repr(e.value.rad), e.multiplicity) for e in roots.entries]


class TestHoveringFloatPhase:
    def test_d64_stops_hovering_with_the_same_roots(self, monkeypatch):
        # on the d = 64 path the float corrections hover around 0.1 without
        # halving; the float phase stops after _HOVER_SWEEPS such sweeps
        # instead of running all _MAX_ABERTH_ITERS. Its disks all meet
        # either way, and the whole polynomial restarts from the root of
        # p^(63), which is linear, so the restart and the roots are the same
        import rootsep.poly
        import rootsep.roots

        p = _d64_path()
        sweeps, chains = [], []
        real_sweep = rootsep.roots._float_sweep
        real_chain = rootsep.poly._subresultant_chain

        def sweep_spy(coeffs, zs, tiny):
            sweeps.append(len(zs))
            return real_sweep(coeffs, zs, tiny)

        def chain_spy(a, b):
            chains.append(len(a) - 1)
            return real_chain(a, b)

        monkeypatch.setattr(rootsep.roots, "_float_sweep", sweep_spy)
        monkeypatch.setattr(rootsep.poly, "_subresultant_chain", chain_spy)
        roots = find_roots(p, 128)
        # p is square-free, which the F_q test proves without a chain
        assert roots.r == 64 and chains == []
        assert rootsep.roots._HOVER_SWEEPS < len(sweeps) < 2 * rootsep.roots._HOVER_SWEEPS
        sweeps.clear()
        monkeypatch.setattr(rootsep.roots, "_HOVER_SWEEPS", rootsep.roots._MAX_ABERTH_ITERS)
        hovering = find_roots(p, 128)
        assert len(sweeps) == rootsep.roots._MAX_ABERTH_ITERS
        assert _disks(hovering) == _disks(roots)


class TestExactPolishing:
    def test_d64_radii_meet_the_carry_target(self):
        # polished on the factor's exact numerators, every 128-bit disk is
        # as tight as `refine` asks of a carried set, 2^-(128 + 12) max(1, |z|)
        roots = find_roots(_d64_path(), 128)
        assert roots.r == 64
        assert _meets_target(roots, 128, _carry_target)


class TestClusterRestart:
    """Clusters closer than double precision restart from their center;
    from the Newton polygon, Aberth converges to them only linearly."""

    def test_pair_below_2_to_the_minus_200(self, mpc_horner, cluster_groups):
        # from the Newton polygon, the attempts at 152, 304 and 608 working
        # bits take about 800 mpc Horner calls
        exact = [1, 1 + Fraction(1, 2**200), 3]
        roots = find_roots(ExactPoly.from_roots(exact), 128)
        assert roots.r == 3 and _encloses_each(roots, exact)
        assert cluster_groups and all(len(g) == 2 for g in cluster_groups)
        assert mpc_horner["mpc"] <= 200

    def test_gaussian_triple_with_a_non_real_center(self, mpc_horner, cluster_groups):
        # m = 3: the center is sharpened by Newton's method on p''
        i = GaussianRational.of(0, 1)
        eps = Fraction(1, 2**90)
        exact = [1 + i, 1 + i + eps, 1 + i + i * eps]
        roots = find_roots(ExactPoly.from_roots(exact), 128)
        assert roots.r == 3 and _encloses_each(roots, exact)
        assert cluster_groups and all(len(g) == 3 for g in cluster_groups)
        assert all(abs(sum(g) / 3 - (1 + 1j)) < 1e-4 for g in cluster_groups)
        # about 400 from the Newton polygon
        assert mpc_horner["mpc"] <= 250

    def test_mignotte_polynomial(self, mpc_horner):
        # x^32 - 2(1000x - 1)^2: a pair about 2^-170 apart at 1/1000 and 30
        # roots of modulus near 1.6; the order is the one the Newton-polygon
        # starts gave, at the same working precisions (152, 304, 608)
        roots = find_roots(parse_polynomial("x^32 - 2*(1000*x - 1)^2"), 128)
        assert roots.r == 32
        ring = [1.6218716, 1.5864284, 1.4816477, 1.312109, 1.0852219,
                0.81090248, 0.50113983, 0.16947205, -0.16960538, -0.50127316,
                -0.81103581, -1.0853552, -1.3122423, -1.481781, -1.5865617]
        expected = [0.001, 0.001, ring[0]] + [x for x in ring[1:] for _ in (0, 1)] + [-1.622005]
        assert len(expected) == 32
        assert all(abs(float(e.value.mid.real) - x) < 1e-6
                   for e, x in zip(roots.entries, expected))
        # about 7500 from the Newton polygon
        assert mpc_horner["mpc"] <= 1000


class TestMixedScale:
    def test_roots_thirty_orders_of_magnitude_apart(self, monkeypatch):
        # one factor with roots 10^-30, 1 and 10^30: the fixed-point scale
        # must hold 152 bits relative both at 10^-30 and in 1 / (z_k - z_j)
        # at 10^30, so the first attempt certifies, and every disk is tight
        # relative to its root's modulus
        import rootsep.roots

        work = []
        real_solve = rootsep.roots._solve_factor

        def spy(factor, p_bits, work_bits, warm=None):
            work.append(work_bits)
            return real_solve(factor, p_bits, work_bits, warm)

        monkeypatch.setattr(rootsep.roots, "_solve_factor", spy)
        exact = [Fraction(1, 10**30), 1, 10**30]
        roots = find_roots(ExactPoly.from_roots(exact), 128)
        assert work == [152]
        assert roots.r == 3 and roots.precision_bits == 128
        assert _encloses_each(roots, exact)
        assert all(e.value.rad <= mpmath.ldexp(abs(e.value.mid), -140) for e in roots.entries)


def _gaussian_fraction_eval(nums, z):
    """(f(z), f'(z)) as pairs of Fractions, f given by Gaussian-integer
    numerators, lowest degree first, z a pair of Fractions."""
    x, y = z
    p, dp = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))
    for re, im in reversed(nums):
        dp = (dp[0] * x - dp[1] * y + p[0], dp[0] * y + dp[1] * x + p[1])
        p = (p[0] * x - p[1] * y + re, p[0] * y + p[1] * x + im)
    return p, dp


def _as_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


gaussian_ints = st.tuples(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12))
mantissas = st.integers(-(2**70), 2**70)
# midpoints (x + iy) 2^e with exponents near +-800
exponents = st.integers(-830, 830)


def _radius(nums, x, y, e):
    """`_certified_radius` at 64 bits for f with numerators `nums` at the
    midpoint (x + iy) 2^e, and that midpoint as a pair of Fractions."""
    with mpmath.workprec(128):
        z = mpmath.mpc(mpmath.ldexp(x, e), mpmath.ldexp(y, e))  # exact
    with mpmath.workprec(64):
        rad = _certified_radius(nums, z)
    return rad, (x * Fraction(2) ** e, y * Fraction(2) ** e)


class TestExactRadius:
    """`_certified_radius` against a Fraction oracle for n |f(z)| / |f'(z)|."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(gaussian_ints, min_size=2, max_size=7), mantissas, mantissas, exponents)
    def test_rounds_upward_and_tightly(self, nums, x, y, e):
        if nums[-1] == (0, 0):
            nums[-1] = (1, 0)
        n = len(nums) - 1
        rad, z = _radius(nums, x, y, e)
        (pr, pi), (dr, di) = _gaussian_fraction_eval(nums, z)
        if dr == di == 0:
            assert rad is None
            return
        exact_sq = n * n * (pr * pr + pi * pi) / (dr * dr + di * di)
        rad = _as_fraction(rad)
        assert rad * rad >= exact_sq
        assert rad * rad <= exact_sq * (1 + Fraction(1, 2**60)) ** 2

    @settings(max_examples=100, deadline=None)
    @given(st.lists(gaussian_ints, min_size=1, max_size=5), mantissas, mantissas, exponents)
    def test_zero_at_a_root_and_none_at_a_critical_point(self, nums, x, y, e):
        # z = (x + iy) 2^e is the root of 2^-e X - (x + iy) for e < 0 and of
        # X - (x + iy) 2^e for e >= 0; f is that factor times g
        if nums[-1] == (0, 0):
            nums[-1] = (1, 0)
        factor = ExactPoly(((-x, -y), (2**-e, 0)) if e < 0 else ((-x << e, -y << e), (1, 0)))
        f = factor * ExactPoly(tuple(nums))
        rad, z = _radius(f.nums, x, y, e)
        assert rad is None if _gaussian_fraction_eval(f.nums, z)[1] == (0, 0) else rad == 0
        # factor^2 + 1 has f'(z) = 0 and f(z) = 1
        rad, _ = _radius((factor * factor + ExactPoly(((1, 0),))).nums, x, y, e)
        assert rad is None


def _degree_32():
    """32 real roots (-155 + 10 j) / 12, 5/6 apart in [-13, 13]; none is
    dyadic, so no 128-bit disk is exact."""
    return ExactPoly.from_roots(
        [GaussianRational.of(Fraction(-155 + 10 * j, 12)) for j in range(32)]
    )


def _meets_target(roots, bits, target=_radius_target):
    return all(e.value.rad <= target(e.value.mid, bits) for e in roots.entries)


class TestRefine:
    def test_tight_set_is_kept(self, monkeypatch):
        import rootsep.roots

        # escalation inside find_roots leaves disks as tight as a fresh
        # 256-bit solve would make them
        p = ExactPoly.from_roots([1, 1 + Fraction(1, 2**200), 3])
        roots = find_roots(p, 128)
        assert _meets_target(roots, 256, _carry_target)
        assert refine(p, roots, 128) is roots
        monkeypatch.setattr(rootsep.roots, "_find_roots_exact", None)
        kept = refine(p, roots, 256)
        assert kept.precision_bits == 256
        assert sorted(map(id, kept.entries)) == sorted(map(id, roots.entries))
        # at 256 bits the pair's moduli differ, so it is reordered by them
        with mpmath.workprec(256):
            keys = [_canonical_key(e.value.mid) for e in kept.entries]
        assert keys == sorted(keys) and keys[0] < keys[1]
        assert kept.leading_coeff == roots.leading_coeff
        assert kept.total_degree == roots.total_degree

    @pytest.mark.parametrize("poly, low, high, meets_radius_target", [
        # i/3 is not dyadic, so its 64-bit disk keeps a radius
        ("(x-1)^2*(x+2)*(3*x-i)", 64, 512, False),
        # the disk of 1/3 carries about 140 bits, not the 268 of a fresh
        # 256-bit solve; dyadic roots certify with radius 0
        ("(3*x-1)*(x-2)*(x+2)", 128, 256, True),
    ])
    def test_set_looser_than_a_fresh_solve_is_solved_again(
        self, monkeypatch, poly, low, high, meets_radius_target
    ):
        import rootsep.roots

        p = parse_polynomial(poly)
        roots = find_roots(p, low)
        assert _meets_target(roots, high) == meets_radius_target
        assert not _meets_target(roots, high, _carry_target)
        solved = []
        real_solve = rootsep.roots._find_roots_exact

        def counting_solve(poly, bits, warm=None):
            solved.append((bits, warm))
            return real_solve(poly, bits, warm)

        monkeypatch.setattr(rootsep.roots, "_find_roots_exact", counting_solve)
        refined = refine(p, roots, high)
        assert solved == [(high, roots)]
        assert refined.precision_bits == high and refined.r == roots.r
        assert refined.multiplicities() == roots.multiplicities()
        assert all(a is not b for a, b in zip(refined.entries, roots.entries))
        assert _meets_target(refined, high, _carry_target)

    def test_carried_order_matches_a_fresh_solve(self):
        # equal moduli: +-2, conjugate pairs on the unit circle, +-i and +-2i
        for p in (
            _equal_moduli(),
            parse_polynomial("(x-1)*(x-2)*(x+2)"),
            parse_polynomial("(x^2 + 1)*(x^2 + 4)*(x - 3)"),
        ):
            for low, high in ((64, 128), (128, 256), (64, 256)):
                carried = refine(p, find_roots(p, low), high)
                fresh = find_roots(p, high)
                assert carried.multiplicities() == fresh.multiplicities()
                for a, b in zip(carried.entries, fresh.entries):
                    assert abs(a.value.mid - b.value.mid) < 1e-30

    def test_warm_start_from_a_lower_precision(self, monkeypatch):
        import rootsep.roots

        p = _degree_32()
        roots = find_roots(p, 128)
        assert not _meets_target(roots, 512)
        warmed, newton = [], []
        real_aberth = rootsep.roots._aberth
        real_newton = rootsep.roots._newton_starts

        def aberth_spy(factor, tol_bits, warm=None):
            warmed.append(warm is not None)
            return real_aberth(factor, tol_bits, warm)

        def newton_spy(nums):
            newton.append(len(nums))
            return real_newton(nums)

        monkeypatch.setattr(rootsep.roots, "_aberth", aberth_spy)
        monkeypatch.setattr(rootsep.roots, "_newton_starts", newton_spy)
        refined = refine(p, roots, 512)
        assert warmed == [True] and newton == []
        assert refined.precision_bits == 512 and refined.r == 32
        assert _meets_target(refined, 512)
        for new, old in zip(refined.entries, roots.entries):
            assert disks_meet(new.value, old.value)

    def test_warm_start_skips_the_float_phase(self, float_phase):
        # carried midpoints hold more than the 53 bits of a double
        p = _degree_32()
        roots = find_roots(p, 128)
        float_phase["unchanged"].clear()
        float_phase["sweeps"] = 0
        refined = refine(p, roots, 512)
        assert refined.r == 32
        assert float_phase == {"unchanged": [], "sweeps": 0}


def _disk_holds(disk: CBall, z: GaussianRational) -> bool:
    """Whether z lies in the disk, decided in Fractions."""
    dx = _as_fraction(disk.mid.real) - z.re
    dy = _as_fraction(disk.mid.imag) - z.im
    return dx * dx + dy * dy <= _as_fraction(disk.rad) ** 2


class TestRealRootsOnTheAxis:
    """A real factor's disks that meet the axis are certified on it: the one
    root in such a disk is its own conjugate, so it is real."""

    def test_dyadic_real_roots_are_exact(self):
        ks = random.Random(16).sample(range(-32, 33), 16)
        p = ExactPoly.from_roots([GaussianRational.of(Fraction(k, 4)) for k in ks])
        roots = find_roots(p, 128)
        assert roots.r == 16
        assert all(e.value.mid.imag == 0 and e.value.rad == 0 for e in roots.entries)
        assert sorted(_as_fraction(e.value.mid.real) for e in roots.entries) \
            == sorted(Fraction(k, 4) for k in ks)

    def test_non_dyadic_real_roots_are_on_the_axis_and_enclosed(self):
        ks = random.Random(12).sample(range(-60, 61), 12)
        p = ExactPoly.from_roots([GaussianRational.of(Fraction(k, 12)) for k in ks])
        roots = find_roots(p, 128)
        assert all(e.value.mid.imag == 0 for e in roots.entries)
        for k in ks:
            z = GaussianRational.of(Fraction(k, 12))
            assert sum(_disk_holds(e.value, z) for e in roots.entries) == 1

    @pytest.mark.parametrize("bits", [64, 128])
    def test_conjugate_pair_below_the_radius_target_stays_off_the_axis(self, bits):
        # (x - 1 - 2^-100 i)(x - 1 + 2^-100 i)(x - 3): a real polynomial whose
        # pair is far closer to the axis than a 64-bit disk is wide
        e = Fraction(1, 2**100)
        p = parse_polynomial(f"(x-1-i/{2**100})*(x-1+i/{2**100})*(x-3)")
        assert p == ExactPoly.from_roots([GaussianRational.of(1, -e), GaussianRational.of(1, e),
                                          GaussianRational.of(3)])
        assert all(im == 0 for _, im in p.nums)
        try:
            roots = find_roots(p, bits)
        except IndistinguishableRootsError:
            return
        near_one = [d.value for d in roots.entries if abs(d.value.mid - 1) < 0.5]
        assert len(near_one) == 2
        assert not all(d.mid.imag == 0 for d in near_one)
        for z in (GaussianRational.of(1, -e), GaussianRational.of(1, e)):
            assert sum(_disk_holds(d, z) for d in near_one) == 1


class TestDyadicKernels:
    def test_newton_starts_outside_the_float_range(self):
        # x^3 - 2^6000 (3 + 4i): three starts of modulus 0.7 (5 2^6000)^(1/3)
        starts = _newton_starts([(-3 << 6000, -4 << 6000), (0, 0), (0, 0), (1, 0)])
        expected = 0.7 * 5 ** (1 / 3) * 2 ** (2000 - 1000)
        assert len(starts) == 3
        with mpmath.workprec(128):
            for z in starts:
                assert abs(float(mpmath.ldexp(abs(z), -1000)) / expected - 1) < 1e-12

    def test_newton_starts_keep_exact_zeros(self):
        starts = _newton_starts([(0, 0)] * 2 + [(-4, 0), (1, 0)])
        with mpmath.workprec(64):
            assert starts[:2] == [0, 0] and abs(abs(starts[2]) - 2.8) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.lists(gaussian_ints, min_size=1, max_size=6),
           st.one_of(st.just(0), mantissas), st.one_of(st.just(0), mantissas),
           st.integers(-90, 90))
    def test_taylor_shift_is_a_positive_multiple_of_p_at_c_plus_y(self, nums, x, y, e):
        if nums[-1] == (0, 0):
            nums[-1] = (1, 0)
        with mpmath.workprec(256):
            c = mpmath.mpc(mpmath.ldexp(x, e), mpmath.ldexp(y, e))  # exact
        cx, cy = x * Fraction(2) ** e, y * Fraction(2) ** e
        # p(c + y) = sum_j y^j sum_{k >= j} binom(k, j) a_k c^(k - j), in Fractions
        powers = [(Fraction(1), Fraction(0))]
        for _ in nums:
            a, b = powers[-1]
            powers.append((a * cx - b * cy, a * cy + b * cx))
        exact = []
        for j in range(len(nums)):
            re = im = Fraction(0)
            for k in range(j, len(nums)):
                (ar, ai), (pr, pi) = nums[k], powers[k - j]
                re += math.comb(k, j) * (ar * pr - ai * pi)
                im += math.comb(k, j) * (ar * pi + ai * pr)
            exact.append((re, im))
        shifted = _taylor_shift(nums, c)
        lead_re, lead_im = exact[-1]
        scale = (shifted[-1][0] * lead_re + shifted[-1][1] * lead_im) \
            / (lead_re * lead_re + lead_im * lead_im)
        assert scale > 0
        assert shifted == [(scale * re, scale * im) for re, im in exact]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(gaussian_ints, min_size=1, max_size=7),
           st.one_of(st.just(0), mantissas), st.one_of(st.just(0), mantissas), exponents)
    def test_exact_horner_scales_f_and_its_derivative(self, nums, x, y, e):
        # (A, B, s) = (2^(sn) f(z), 2^(s(n-1)) f'(z), s) for z = (x + iy) 2^e
        if nums[-1] == (0, 0):
            nums[-1] = (1, 0)
        f = ExactPoly(tuple(nums))
        n = f.degree
        with mpmath.workprec(128):
            z = mpmath.mpc(mpmath.ldexp(x, e), mpmath.ldexp(y, e))  # exact
        point = GaussianRational(x * Fraction(2) ** e, y * Fraction(2) ** e)
        (ar, ai), (br, bi), s = _exact_horner(nums, z)
        assert s >= 0
        value, slope = f.eval_exact(point), f.derivative().eval_exact(point)
        assert (Fraction(ar), Fraction(ai)) == (value.re * 2 ** (s * n), value.im * 2 ** (s * n))
        scale = Fraction(2) ** (s * (n - 1))
        assert (Fraction(br), Fraction(bi)) == (slope.re * scale, slope.im * scale)

    @pytest.mark.parametrize("bits", [24, 64, 152])
    def test_first_overlap_keeps_its_cushion(self, bits):
        # centers 0 and 1: radii summing to 1 - 2^(7 - p) meet inside the
        # cushion 1 - 2^(8 - p), radii summing to 1 - 2^(9 - p) do not
        with mpmath.workprec(bits + 20):
            disks = [[(mpmath.mpc(c), (1 - mpmath.ldexp(1, k - bits)) / 2) for c in (0, 1)]
                     for k in (7, 9)]
        with mpmath.workprec(bits):
            assert _first_overlap(disks[0]) == (0, 1)
            assert _first_overlap(disks[1]) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(mantissas, mantissas, st.integers(0, 2**70)), min_size=2, max_size=5),
           st.integers(-80, 80), st.sampled_from([24, 64, 152]))
    def test_first_overlap_is_the_exact_cushioned_test(self, disks, e, bits):
        # |a - b| (1 - 2^(8 - p)) <= r_a + r_b, decided in Fractions
        scale = Fraction(2) ** e
        exact = [(x * scale, y * scale, r * scale) for x, y, r in disks]
        with mpmath.workprec(160):
            balls = [(mpmath.mpc(mpmath.ldexp(x, e), mpmath.ldexp(y, e)), mpmath.ldexp(r, e))
                     for x, y, r in disks]
        cushion = 1 - Fraction(2) ** (8 - bits)
        expected = next(
            ((j, i) for i in range(len(exact)) for j in range(i)
             if ((exact[i][0] - exact[j][0]) ** 2 + (exact[i][1] - exact[j][1]) ** 2) * cushion ** 2
             <= (exact[i][2] + exact[j][2]) ** 2),
            None,
        )
        with mpmath.workprec(bits):
            assert _first_overlap(balls) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(-60, 60), st.sampled_from([24, 64, 152]))
    def test_overlap_groups_are_the_closure_of_the_exact_test(self, data, e, bits):
        # float disks with centers close enough to meet, or far apart so
        # that only the disks added tangent or nearly tangent to earlier
        # ones, along the axes and the 3-4-5 diagonals, meet them; the groups
        # are the components of the cushioned test decided in Fractions
        coord = st.one_of(st.integers(-(2**20), 2**20), st.integers(-(2**40), 2**40))
        disks = data.draw(st.lists(st.tuples(coord, coord, st.integers(0, 2**20)),
                                   min_size=1, max_size=5))
        for _ in range(data.draw(st.integers(0, 3))):
            x, y, r = data.draw(st.sampled_from(disks))
            dx, dy, n = data.draw(st.sampled_from([(1, 0, 1), (0, -1, 1), (3, 4, 5), (-4, 3, 5)]))
            t = data.draw(st.integers(2**14, 2**20))
            # at 24 bits the cushion takes about n t 2^-16 off the distance
            shave = -(n * t >> (bits - 8))
            gap = data.draw(st.sampled_from([0, 0, 1, -1, 40, -40, shave, shave + 1, shave - 1]))
            if n * t - r + gap >= 0:
                disks.append((x + dx * t, y + dy * t, n * t - r + gap))
        floats = [(complex(math.ldexp(x, e), math.ldexp(y, e)), math.ldexp(r, e)) for x, y, r in disks]
        cushion = 1 - Fraction(2) ** (8 - bits)
        parent = list(range(len(disks)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        met = set()
        for i, (x, y, r) in enumerate(disks):
            for j in range(i):
                u, v, s = disks[j]
                if Fraction((x - u) ** 2 + (y - v) ** 2) * cushion ** 2 <= (r + s) ** 2:
                    parent[find(i)] = find(j)
                    met.update((i, j))
        expected = {}
        for i in sorted(met):
            expected.setdefault(find(i), []).append(i)
        with mpmath.workprec(bits):
            got = _overlap_groups(floats)
        assert sorted(got) == sorted(expected.values())
