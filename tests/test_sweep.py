"""Instance generation and campaign plumbing."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rootsep import ExactPoly, GaussianRational, ValidationError
from rootsep.sweep import SweepParams, generate_instance, run_instance, run_sweep

from oracles import mid_distance

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestGenerate:
    def test_byte_for_byte_determinism(self):
        params = SweepParams(count=1)
        for idx in range(20):
            p1, g1, m1 = generate_instance(42, idx, params)
            p2, g2, m2 = generate_instance(42, idx, params)
            assert p1 == p2 and g1 == g2 and m1 == m2

    def test_seed_changes_instance(self):
        params = SweepParams(count=1)
        outcomes = {generate_instance(s, 0, params)[0] for s in range(8)}
        assert len(outcomes) > 1

    def test_square_free_when_mult_one(self):
        params = SweepParams(count=1, max_multiplicity=1)
        from rootsep.poly import square_free_decomposition

        for idx in range(15):
            p, _, meta = generate_instance(9, idx, params)
            decomposition = square_free_decomposition(p)
            assert all(m == 1 for _, m in decomposition)

    def test_degree_cap(self):
        params = SweepParams(count=1, max_degree=6)
        for idx in range(25):
            p, _, _ = generate_instance(3, idx, params)
            assert p.degree <= 6

    def test_force_cluster_distance(self):
        eps = Fraction(1, 10**4)
        params = SweepParams(count=1, force_cluster=eps)
        for idx in range(10):
            p, _, meta = generate_instance(5, idx, params)
            if meta["distinct"] >= 2:
                # the two constructed roots sit at distance exactly eps (or eps/2)
                from rootsep import find_roots

                roots = find_roots(p, 128)
                dmin = min(
                    mid_distance(roots.entries[i].value, roots.entries[j].value)
                    for j in range(roots.r)
                    for i in range(j)
                )
                assert dmin <= float(eps)


class TestRunInstance:
    def test_record_fields(self):
        params = SweepParams(count=1)
        rec = run_instance(42, 0, params)
        assert rec["verdict_final"] in ("holds", "inconclusive")
        assert not rec["violated"]
        assert rec["identity_holds"] in (True, None)

    def test_escalation_carries_the_first_root_set(self, monkeypatch):
        # no generated instance is inconclusive at 128 bits, so the slot
        # holds (x - c)(x + c), c = 1 + 2^-151, with no edges: its roots are
        # exact at 128 bits (152 working bits), and LHS = 1 against RHS = 1/c
        # is inconclusive there and holds at 256, where the disks certified
        # at 128 bits already meet the radius target
        import rootsep.bounds
        import rootsep.roots
        import rootsep.sweep

        c = 1 + Fraction(1, 2**151)
        p = ExactPoly.from_roots([GaussianRational.of(c), GaussianRational.of(-c)])
        monkeypatch.setattr(
            rootsep.sweep, "generate_instance",
            lambda seed, index, params: (p, {"edges": []}, {"index": index, "multiplicities": [1, 1]}),
        )
        params = SweepParams()
        solved = []
        real_solve = rootsep.roots._find_roots_exact

        def counting_solve(poly, bits, warm=None):
            solved.append(bits)
            return real_solve(poly, bits, warm)

        monkeypatch.setattr(rootsep.roots, "_find_roots_exact", counting_solve)
        rec = run_instance(101, 52, params)
        assert solved == [128]
        # a fresh solve on every rung gives the same record; like `refine`,
        # the stand-in keeps a set that is already at the rung's precision
        monkeypatch.setattr(
            rootsep.bounds, "refine",
            lambda p, roots, bits: roots if roots.precision_bits == bits else rootsep.roots.find_roots(p, bits),
        )
        fresh = run_instance(101, 52, params)
        assert solved == [128, 128, 256]
        keys = ("verdict_first", "verdict_final", "resolved_bits")
        assert [rec[k] for k in keys] == [fresh[k] for k in keys] == ["inconclusive", "holds", 256]

    def test_path_over_the_cluster_holds_at_the_first_rung(self):
        # instance 5 of seed 101: the path's edge (1, 2) joins the 2^-200
        # pair, so W_1 holds their divided difference and the first rung
        # certifies
        params = SweepParams(max_degree=8, force_cluster=Fraction(1, 2**200))
        rec = run_instance(101, 5, params)
        assert rec["multiplicities"][:2] == [3, 3]
        assert rec["edges"] == [[0, 1], [1, 2]]
        keys = ("verdict_first", "verdict_final", "resolved_bits")
        assert [rec[k] for k in keys] == ["holds", "holds", 128]

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            SweepParams(count=0).validate()
        with pytest.raises(ValidationError):
            SweepParams(precision_bits=100).validate()
        with pytest.raises(ValidationError):
            SweepParams(graph_kinds=("ring",)).validate()

    def test_a_forced_cluster_needs_a_nonzero_offset(self):
        # an offset of 0 would make roots[1] a copy of roots[0], merging
        # their multiplicities while the record still counts them apart
        for eps in (0, Fraction(0)):
            with pytest.raises(ValidationError):
                SweepParams(max_degree=8, force_cluster=eps).validate()
            with pytest.raises(ValidationError):
                run_sweep(101, SweepParams(count=1, max_degree=8, force_cluster=eps))
        SweepParams(max_degree=8, force_cluster=Fraction(-1, 2**80)).validate()

    def test_one_instance_validates_its_params(self):
        # an offset of 0 would record 3 distinct roots with multiplicities
        # [3, 2, 3] for a polynomial with 2
        params = SweepParams(max_degree=8, force_cluster=Fraction(0))
        with pytest.raises(ValidationError):
            generate_instance(101, 0, params)
        with pytest.raises(ValidationError):
            run_instance(101, 0, params)


class TestRunSweep:
    def test_summary_and_determinism(self):
        params = SweepParams(count=12)
        s1 = run_sweep(11, params)
        s2 = run_sweep(11, params)
        assert s1 == s2
        assert s1["violations"] == 0
        assert len(s1["instances"]) == 12

    def test_parallel_matches_sequential(self):
        params = SweepParams(count=8)
        assert run_sweep(13, params, jobs=2) == run_sweep(13, params, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -2, True, 1.5])
    def test_jobs_must_be_a_positive_int(self, jobs):
        with pytest.raises(ValidationError, match="jobs"):
            run_sweep(1, SweepParams(count=2), jobs=jobs)

    def test_workers_capped_by_instances_and_cpus(self, monkeypatch):
        # a pool forks all its workers at once: at most one per instance and
        # per CPU starts, and none for one of them
        import concurrent.futures

        started = []

        class StubPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        params = SweepParams(count=3)
        sequential = run_sweep(5, params, jobs=1)
        for cpus, expected in ((8, 3), (2, 2), (1, None), (None, None)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            started.clear()
            assert run_sweep(5, params, jobs=100_000) == sequential
            assert started == ([] if expected is None else [expected])

    def test_only_a_parallel_sweep_loads_multiprocessing(self):
        # a process that never starts a pool does not pay for the import
        code = "import sys, rootsep.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
        assert out.strip() == "False"
