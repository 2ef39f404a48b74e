"""The benchmark's own test: fixed seeds give fixed work and fixed results.

    python3 -m pytest perfbench/test_perfbench.py -q

Two traced runs of the same ops with the same seed must agree on every exact
count (`*.calls`, `poly.pseudo_rem.max_coeff_bits`,
`bounds.verify.attempts_per_call`) and on the verdict digest; another seed
must give other inputs. Each workload runs its first few ops only.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
run.locate_library(ROOT)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: ops per workload: one round where rounds are cheap, else the first ops
OPS = {"sweep": 8, "clustered": 4, "real-highdeg": 1, "complex-exact": 1}
EXACT = ("poly.pseudo_rem.max_coeff_bits", "bounds.verify.attempts_per_call")


@pytest.fixture
def workdir() -> Path:
    """CLI reports go to the checkout's scratch directory, as in a run."""
    path = ROOT / ".perfbench" / "test"
    path.mkdir(parents=True, exist_ok=True)
    return path


def traced_run(name: str, seed: int, workdir: Path) -> run.Runner:
    runner = run.Runner(workloads.WORKLOADS[name], seed, workdir, tracing.Tracer())
    for op in itertools.islice(runner.workload.ops(seed, str(workdir)), OPS[name]):
        runner.run(op)
    return runner


def exact_counts(runner: run.Runner) -> dict:
    return {
        k: v for k, (v, _) in run.per_layer(runner).items()
        if k.endswith(".calls") or k in EXACT
    }


@pytest.mark.parametrize("name", sorted(OPS))
def test_same_seed_same_counts_and_digest(name, workdir):
    first = traced_run(name, 7, workdir)
    second = traced_run(name, 7, workdir)
    assert first.input_keys == second.input_keys
    assert exact_counts(first) == exact_counts(second)
    assert first.digest.hexdigest() == second.digest.hexdigest()
    assert first.failed == 0
    assert any(v for k, v in exact_counts(first).items() if k.endswith(".calls"))


@pytest.mark.parametrize("name", sorted(OPS))
def test_other_seed_other_inputs(name, workdir):
    ops = {
        seed: [op.input_key for op in itertools.islice(
            workloads.WORKLOADS[name].ops(seed, str(workdir)), OPS[name])]
        for seed in (7, 8)
    }
    assert ops[7] != ops[8]


def test_root_check_rejects_a_displaced_root():
    built = [((Fraction(1, 4), Fraction(0)), 1), ((Fraction(-1, 2), Fraction(0)), 2)]
    good = [{"re": 0.25, "im": 0.0, "rad": 1e-30, "multiplicity": 1},
            {"re": -0.5, "im": 0.0, "rad": 1e-30, "multiplicity": 2}]
    workloads.check_json_roots(good, built)
    for bad in (
        [dict(good[0], re=0.25 + 1e-9), good[1]],  # outside its disk
        [good[0], dict(good[1], multiplicity=1)],  # wrong multiplicity
        [good[0], dict(good[1], re=0.2500001)],  # two roots in one place
        [good[0]],  # a root missing
    ):
        with pytest.raises(workloads.CheckError):
            workloads.check_json_roots(bad, built)


def test_speed_factor_reads_the_chunks_near_an_op():
    speed = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_CHUNK_S
    # chunks at twice nominal time around t=10, at nominal time at t=20
    speed.mids = [9.99, 10.05, 10.11, 20.0]
    speed.secs = [2 * nominal, 2 * nominal, 2 * nominal, nominal]
    assert speed.factor(10.0, 10.1) == pytest.approx(0.5)
    assert speed.factor(10.0, 20.0) == pytest.approx(4 / 7)
    assert speed.factor(15.0, 15.1) == pytest.approx(2 / 3)  # nearest ones
    speed.sample(0.01)
    assert speed.busy > 0 and speed.secs[4] > 0
