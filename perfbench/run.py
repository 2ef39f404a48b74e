"""rootsep benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a rootsep checkout; the library is imported from
`src/` there, and scratch files go to `.perfbench/`. With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics;
with `--trace 1` every op runs twice, untraced and then traced, and the
object holds the per-layer metrics. Lines before it are a readable summary:
sample counts, the verdict digest and, when traced, the top self times.

End-to-end times (`setup_s`, the latencies and `ops_per_s`) are wall times
scaled to a nominal host speed, measured by timing a fixed piece of
reference work inside each op, on a profiling timer (`hostspeed.py`); the
summary also prints the unscaled figures and the speed factors used.

Workloads are described in `workloads.py`, spans in `tracing.py`,
host speed in `hostspeed.py`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

#: per-op cap; the slowest op at the seed takes about 11 s
OP_CAP_S = 60.0
#: fresh interpreters launched to time `setup_s`; the median is reported
SETUP_LAUNCHES = 7
#: reference work (hostspeed.py) before and after each setup launch, seconds
SETUP_REF_S = 0.05
SETUP_SCRIPT = (
    "import sys; sys.path.insert(0, sys.argv[1]); import rootsep, rootsep.cli; "
    "sys.exit(rootsep.cli.main(['verify', '--poly', 'x^2-1', '--preset', 'complete', "
    "'--out', sys.argv[2]]))"
)

#: functions whose calls and self time are reported from the traced run
TRACED_FUNCTIONS = (
    "poly.square_free_decomposition", "poly.gcd_exact", "poly.pseudo_rem",
    "invariants.compute_invariants", "invariants.subdiscriminant",
    "invariants.principal_subresultant", "invariants.discriminant",
    "invariants.mahler_measure", "invariants.sdisc_abs_from_roots",
    "roots.find_roots", "divdiff.power_basis_row", "balls.ball_det",
    "bounds.reduce_vandermonde", "bounds.verify", "bounds.bound_main",
    "parsing.parse_polynomial", "graph.preset_edges", "graph.orient",
    "sweep.generate_instance", "sweep.run_instance", "cli.main",
)
FAILED_COUNTED = ("roots.find_roots", "bounds.reduce_vandermonde")


def locate_library(root: Path):
    """Import rootsep from `root/src`, refusing any other copy."""
    src = root / "src"
    if not (src / "rootsep" / "__init__.py").is_file():
        sys.exit(f"no rootsep sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import rootsep

    if Path(rootsep.__file__).resolve().parent != (src / "rootsep").resolve():
        sys.exit(f"imported rootsep from {rootsep.__file__}, not from {src}")
    return src


def measure_setup(src: Path, workdir: Path, speed: HostSpeed) -> tuple[float, list[float]]:
    """Median time of fresh interpreters importing rootsep and finishing
    `verify` on x^2-1, each scaled to nominal host speed; also the raw
    wall times."""
    out = workdir / "setup.json"
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        speed.sample(SETUP_REF_S)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(src), str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
        )
        end = time.perf_counter()
        speed.sample(SETUP_REF_S)
        raw.append(end - start)
        # the parent waits without using CPU, so the chunks are those timed
        # just before and after the launch
        scaled.append((end - start) * speed.factor(start - SETUP_REF_S, end + SETUP_REF_S))
        if proc.returncode != 0:
            sys.exit(f"setup verify exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        with open(out) as fh:
            if json.load(fh)["verdict"] != "holds":
                sys.exit("setup verify on x^2-1 did not hold")
    return statistics.median(scaled), raw


class OpTimeout(BaseException):
    """Raised by SIGALRM in an op that hits the cap; a BaseException so that
    no `except Exception` inside the library swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Runs ops of one workload, timing, checking and digesting each."""

    def __init__(self, workload, seed: int, workdir: Path, tracer=None, speed=None):
        self.workload = workload
        self.seed = seed
        self.workdir = str(workdir)
        self.tracer = tracer
        self.speed = speed  # a running HostSpeed, when times are scaled
        self.latencies: list[float] = []  # untraced wall times, seconds
        #: (start, end, seconds in reference chunks) of each untraced op
        self.spans: list[tuple[float, float, float]] = []
        self.traced_latencies: list[float] = []
        self.failures: dict[str, int] = {}
        self.digest = hashlib.sha256()
        self.input_keys: list[str] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def _timed(self, op):
        result, failed = None, None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            result = op.call()
        except OpTimeout:
            failed = "timeout"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failed = f"raised:{type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, result, failed

    def run(self, op) -> None:
        from workloads import CheckError

        index = op.index
        self.input_keys.append(op.input_key)
        busy = self.speed.busy if self.speed is not None else 0.0
        start = time.perf_counter()
        seconds, result, failed = self._timed(op)
        self.latencies.append(seconds)
        if self.speed is not None:
            self.spans.append((start, start + seconds, self.speed.busy - busy))
        outcome = op.check(result) if failed is None else None
        if self.tracer is not None:
            self.tracer.op_id = index
            self.tracer.install()
            try:
                seconds, result, traced_failed = self._timed(op)
            finally:
                self.tracer.uninstall()
            self.traced_latencies.append(seconds)
            traced = op.check(result) if traced_failed is None else None
            if traced != outcome or traced_failed != failed:
                raise CheckError(f"op {index}: tracing changed the result")
        if outcome is not None:
            failed = outcome.failed
            row = (index, outcome.verdict, outcome.resolved_bits, outcome.r)
        else:
            row = (index, failed, None, None)
        if failed is not None:
            self.failures[failed] = self.failures.get(failed, 0) + 1
        self.digest.update(("|".join(map(str, row)) + "\n").encode())

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_rounds(runner: Runner, seconds: float) -> int:
    """Whole rounds, stopping at the round boundary expected to be nearest
    to `seconds` of wall time; at least one."""
    size = runner.workload.round_size
    ops = runner.workload.ops(runner.seed, runner.workdir)
    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + elapsed / rounds / 2 > seconds:
            return rounds
        for _ in range(size):
            runner.run(next(ops))
        rounds += 1


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_latencies(runner: Runner) -> list[float]:
    """Each op's wall time, less the reference chunks run inside it, scaled
    to nominal host speed; seconds."""
    return [(end - start - busy) * runner.speed.factor(start, end)
            for start, end, busy in runner.spans]


def end_to_end(runner: Runner, setup_s: float) -> dict:
    scaled = scaled_latencies(runner)
    lat_ms = [s * 1000 for s in scaled]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (runner.attempted / sum(scaled), "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner: Runner) -> dict:
    from tracing import LAYERS, FnStats

    tracer = runner.tracer
    stats = tracer.stats
    out: dict = {}
    for name in TRACED_FUNCTIONS:
        s = stats.get(name, FnStats())
        out[f"{name}.calls"] = (s.calls, "count")
        out[f"{name}.self_s"] = (s.self_s, "s")
        out[f"{name}.total_s"] = (s.total_s, "s")
    for name in FAILED_COUNTED:
        out[f"{name}.failed"] = (stats.get(name, FnStats()).failed, "count")
    out["poly.pseudo_rem.max_coeff_bits"] = (tracer.pseudo_rem_max_bits, "bits")
    calls = tracer.verify_calls
    n = len(calls)
    resolved = [bits for _, _, bits in calls if bits is not None]
    out["bounds.verify.attempts_per_call"] = (
        sum(a for a, _, _ in calls) / n if n else 0.0, "count")
    out["bounds.verify.first_attempt_holds_share"] = (
        sum(1 for a, v, _ in calls if a == 1 and v == "holds") / n if n else 0.0, "ratio")
    out["bounds.verify.resolved_bits_mean"] = (
        sum(resolved) / len(resolved) if resolved else 0.0, "bits")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(s.self_s for k, s in stats.items() if k.split(".")[0] == layer), "s")
    out["trace.overhead_share"] = (
        sum(runner.traced_latencies) / sum(runner.latencies) - 1, "ratio")
    out["failed_share"] = (runner.failed / runner.attempted, "ratio")
    return out


def summary(runner: Runner, rounds: int) -> list[str]:
    lines = [
        f"workload={runner.workload.name} seed={runner.seed} rounds={rounds} "
        f"ops={runner.attempted} failed={runner.failed} {runner.failures or ''}".rstrip(),
        f"latency samples={runner.attempted}; p90 has "
        f"{sum(1 for x in runner.latencies if x > percentile(runner.latencies, 90))} "
        "samples beyond it",
        "latencies_ms: " + " ".join(f"{x * 1000:.0f}" for x in runner.latencies[:24]),
        f"digest={runner.digest.hexdigest()}",
    ]
    if runner.speed is not None and runner.latencies:
        factors = [runner.speed.factor(a, b) for a, b, _ in runner.spans]
        lines.append(
            f"unscaled wall time: {runner.attempted / sum(runner.latencies):.3f} ops/s, "
            f"p50 {percentile(runner.latencies, 50) * 1000:.3f} ms; host speed factor "
            f"median {statistics.median(factors):.3f}, min {min(factors):.3f}, "
            f"max {max(factors):.3f} ({len(runner.speed.secs)} reference chunks)")
    if runner.tracer is not None:
        stats = runner.tracer.stats
        top = sorted(stats.items(), key=lambda kv: -kv[1].self_s)[:8]
        lines.append(f"spans={len(runner.tracer.spans)}; top self time:")
        lines += [f"  {k:40s} {s.self_s:9.3f} s  calls={s.calls}" for k, s in top]
    return lines


def write_spans(tracer, path: Path) -> None:
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = locate_library(root)
    import tracing
    from workloads import WORKLOADS, CheckError

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)

    setup_s, speed = 0.0, None
    if not args.trace:
        speed = HostSpeed()
        speed.sample(0.2)  # warm-up of the reference work itself
        setup_s, launches = measure_setup(src, workdir, speed)
        print("setup launches, wall (s): " + " ".join(f"{t:.4f}" for t in launches))
    # warm-up: lazy imports and mpmath constants, outside the timed loop
    import rootsep.cli
    rootsep.cli.main(["verify", "--poly", "x^2-1", "--preset", "complete",
                      "--out", str(workdir / "warmup.json")])

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(WORKLOADS[args.workload], args.seed, workdir, tracer, speed)
    correct = True
    if speed is not None:
        speed.start()
    try:
        rounds = run_rounds(runner, args.seconds)
    except CheckError as exc:
        print(f"WRONG OUTPUT at op {runner.attempted - 1}: {exc}")
        correct, rounds = False, 0
    finally:
        if speed is not None:
            speed.stop()
    print("\n".join(summary(runner, rounds)))
    if tracer is not None:
        spans_path = workdir / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(tracer, spans_path)
        print(f"spans written to {spans_path.relative_to(root)}")
    metrics = per_layer(runner) if tracer is not None else end_to_end(runner, setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
