"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is the ``repro``
package in ``src/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
metrics are the ``end_to_end`` ones of ``BENCHMARK.json``, with
``--trace 1`` the ``per_layer`` ones.  See ``perfbench/README.md``.
"""

import time

#: set-up is timed from here: the first statement of the benchmark process
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: On a shared host other tenants slow this process's CPU by up to 1.9x,
#: uniformly, in spells of a second to tens of seconds, and the process
#: cannot see it (no steal time; CPU time equals wall time).  So every
#: timed interval is bracketed by a fixed pure-Python calibration loop and
#: rescaled by REFERENCE_CALIBRATION_S / (the loop's time around it): the
#: end-to-end times are wall seconds at a fixed host speed, the one at
#: which the loop takes REFERENCE_CALIBRATION_S (a quiet 2-vCPU Xeon VM).
CALIBRATION_LOOPS = 300_000
REFERENCE_CALIBRATION_S = 0.0325

#: the fewest operations a run times, however short ``--seconds`` is;
#: each half of a traced run times at least ``MIN_OPS - 1``
MIN_OPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(workers: int) -> dict:
    """What decides which kernel path runs, so runs on different paths
    are never compared."""
    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_PURE_PYTHON": os.environ.get("REPRO_PURE_PYTHON"),
        "nproc": workers,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (a pool worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def calibration_s() -> float:
    """Wall time of the calibration loop, now."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that rescales an interval between two calibrations to the
    reference host speed."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


OP_TIMES = ("setup_s", "setup_scaled", "run_s", "run_scaled")


@dataclass
class Op:
    """One timed operation: raw wall times and the same rescaled to the
    reference host speed."""

    setup_s: float
    run_s: float
    points: int
    setup_scaled: float = 0.0
    run_scaled: float = 0.0
    rss_mb: float = 0.0  # peak RSS when the operation ended
    checked: Optional[object] = None  # suite.Checked; None if it raised
    record: Optional[object] = None  # tracer.Record of a traced operation


class Tally:
    """Operations attempted and failed, and what the checks found.

    An operation that raises, or whose output fails a check, counts all of
    its grid points as failed.  On a seed with a reference digest the
    rendered output must match it; on any seed every operation of the run
    must render the same output."""

    def __init__(self, reference: Optional[str]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests = set()

    def raised(self, points: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += points
        self.failed += points

    def add(self, checked) -> None:
        problems = list(checked.problems)
        failed = checked.failed_points
        self.digests.add(checked.digest)
        if self.reference is not None and checked.digest != self.reference:
            problems.append(
                f"output digest {checked.digest[:16]} differs from the "
                f"reference {self.reference[:16]}"
            )
            failed = checked.points
        if len(self.digests) > 1:
            problems.append("the same seed rendered different outputs")
            failed = checked.points
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.attempted += checked.points
        self.failed += failed


def time_ops(
    workload, seed, seconds, tally, tracer=None, min_ops=MIN_OPS, calibrated=None
):
    """Prepare, run and check operations until ``seconds`` of them have
    passed, and at least ``min_ops``.  With ``calibrated`` (the latest
    calibration time) the set-up and every step of the timed call are
    bracketed by calibrations; traced operations are not."""
    ops = []
    began = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - began < seconds:
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        prepared = workload.prepare(seed)
        op = Op(time.perf_counter() - start, 0.0, workload.points(prepared))
        if calibrated is not None:
            before, calibrated = calibrated, calibration_s()
            op.setup_scaled = op.setup_s * scale(before, calibrated)
        if tracer is not None:
            tracer.setup_done()
        outcome = None
        try:
            for step in workload.steps(prepared):
                start = time.perf_counter()
                outcome = step()
                elapsed = time.perf_counter() - start
                op.run_s += elapsed
                if calibrated is not None:
                    before, calibrated = calibrated, calibration_s()
                    op.run_scaled += elapsed * scale(before, calibrated)
        except Exception:
            outcome = None
            tally.raised(op.points)
        if tracer is not None:
            op.record = tracer.end()
        op.rss_mb = peak_rss_mb()
        if outcome is not None:
            op.checked = workload.check(prepared, outcome)
            tally.add(op.checked)
        ops.append(op)
        del prepared, outcome
    return ops


def end_to_end(ops, import_s: float, import_scale: float) -> dict:
    """Medians over the run's operations of their rescaled times.  Memory
    is the peak over the first ``MIN_OPS`` operations, a fixed amount of
    work: the footprint can grow from one operation to the next, so a
    peak over however many fit in the window would follow host speed."""
    return {
        "setup_s": import_s * import_scale
        + statistics.median(op.setup_scaled for op in ops),
        "run_s": statistics.median(op.run_scaled for op in ops),
        "points_per_s": statistics.median(op.points / op.run_scaled for op in ops),
        "peak_rss_mb": ops[MIN_OPS - 1].rss_mb,
    }


def per_layer(untraced, traced, workers: int) -> dict:
    """Layer metrics per operation: counts and times are means over the
    traced operations, task times pool every traced task."""
    from tracer import LAYER_NAMES

    sums = {}
    tasks = []
    for op in traced:
        for key, value in op.record.sums.items():
            sums[key] = sums.get(key, 0.0) + value
        tasks.extend(op.record.task_s)

    def mean(key):
        return sums.get(key, 0.0) / len(traced)

    def ratio(num, den):
        return sums[num] / sums[den] if sums.get(den) else 0.0

    run_untraced = statistics.median(op.run_s for op in untraced)
    run_traced = statistics.median(op.run_s for op in traced)
    points = traced[0].points
    des_points = statistics.median(
        [op.checked.des_points for op in traced if op.checked is not None] or [0]
    )
    cache = sums.get("spec_cache.hits", 0.0) + sums.get("spec_cache.misses", 0.0)
    out = {
        "sim.events": mean("sim.events"),
        "sim.run_until_s": mean("sim.run_until_s"),
        "sim.events_per_cpu_s": ratio("sim.events", "sim.cpu_s"),
        "sim.sim_s_per_s": mean("sim.simulated_s") / run_untraced,
        "net.packets_forwarded": mean("net.packets_forwarded"),
        "workloads.requests": mean("workloads.requests"),
        "apps.kvs.hw_hit_ratio": ratio("apps.kvs.hw_hits", "apps.kvs.hw_lookups"),
        "apps.paxos.retries": mean("apps.paxos.retries"),
        "core.shifts": mean("core.shifts"),
        "builder.build_s": mean("builder.build_s"),
        "builder.collect_s": mean("builder.collect_s"),
        "executor.tasks": mean("executor.tasks"),
        "executor.pool_creates": mean("executor.pool_creates"),
        "executor.spec_cache_hit_ratio": sums.get("spec_cache.hits", 0.0) / cache
        if cache
        else 0.0,
        "executor.task_s.p50": statistics.median(tasks) if tasks else 0.0,
        "executor.task_s.max": max(tasks, default=0.0),
        "executor.worker_busy_frac": sum(tasks)
        / (workers * sum(op.run_s for op in traced)),
        "search.des_points": des_points,
        "search.des_fraction": des_points / points,
        "search.des_s": mean("sweep.run_pinned_s"),
        "search.analytic_s": mean("fastpath.steady_grid_s"),
        "fastpath.steady_point_calls": mean("fastpath.steady_point_calls"),
        "fastpath.steady_point_s": mean("fastpath.steady_point_s"),
        "trace.run_s_untraced": run_untraced,
        "trace.run_s_traced": run_traced,
        "trace.overhead": run_traced / run_untraced,
    }
    for layer in LAYER_NAMES:
        out[layer + ".self_s"] = mean(layer + ".self_s")
    return out


def traced_run(workload, seed, seconds, tally, workers) -> dict:
    """Half the window untraced, half traced: the layer metrics come from
    the traced half, the tracing overhead from comparing the two."""
    from tracer import Tracer

    untraced = time_ops(workload, seed, seconds / 2, tally, min_ops=MIN_OPS - 1)
    spool = tempfile.mkdtemp(prefix=".trace-", dir=HERE)
    tracer = Tracer(spool)
    tracer.install()
    try:
        traced = time_ops(
            workload, seed, seconds / 2, tally, tracer, min_ops=MIN_OPS - 1
        )
    finally:
        # the pool's workers write to the spool: stop them before removing it
        workload.close()
        tracer.uninstall()
        shutil.rmtree(spool, ignore_errors=True)
    return per_layer(untraced, traced, workers)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    import suite  # imports the program under test

    import_s = time.perf_counter() - T_START
    if args.workload not in suite.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(suite.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = suite.WORKLOADS[args.workload]()
    workers = suite.nproc()
    print(json.dumps({"environment": environment(workers)}))
    tally = Tally(reference["digests"].get(args.workload, {}).get(str(args.seed)))
    try:
        if args.trace:
            values = traced_run(workload, args.seed, args.seconds, tally, workers)
            wanted = bench["per_layer"]
        else:
            first = calibration_s()
            ops = time_ops(
                workload, args.seed, args.seconds, tally, calibrated=first
            )
            values = end_to_end(ops, import_s, scale(first, first))
            # every operation's raw and rescaled times, for the record
            ops_line = [
                {key: getattr(op, key) for key in OP_TIMES} for op in ops
            ]
            print(json.dumps({"ops": ops_line}))
            wanted = bench["end_to_end"]
    finally:
        workload.close()
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
