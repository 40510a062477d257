"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public entry points of the program's layers from outside
(``src/`` is not edited) and buckets profiler self time by the module that
spent it.  Fork-pool workers inherit the wrappers: inside a worker each
``run_pinned`` call is profiled on its own and its record is written to a
spool directory, which the parent drains after the sweep returns.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from collections import defaultdict
from typing import Dict, List, Optional

import repro
from repro.net.switch import Switch
from repro.scenarios import fastpath as fastpath_mod
from repro.scenarios import sweep as sweep_mod
from repro.scenarios.builder import ScenarioBuilder, ScenarioRun
from repro.sim import Simulator

_PKG = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: package path prefix -> layer; first match wins, so files come before
#: their directory
_LAYERS = (
    ("sim/", "sim"),
    ("workloads/", "workloads"),
    ("net/", "net"),
    ("apps/kvs/", "apps.kvs"),
    ("apps/paxos/", "apps.paxos"),
    ("apps/dns/", "apps.dns"),
    ("apps/", "apps.common"),
    ("core/", "core"),
    ("host/", "host"),
    ("power/", "host"),
    ("hw/", "hw"),
    ("steady/", "steady"),
    ("scenarios/fastpath.py", "fastpath"),
    ("scenarios/builder.py", "builder"),
    ("scenarios/sweep.py", "sweep"),
    ("scenarios/", "scenarios.spec"),
)

#: every bucket :func:`layer_self_times` can fill
LAYER_NAMES = sorted({layer for _, layer in _LAYERS} | {"repro.other", "other"})


def layer_of(filename: str) -> Optional[str]:
    """The layer a code object's file belongs to, None outside the package."""
    if not filename.startswith(_PKG):
        return None
    rel = filename[len(_PKG):].replace(os.sep, "/")
    for prefix, layer in _LAYERS:
        if rel.startswith(prefix):
            return layer
    return "repro.other"


def layer_self_times(profile: cProfile.Profile) -> Dict[str, float]:
    """Profiler self time per layer.  Code outside the package (builtins,
    stdlib) is charged to the layer of its direct caller, so a heap push
    made by the kernel counts as kernel time; what has no caller in the
    package lands in ``other``."""
    out: Dict[str, float] = defaultdict(float)
    for func, (_, _, tottime, _, callers) in pstats.Stats(profile).stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            out[layer] += tottime
        elif not callers:
            out["other"] += tottime
        else:
            for caller, caller_stats in callers.items():
                out[layer_of(caller[0]) or "other"] += caller_stats[2]
    return dict(out)


class Record:
    """Counters and timings accumulated over one traced operation."""

    def __init__(self):
        self.sums: Dict[str, float] = defaultdict(float)
        self.task_s: List[float] = []
        #: worker pid -> cumulative spec-cache counters at its last task
        self.worker_cache: Dict[int, Dict[str, int]] = {}

    def merge_worker(self, blob: dict) -> None:
        for key, value in blob["sums"].items():
            self.sums[key] += value
        self.task_s.append(blob["task_s"])
        self.worker_cache[blob["pid"]] = blob["spec_cache"]


class Tracer:
    """Installs the wrappers and collects one :class:`Record` per traced
    operation (``begin`` ... ``end``)."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        self.active = False
        self.record = Record()
        self._profile: Optional[cProfile.Profile] = None
        self._originals = []
        self._spooled = 0
        #: worker pid -> spec-cache counters when set-up ended
        self._cache_baseline: Dict[int, Dict[str, int]] = {}
        #: executor and spec-cache counters at begin / at the end of set-up
        self._at_begin: Dict[str, int] = {}
        self._at_op: Dict[str, int] = {}
        self._cache_at_op: Dict[str, int] = {}

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        tracer = self

        def timed(key):
            def make(original):
                def wrapper(*args, **kwargs):
                    if not tracer.active:
                        return original(*args, **kwargs)
                    start = time.perf_counter()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        sums = tracer.record.sums
                        sums[key + "_s"] += time.perf_counter() - start
                        sums[key + "_calls"] += 1

                return wrapper

            return make

        def run_until(original):
            def wrapper(sim, *args, **kwargs):
                if not tracer.active:
                    return original(sim, *args, **kwargs)
                events, now = sim.events_executed, sim.now
                wall, cpu = time.perf_counter(), time.process_time()
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    sums = tracer.record.sums
                    sums["sim.run_until_s"] += time.perf_counter() - wall
                    sums["sim.cpu_s"] += time.process_time() - cpu
                    sums["sim.events"] += sim.events_executed - events
                    sums["sim.simulated_s"] += (sim.now - now) / 1e6

            return wrapper

        def execute(original):
            def wrapper(run):
                if not tracer.active:
                    return original(run)
                sums = tracer.record.sums
                in_loop = sums["sim.run_until_s"]
                start = time.perf_counter()
                result = original(run)
                sums["builder.collect_s"] += (
                    time.perf_counter() - start
                    - (sums["sim.run_until_s"] - in_loop)
                )
                _harvest(sums, run, result)
                return result

            return wrapper

        def run_pinned(original):
            in_parent = timed("sweep.run_pinned")(original)

            def wrapper(spec, mode):
                if tracer.active and os.getpid() != tracer.owner_pid:
                    return tracer._worker_task(original, spec, mode)
                return in_parent(spec, mode)

            return wrapper

        self._patch(ScenarioBuilder, "build", timed("builder.build"))
        self._patch(ScenarioRun, "execute", execute)
        self._patch(Simulator, "run_until", run_until)
        self._patch(sweep_mod, "run_pinned", run_pinned)
        self._patch(fastpath_mod, "steady_point", timed("fastpath.steady_point"))
        self._patch(fastpath_mod, "steady_grid", timed("fastpath.steady_grid"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- pool workers --------------------------------------------------------

    def _worker_task(self, original, spec, mode):
        """One pinned run inside a pool worker, profiled on its own and
        spooled for the parent."""
        self.record = Record()
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        try:
            return original(spec, mode)
        finally:
            profile.disable()
            sums = dict(self.record.sums)
            for layer, seconds in layer_self_times(profile).items():
                sums[layer + ".self_s"] = sums.get(layer + ".self_s", 0.0) + seconds
            self._spooled += 1
            blob = {
                "pid": os.getpid(),
                "task_s": time.perf_counter() - start,
                "sums": sums,
                "spec_cache": sweep_mod.spec_cache_stats(),
            }
            # zero-padded, so a sorted listing is each worker's task order
            path = os.path.join(
                self.spool_dir, f"{os.getpid()}-{self._spooled:06d}.json"
            )
            with open(path + ".tmp", "w") as fh:
                json.dump(blob, fh)
            os.replace(path + ".tmp", path)

    def _drain(self) -> List[dict]:
        blobs = []
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                blobs.append(json.load(fh))
            os.remove(path)
        return blobs

    # -- one traced operation ------------------------------------------------

    def begin(self) -> None:
        """Start tracing; the operation's set-up follows."""
        self.record = Record()
        self._drain()
        self._at_begin = sweep_mod.executor_stats()
        self.active = True
        self._profile = cProfile.Profile()
        self._profile.enable()

    def setup_done(self) -> None:
        """Set-up ended: worker tasks spooled so far (a pool's warm-up)
        are not part of the operation, but their spec-cache counters are
        the workers' baseline."""
        self._cache_baseline = {
            blob["pid"]: blob["spec_cache"] for blob in self._drain()
        }
        self._at_op = sweep_mod.executor_stats()
        self._cache_at_op = sweep_mod.spec_cache_stats()

    def end(self) -> Record:
        """Stop tracing and return the operation's record."""
        self._profile.disable()
        self.active = False
        record = self.record
        for layer, seconds in layer_self_times(self._profile).items():
            record.sums[layer + ".self_s"] += seconds
        self._profile = None
        sums = record.sums
        stats, cache = sweep_mod.executor_stats(), sweep_mod.spec_cache_stats()
        sums["executor.pool_creates"] += (
            stats["pool_creates"] - self._at_begin["pool_creates"]
        )
        sums["executor.tasks"] += (
            stats["tasks_dispatched"] - self._at_op["tasks_dispatched"]
        )
        for key in ("hits", "misses"):
            sums["spec_cache." + key] += cache[key] - self._cache_at_op[key]
        for blob in self._drain():
            record.merge_worker(blob)
        for pid, counts in record.worker_cache.items():
            # a worker forked during set-up starts from the counters its
            # warm-up tasks left
            base = self._cache_baseline.get(pid, {"hits": 0, "misses": 0})
            for key in ("hits", "misses"):
                sums["spec_cache." + key] += counts[key] - base[key]
        return record


def _harvest(sums, run: ScenarioRun, result) -> None:
    """Simulated counters of one executed scenario run."""
    sums["net.packets_forwarded"] += sum(
        node.forwarded
        for node in run.topology.nodes.values()
        if isinstance(node, Switch)
    )
    decided = sum(g.decided for g in result.paxos_groups)
    sums["workloads.requests"] += result.total_responses + decided
    kvs = [h for h in result.hosts if h.app == "kvs"]
    sums["apps.kvs.hw_hits"] += sum(h.hw_hits for h in kvs)
    sums["apps.kvs.hw_lookups"] += sum(h.hw_hits + h.hw_miss_forwards for h in kvs)
    sums["apps.paxos.retries"] += sum(g.retries for g in result.paxos_groups)
    sums["core.shifts"] += sum(
        len(h.shift_times_us) for h in result.all_hosts
    ) + sum(len(g.shift_times_us) for g in result.paxos_groups)
