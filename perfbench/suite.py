"""The benchmark's workloads.

Each workload is a batch job one caller waits for.  ``prepare`` builds the
inputs of one operation from the seed (set-up, timed apart), ``steps``
splits the timed call into the pieces the timer runs one by one and
``check`` verifies its output.  The seed
reaches the program only through the scenario or sweep factory's
``seed=``.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.scenarios import sweep as sweep_mod
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.registry import build_spec
from repro.units import sec

#: per-placement wall power must sum to the scenario total within this
POWER_TOL_W = 1e-6


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def rate_ramp(n: int, lo: float = 8.0, hi: float = 32.0) -> tuple:
    """``n`` evenly spaced per-host rates from ``lo`` to ``hi`` kpps."""
    return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Checked:
    """What :meth:`Workload.check` found in one operation's output."""

    points: int  # grid points (or scenario runs) the operation answered
    failed_points: int
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    des_points: int = 0


def _power_problem(label: str, attributed: float, total: float) -> Optional[str]:
    if abs(attributed - total) > POWER_TOL_W:
        return (
            f"{label}: per-placement power sums to {attributed!r} W, "
            f"total is {total!r} W"
        )
    return None


class Workload:
    name = ""

    def prepare(self, seed: int):
        raise NotImplementedError

    def points(self, prepared) -> int:
        """Grid points (or scenario runs) one operation answers."""
        return 1

    def steps(self, prepared) -> list:
        """The timed call as callables run in order, the timer calibrating
        between them; the last one returns the outcome."""
        raise NotImplementedError

    def check(self, prepared, outcome) -> Checked:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process the workload started."""


class MixedRackDes(Workload):
    """``rack-mixed`` run once through the DES: every app, every
    controller kind, one long event loop."""

    name = "mixed-rack-des"
    horizon_s = 1.0
    #: the event loop runs in this many equal slices of simulated time (a
    #: resumed ``run_until`` continues the same event sequence) so that
    #: host-speed calibrations bracket pieces of well under a second
    slices = 8

    def prepare(self, seed):
        spec = build_spec("rack-mixed", duration_s=self.horizon_s, seed=seed)
        return ScenarioBuilder(spec).build()

    def steps(self, run):
        until = [sec(self.horizon_s * k / self.slices) for k in range(1, self.slices)]
        return [*(functools.partial(run.sim.run_until, t) for t in until), run.execute]

    def check(self, run, result) -> Checked:
        problems = []
        placements = [
            *(h.name for h in result.all_hosts),
            *(g.name for g in result.paxos_groups),
        ]
        missing = sorted(set(placements) - set(result.power_by_placement))
        if missing:
            problems.append(f"placements without power: {missing}")
        problems.extend(
            f"host {h.name} answered nothing"
            for h in result.all_hosts
            if h.responses <= 0
        )
        problems.extend(
            f"paxos group {g.name} decided nothing"
            for g in result.paxos_groups
            if g.decided <= 0
        )
        power = _power_problem(
            result.name, result.attributed_power_w(), result.total_wall_power_w
        )
        if power:
            problems.append(power)
        return Checked(
            points=1,
            failed_points=1 if problems else 0,
            problems=problems,
            digest=digest(result.render()),
        )


class _Sweep(Workload):
    """A §9.4 tipping sweep answered by ``run_sweep``."""

    def sweep_spec(self, seed: int):
        raise NotImplementedError

    def placements(self, params: Dict[str, object]) -> int:
        """Placements every aggregate of a grid point must attribute."""
        raise NotImplementedError

    def prepare(self, seed):
        # every operation is a cold batch job, as from the CLI: no
        # materialized spec survives from the previous operation
        sweep_mod.clear_spec_cache()
        return self.sweep_spec(seed)

    def points(self, spec):
        return len(spec.points())

    def check(self, spec, result) -> Checked:
        problems = []
        grid = spec.points()
        answered = [pt.params for pt in result.points]
        if answered != grid:
            problems.append(
                f"answered {len(answered)} of {len(grid)} grid points, "
                "or out of grid order"
            )
        failed_points = 0
        for pt in result.points:
            want = self.placements(pt.params)
            point_problems = []
            for agg in (pt.software, pt.hardware, pt.ondemand):
                if agg is None:
                    point_problems.append(f"{pt.params}: a pin is missing")
                    continue
                if len(agg.power_by_placement) != want:
                    point_problems.append(
                        f"{pt.params} {agg.mode}: {len(agg.power_by_placement)}"
                        f" placements answered, expected {want}"
                    )
                if agg.achieved_pps <= 0.0:
                    point_problems.append(f"{pt.params} {agg.mode}: served 0")
                power = _power_problem(
                    f"{pt.params} {agg.mode}",
                    agg.attributed_power_w,
                    agg.total_power_w,
                )
                if power:
                    point_problems.append(power)
            if point_problems:
                failed_points += 1
                problems.extend(point_problems)
        des = result.des_points_run
        if des is None or not 0 <= des <= result.grid_points_total:
            problems.append(
                f"des_points_run {des!r} outside [0, {result.grid_points_total}]"
            )
        if problems and failed_points == 0:
            # a sweep-level defect taints every point the sweep answered
            failed_points = len(grid)
        return Checked(
            points=len(grid),
            failed_points=failed_points,
            problems=problems,
            digest=digest(result.render()),
            des_points=des or 0,
        )


class KvsSweepPool(_Sweep):
    """Many short KVS-only DES runs fanned out over the fork pool."""

    name = "kvs-sweep-pool"
    duration_s = 0.02

    def __init__(self):
        self.workers = nproc()

    def sweep_spec(self, seed):
        return sweep_mod.build_sweep_spec(
            "sweep-rack-kvs",
            hosts=(1, 2, 4),
            rates_kpps=(8.0, 16.0, 24.0, 32.0),
            duration_s=self.duration_s,
            seed=seed,
        )

    def placements(self, params):
        return params["n_hosts"]

    def prepare(self, seed):
        spec = super().prepare(seed)
        # pool start is set-up: a fresh pool per operation, started by a
        # two-point sweep so the timed call finds it warm
        sweep_mod.shutdown_executor()
        warm = sweep_mod.build_sweep_spec(
            "sweep-rack-kvs",
            hosts=(1,),
            rates_kpps=(8.0, 16.0),
            duration_s=0.01,
            seed=seed,
        )
        sweep_mod.run_sweep(warm, workers=self.workers)
        return spec

    def steps(self, spec):
        return [functools.partial(sweep_mod.run_sweep, spec, workers=self.workers)]

    def close(self):
        sweep_mod.shutdown_executor()


class _FabricSweep(_Sweep):
    hosts_per_rack = 2

    def placements(self, params):
        return params["n_racks"] * self.hosts_per_rack


class FabricSweepAnalytic(_FabricSweep):
    """1024 fabric grid points answered by the steady fast path, no DES
    (twice the materialized-spec cache's capacity)."""

    name = "fabric-sweep-analytic"

    def sweep_spec(self, seed):
        return sweep_mod.build_sweep_spec(
            "sweep-fabric-scale",
            racks=(1, 2, 4, 8),
            rates_kpps=rate_ramp(256),
            hosts_per_rack=self.hosts_per_rack,
            seed=seed,
        )

    def steps(self, spec):
        return [functools.partial(sweep_mod.run_sweep, spec, fastpath=True)]


class FabricSweepAdaptive(_FabricSweep):
    """The adaptive crossover search: vectorized analytic grid plus a few
    DES probes at the brackets."""

    name = "fabric-sweep-adaptive"

    def sweep_spec(self, seed):
        return sweep_mod.build_sweep_spec(
            "sweep-fabric-scale",
            racks=(1, 2),
            rates_kpps=rate_ramp(16),
            hosts_per_rack=self.hosts_per_rack,
            duration_s=0.05,
            seed=seed,
        )

    def steps(self, spec):
        return [functools.partial(sweep_mod.run_sweep, spec, search="adaptive")]


WORKLOADS = {
    wl.name: wl
    for wl in (
        MixedRackDes,
        KvsSweepPool,
        FabricSweepAnalytic,
        FabricSweepAdaptive,
    )
}
