"""Scenario sweep engine — the §9.4 rack-scale tipping-point charts.

The paper's core claim is that in-network computing pays off only beyond a
per-application crossover rate; §9.4 asks where that crossover lands at
*rack scale*.  A :class:`~repro.scenarios.spec.ScenarioSweepSpec` names a
registered scenario and a grid of factory parameters (host count, per-host
offered rate, Paxos group count, …); :func:`run_sweep` materializes every
grid point through :class:`ScenarioBuilder` **twice** — once pinned to
software (controllers stripped, cards in the §9.2 standby configuration)
and once pinned to hardware (every placement shifted into the network at
t=0) — and reduces each run into a :class:`SweepAggregate`: achieved rate,
total rack **wall** power, p50/p99 latency, ops/W, and the per-placement
power attribution of :meth:`ScenarioResult.power_by_placement`.

The tipping point of a sweep is, for each setting of the non-ramp axes,
the first value of the ramp axis where the hardware-pinned rack beats the
software-pinned rack on ops/W — the rack-scale generalization of the §8
crossover (``repro.steady.base.find_crossover``) from analytic curves to
measured DES runs.

Named sweeps live in the registry here (``sweep-rack-kvs``,
``sweep-rack-mixed``); run one with ``python -m repro --sweep <name>`` or
:func:`run_sweep`.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import math
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, SimulationError
from ..sim.recorder import percentiles
from .builder import ScenarioBuilder, ScenarioResult, ScenarioRun
from .registry import _REGISTRY, resolve_factory
from .spec import (
    NO_CONTROLLER,
    ControllerSpec,
    ScenarioSpec,
    ScenarioSweepSpec,
    SweepAxis,
)

# ---------------------------------------------------------------------------
# Pinned scenario variants.
# ---------------------------------------------------------------------------


def software_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The sweep's software baseline: every placement stays on the host.

    Controllers are stripped (nothing may shift), co-located jobs are
    dropped (they exist to *trigger* controllers, and their CPU draw would
    pollute the power comparison), and ``power_save=True`` holds each card
    in the §9.2 standby configuration — the software phase of an on-demand
    rack, which is the baseline the paper's Figure 5 "SW + idle card"
    comparison uses.
    """
    return _pinned(spec, hardware=False)


def hardware_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The sweep's hardware run: every placement in the network from the
    first instant (``start_in_hardware``, applied by the builder before
    instrumentation, so even the t=0 power sample sees the active cards;
    caches start cold — warm-up is part of what the sweep measures).

    A NIC-only host (device ``none``) has nothing to pin *to*: it keeps
    running software even in the hardware run — exactly the §9.4 question
    "which hosts in a mixed rack should even have a card".
    """
    return _pinned(spec, hardware=True)


def ondemand_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The third pin: the scenario's *declared* on-demand controllers run
    live at the grid point, between the two static brackets.

    Placements start in software with cards in the §9.2 standby
    configuration (``power_save=True``) and shift — or don't — on their
    own controllers' triggers.  Co-located jobs are dropped for
    comparability with the pinned runs (their CPU draw would pollute the
    power comparison), so a host-driven controller without its job trigger
    may honestly never shift; the rate-driven families react to the grid
    point's offered rate.
    """
    kvs_hosts = tuple(
        dataclasses.replace(
            host, colocated=(), power_save=True, start_in_hardware=False
        )
        for host in spec.kvs_hosts
    )
    dns_hosts = tuple(
        dataclasses.replace(host, power_save=True, start_in_hardware=False)
        for host in spec.dns_hosts
    )
    paxos_groups = tuple(
        dataclasses.replace(group, start_in_hardware=False)
        for group in spec.paxos_groups
    )
    # the scenario-level fabric controller (if any) stays live: it is an
    # on-demand drive like the per-host controllers
    return dataclasses.replace(
        spec,
        name=f"{spec.name}[od]",
        kvs_hosts=kvs_hosts,
        dns_hosts=dns_hosts,
        paxos_groups=paxos_groups,
    )


def _pinned(spec: ScenarioSpec, hardware: bool) -> ScenarioSpec:
    suffix = "hw" if hardware else "sw"
    kvs_hosts = tuple(
        dataclasses.replace(
            host,
            controller=NO_CONTROLLER,
            colocated=(),
            power_save=True,
            # a NIC-only host can never shift; its "hardware" pin is the
            # software placement it is stuck with
            start_in_hardware=hardware and host.device.is_offload,
        )
        for host in spec.kvs_hosts
    )
    dns_hosts = tuple(
        dataclasses.replace(
            host,
            controller=NO_CONTROLLER,
            power_save=True,
            start_in_hardware=hardware and host.device.is_offload,
        )
        for host in spec.dns_hosts
    )
    paxos_groups = tuple(
        dataclasses.replace(
            group,
            controller=ControllerSpec(kind="schedule"),
            shifts=(),
            start_in_hardware=hardware,
        )
        for group in spec.paxos_groups
    )
    # a pinned rack must stay pinned: the centralized fabric controller
    # is stripped along with the per-host controllers
    return dataclasses.replace(
        spec,
        name=f"{spec.name}[{suffix}]",
        kvs_hosts=kvs_hosts,
        dns_hosts=dns_hosts,
        paxos_groups=paxos_groups,
        fabric_controller=None,
    )


# ---------------------------------------------------------------------------
# Per-point aggregates.
# ---------------------------------------------------------------------------


@dataclass
class SweepAggregate:
    """One pinned run reduced to the numbers the tipping chart needs.

    ``achieved_pps`` counts every operation the rack completed — KVS/DNS
    responses *plus* Paxos decisions (they are the ops of ops/W) —
    while ``offered_pps`` covers only the open-loop KVS/DNS clients;
    Paxos clients are closed-loop and offer no fixed rate, so
    ``achieved/offered`` is not a goodput ratio on mixed racks.
    """

    mode: str  # "software" | "hardware"
    offered_pps: float
    achieved_pps: float
    total_power_w: float
    p50_latency_us: float
    p99_latency_us: float
    ops_per_watt: float
    #: mean wall watts per placement (KVS host / DNS replica / Paxos group)
    power_by_placement: Dict[str, float] = field(default_factory=dict)

    @property
    def attributed_power_w(self) -> float:
        return sum(self.power_by_placement.values())


@dataclass
class SweepPointResult:
    """The pinned runs of one grid point: the software/hardware brackets
    plus the live on-demand controllers between them."""

    params: Dict[str, object]
    software: SweepAggregate
    hardware: SweepAggregate
    ondemand: Optional[SweepAggregate] = None
    #: True when the aggregates are analytic steady-state estimates filled
    #: in by the adaptive search rather than a DES replay of this point
    estimated: bool = False

    @property
    def hardware_wins(self) -> bool:
        """Does the hardware-pinned rack beat software on ops/W here?"""
        return self.hardware.ops_per_watt > self.software.ops_per_watt


@dataclass
class TippingPoint:
    """The crossover along the ramp axis for one setting of the others."""

    fixed: Dict[str, object]
    axis: str
    crossover: Optional[object]
    sw_ops_per_watt: Optional[float] = None
    hw_ops_per_watt: Optional[float] = None
    #: what the declared on-demand controllers achieved at the crossover
    #: point (between the two pins, when they react in time)
    od_ops_per_watt: Optional[float] = None
    #: once hardware wins, does it keep winning for every later ramp value?
    monotone: bool = True


@dataclass
class ScenarioSweepResult:
    """Every grid point of a sweep, plus the tipping-point reduction.

    ``search`` records how the grid was evaluated: ``"exhaustive"`` (every
    point through its configured path) or ``"adaptive"`` (DES only at the
    bracketed crossovers, analytic aggregates elsewhere).
    ``des_points_run`` counts the grid points whose pinned brackets
    replayed the DES — the savings counter ``des_points_run /
    grid_points_total`` the adaptive mode reports.  An adaptive run also
    stores its DES-confirmed crossover rows in ``tipping_rows``;
    :meth:`tipping_points` returns those instead of rescanning the mixed
    DES/analytic point list (the analytic fills are estimates and must not
    vote in the crossover scan).
    """

    spec: ScenarioSweepSpec
    points: List[SweepPointResult]
    search: str = "exhaustive"
    des_points_run: Optional[int] = None
    tipping_rows: Optional[List[TippingPoint]] = None

    @property
    def grid_points_total(self) -> int:
        return len(self.points)

    def point(self, **params) -> SweepPointResult:
        for pt in self.points:
            if all(pt.params.get(k) == v for k, v in params.items()):
                return pt
        raise KeyError(params)

    def tipping_points(self) -> List[TippingPoint]:
        """One crossover search per setting of the non-ramp axes."""
        if self.tipping_rows is not None:
            return list(self.tipping_rows)
        # scan in ramp order even when the axis was declared descending
        # (ramp_groups falls back to declaration order for non-comparable
        # axis values); ``points`` is index-aligned with the spec's grid
        axis = self.spec.resolved_tip_axis()
        return [
            _scan_tipping_group(fixed, axis, [self.points[i] for i in indices])
            for fixed, indices in self.spec.ramp_groups()
        ]

    # -- reporting -----------------------------------------------------------

    def render(self) -> str:
        from ..experiments.reporting import format_table

        axis_params = [a.param for a in self.spec.axes]
        with_od = any(pt.ondemand is not None for pt in self.points)
        pins = "3 pinned placements" if with_od else "2 pinned placements"
        lines = [
            f"Sweep: {self.spec.name} over {self.spec.base!r} — "
            f"{len(self.points)} points × {pins}",
        ]
        headers = axis_params + [
            "sw kpps", "sw W", "sw ops/W",
            "hw kpps", "hw W", "hw ops/W",
        ]
        if with_od:
            headers += ["od kpps", "od W", "od ops/W"]
        headers += ["winner"]
        rows = []
        for pt in self.points:
            row = [pt.params[p] for p in axis_params] + [
                pt.software.achieved_pps / 1e3,
                pt.software.total_power_w,
                pt.software.ops_per_watt,
                pt.hardware.achieved_pps / 1e3,
                pt.hardware.total_power_w,
                pt.hardware.ops_per_watt,
            ]
            if with_od:
                row += (
                    [
                        pt.ondemand.achieved_pps / 1e3,
                        pt.ondemand.total_power_w,
                        pt.ondemand.ops_per_watt,
                    ]
                    if pt.ondemand is not None
                    else ["-", "-", "-"]
                )
            winner = "hardware" if pt.hardware_wins else "software"
            if pt.estimated:
                winner = "~" + winner
            row += [winner]
            rows.append(row)
        lines.append(format_table(headers, rows))
        if any(pt.estimated for pt in self.points):
            lines.append(
                "~ analytic steady-state estimate (adaptive search; "
                "point not DES-replayed)"
            )
        lines.append("")
        axis = self.spec.resolved_tip_axis()
        lines.append(
            f"Tipping points: first {axis} where the hardware rack wins on ops/W"
        )
        other_params = [p for p in axis_params if p != axis]
        tip_headers = (other_params or ["rack"]) + [
            f"crossover {axis}", "sw ops/W @ tip", "hw ops/W @ tip",
        ]
        if with_od:
            tip_headers += ["ondemand ops/W @ tip"]
        tip_headers += ["monotone"]
        tip_rows = []
        for tip in self.tipping_points():
            prefix = (
                [tip.fixed[p] for p in other_params] if other_params else ["(all)"]
            )
            row = prefix + [
                tip.crossover if tip.crossover is not None else "-",
                tip.sw_ops_per_watt if tip.sw_ops_per_watt is not None else "-",
                tip.hw_ops_per_watt if tip.hw_ops_per_watt is not None else "-",
            ]
            if with_od:
                row += [
                    tip.od_ops_per_watt
                    if tip.od_ops_per_watt is not None
                    else "-"
                ]
            row += ["yes" if tip.monotone else "NO"]
            tip_rows.append(row)
        lines.append(format_table(tip_headers, tip_rows))
        last = self.points[-1]
        attribution = ", ".join(
            f"{name}={watts:.1f}W"
            for name, watts in last.hardware.power_by_placement.items()
        )
        lines.append("")
        lines.append(
            "per-placement wall power at the last point (hardware-pinned): "
            + attribution
        )
        if self.search == "adaptive" and self.des_points_run is not None:
            # exhaustive renders predate the counter and are golden-pinned
            total = self.grid_points_total
            saved = total - self.des_points_run
            lines.append(
                f"{self.search} search: DES on {self.des_points_run}/{total} "
                f"grid points ({saved} answered analytically)"
            )
        return "\n".join(lines)

    def save_png(self, path):
        """Render the crossover chart to ``path`` (requires matplotlib;
        text :meth:`render` stays the dependency-free contract)."""
        from ..experiments.plots import save_sweep_png

        return save_sweep_png(self, path)


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------


_VARIANTS = {
    "software": software_variant,
    "hardware": hardware_variant,
    "ondemand": ondemand_variant,
}


def run_pinned(spec: ScenarioSpec, mode: str) -> Tuple[ScenarioRun, ScenarioResult]:
    """Build and execute one variant ("software" | "hardware" |
    "ondemand") of a scenario point."""
    variant_fn = _VARIANTS.get(mode)
    if variant_fn is None:
        raise ConfigurationError(
            f"unknown pin mode {mode!r}; choose {', '.join(sorted(_VARIANTS))}"
        )
    run = ScenarioBuilder(variant_fn(spec)).build()
    return run, run.execute()


def _aggregate(run: ScenarioRun, result: ScenarioResult, mode: str) -> SweepAggregate:
    duration_s = result.duration_us / 1e6
    decided = sum(g.decided for g in result.paxos_groups)
    achieved_pps = (result.total_responses + decided) / duration_s
    latencies: List[float] = []
    for host in (*run.kvs_hosts, *run.dns_hosts):
        latencies.extend(
            v for v in host.client.latency_series.values if v is not None
        )
    for group in run.paxos_groups:
        for client in group.clients:
            latencies.extend(
                v for v in client.latency_series.values if v is not None
            )
    total_power_w = result.total_wall_power_w
    if total_power_w <= 0.0 and achieved_pps > 0.0:
        # mirror experiments.sweep.sweep_model: a rack serving traffic on
        # zero watts is a misconfigured model, not infinite efficiency
        raise ConfigurationError(
            f"scenario {result.name!r} reports non-positive wall power "
            f"({total_power_w}W) while serving {achieved_pps:.0f} pps"
        )
    p50, p99 = percentiles(latencies, (50.0, 99.0)) if latencies else (0.0, 0.0)
    return SweepAggregate(
        mode=mode,
        offered_pps=result.offered_pps,
        achieved_pps=achieved_pps,
        total_power_w=total_power_w,
        p50_latency_us=p50,
        p99_latency_us=p99,
        ops_per_watt=achieved_pps / total_power_w if total_power_w > 0 else 0.0,
        power_by_placement=dict(result.power_by_placement),
    )


def spec_hash(base: str, overrides: Dict[str, object]) -> str:
    """Stable hash of one grid point's materialization inputs: the base
    scenario name plus its full override set (sweep ``fixed`` + point
    params, key-sorted).  Override values are the primitives a sweep axis
    can carry (numbers, strings, tuples), whose ``repr`` is stable within
    a process — and the cache this keys is per-process anyway."""
    payload = repr(
        (base, sorted(overrides.items(), key=lambda item: item[0]))
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: Materialized-spec cache: grid points are re-materialized once per
#: eligibility precheck, once per task, and K times across replicate seeds
#: that share (base, overrides); specs are frozen dataclasses, so handing
#: the same instance out repeatedly is safe.  Entries pin the factory that
#: built them — a re-registered scenario name misses instead of serving a
#: stale spec.  Fork-started pool workers inherit a pre-warmed cache.
_SPEC_CACHE: "OrderedDict[Tuple[str, str], Tuple[Callable, ScenarioSpec]]" = (
    OrderedDict()
)
_SPEC_CACHE_MAX = 512
_spec_cache_hits = 0
_spec_cache_misses = 0


def spec_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the materialization cache (diagnostics)."""
    return {
        "hits": _spec_cache_hits,
        "misses": _spec_cache_misses,
        "size": len(_SPEC_CACHE),
    }


def clear_spec_cache() -> None:
    """Drop every cached materialized spec (and reset the counters)."""
    global _spec_cache_hits, _spec_cache_misses
    _SPEC_CACHE.clear()
    _spec_cache_hits = 0
    _spec_cache_misses = 0


def _materialize(sweep: ScenarioSweepSpec, params: Dict[str, object]) -> ScenarioSpec:
    global _spec_cache_hits, _spec_cache_misses
    overrides = {**sweep.fixed_dict(), **params}
    factory = resolve_factory(_REGISTRY, sweep.base, "scenario")
    key = (sweep.base, spec_hash(sweep.base, overrides))
    entry = _SPEC_CACHE.get(key)
    if entry is not None and entry[0] is factory:
        _spec_cache_hits += 1
        _SPEC_CACHE.move_to_end(key)
        return entry[1]
    _spec_cache_misses += 1
    try:
        spec = factory(**overrides)
    except TypeError as exc:
        raise ConfigurationError(
            f"sweep {sweep.name!r}: scenario factory {sweep.base!r} rejected "
            f"overrides {sorted(overrides)} ({exc})"
        ) from None
    _SPEC_CACHE[key] = (factory, spec)
    while len(_SPEC_CACHE) > _SPEC_CACHE_MAX:
        _SPEC_CACHE.popitem(last=False)
    return spec


def _estimate_aggregate(est, mode: str) -> SweepAggregate:
    """Shape a :class:`SteadyEstimate` into the sweep's aggregate record."""
    return SweepAggregate(
        mode=mode,
        offered_pps=est.offered_pps,
        achieved_pps=est.achieved_pps,
        total_power_w=est.total_power_w,
        p50_latency_us=est.p50_latency_us,
        p99_latency_us=est.p99_latency_us,
        ops_per_watt=est.ops_per_watt,
        power_by_placement=dict(est.power_by_placement),
    )


def _steady_aggregate(pinned_spec: ScenarioSpec, mode: str) -> SweepAggregate:
    """The fast path's analytic stand-in for one pinned DES run."""
    from .fastpath import steady_point

    return _estimate_aggregate(steady_point(pinned_spec, mode), mode)


def _run_grid_point(
    task: Tuple[ScenarioSweepSpec, Dict[str, object], bool]
) -> SweepPointResult:
    """The executor's task: every pinned variant of one grid point.

    Module-level (not a closure) so the pool can pickle it to worker
    processes.  Each point builds its own Simulator and RNGs from the
    spec's seeds, so running points in separate processes produces the
    same :class:`SweepPointResult` values as the serial loop.

    A failure is re-raised naming the point — its params, seed and
    :func:`spec_hash` — with the original chained.  It becomes a
    :class:`SimulationError`, except that a :class:`ConfigurationError`
    keeps its class: the caller's spec is at fault, and the CLI reports
    it as bad input.
    """
    spec, params, fastpath = task
    try:
        return _evaluate_grid_point(spec, params, fastpath)
    except Exception as exc:
        overrides = {**spec.fixed_dict(), **params}
        kind = (
            ConfigurationError
            if isinstance(exc, ConfigurationError)
            else SimulationError
        )
        raise kind(
            f"sweep {spec.name!r} grid point {params} "
            f"(seed={overrides.get('seed', 'scenario default')}, "
            f"spec_hash={spec_hash(spec.base, overrides)}) failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _evaluate_grid_point(
    spec: ScenarioSweepSpec, params: Dict[str, object], fastpath: bool
) -> SweepPointResult:
    from .fastpath import steady_eligible

    scenario = _materialize(spec, params)
    if fastpath and steady_eligible(software_variant(scenario)):
        # rate-constant KVS pins: the steady curves replace both DES
        # replays (the on-demand pin below still runs the full DES when it
        # can actually shift — controllers are not rate-constant)
        software = _steady_aggregate(software_variant(scenario), "software")
        hardware = _steady_aggregate(hardware_variant(scenario), "hardware")
    else:
        software = _aggregate(*run_pinned(scenario, "software"), "software")
        hardware = _aggregate(*run_pinned(scenario, "hardware"), "hardware")
    if _has_ondemand_drive(scenario):
        ondemand = _aggregate(*run_pinned(scenario, "ondemand"), "ondemand")
    else:
        # nothing can shift (no controllers, no scheduled shifts):
        # the on-demand run is the software run, so don't re-run it
        ondemand = dataclasses.replace(
            software,
            mode="ondemand",
            power_by_placement=dict(software.power_by_placement),
        )
    return SweepPointResult(
        params=params,
        software=software,
        hardware=hardware,
        ondemand=ondemand,
    )


# ---------------------------------------------------------------------------
# The executor: a persistent worker pool with chunked dispatch.
# ---------------------------------------------------------------------------

#: One long-lived pool reused across run_sweep/run_replicated calls:
#: forking + importing per call costs a noticeable fraction of a reduced
#: sweep's wall time, and sequential benchmark legs (serial vs pooled vs
#: pooled-again) were paying it over and over.
_POOL = None
_POOL_SIZE = 0
#: The scenario registry as the pool's workers saw it at fork time
#: (strong refs, compared by identity).  Fork workers resolve scenario
#: names in their inherited registry, so a scenario registered *after*
#: the fork would be invisible to a reused pool — recreate instead.
_POOL_REGISTRY: Optional[Dict[str, Callable]] = None

#: Executor observability (``--perf-stats``): how often parallel calls
#: found the persistent pool warm vs had to fork one, and how many grid
#: tasks were dispatched through it.
_EXECUTOR_STATS = {"pool_creates": 0, "pool_reuses": 0, "tasks_dispatched": 0}


def executor_stats() -> Dict[str, int]:
    """Pool create/reuse and dispatched-task counters (diagnostics)."""
    return dict(_EXECUTOR_STATS)


def reset_executor_stats() -> None:
    for key in _EXECUTOR_STATS:
        _EXECUTOR_STATS[key] = 0


def _fork_context():
    import multiprocessing

    # fork (where available) shares the already-imported registry with
    # the workers; spawn re-imports it, which also works — just slower.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _registry_changed() -> bool:
    return _POOL_REGISTRY is None or not (
        len(_POOL_REGISTRY) == len(_REGISTRY)
        and all(_REGISTRY.get(k) is v for k, v in _POOL_REGISTRY.items())
    )


def _get_pool(workers: int):
    """The shared pool, created on first use and reused while the worker
    count and the scenario registry stay the same."""
    global _POOL, _POOL_SIZE, _POOL_REGISTRY
    if _POOL is not None and (_POOL_SIZE != workers or _registry_changed()):
        shutdown_executor()
    if _POOL is None:
        _POOL = _fork_context().Pool(processes=workers)
        _POOL_SIZE = workers
        _POOL_REGISTRY = dict(_REGISTRY)
        _EXECUTOR_STATS["pool_creates"] += 1
    else:
        _EXECUTOR_STATS["pool_reuses"] += 1
    return _POOL


def shutdown_executor() -> None:
    """Tear down the persistent worker pool (idempotent; re-created on the
    next parallel call).  Registered at interpreter exit."""
    global _POOL, _POOL_SIZE, _POOL_REGISTRY
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_SIZE = 0
        _POOL_REGISTRY = None


atexit.register(shutdown_executor)


def _auto_chunksize(n_tasks: int, workers: int) -> int:
    """Dispatch granularity: ~4 chunks per worker.  Coarse enough that
    per-task IPC (pickle a spec over a pipe, wake the worker, pickle the
    result back) stops dominating second-long DES tasks, fine enough that
    work stealing still evens out slow points."""
    return max(1, n_tasks // (max(1, workers) * 4))


def _run_grid_point_packed(
    task: Tuple[ScenarioSweepSpec, Dict[str, object], bool]
) -> tuple:
    """Worker-side wrapper: run the grid point and ship back only the
    packed aggregate (:func:`_pack_point`) — per-rack placement series
    stay in the worker, so transport cost is independent of fabric size."""
    return _pack_point(_run_grid_point(task))


def _dispatch(
    tasks: Sequence[Tuple[ScenarioSweepSpec, Dict[str, object], bool]],
    workers: Optional[int],
) -> List[SweepPointResult]:
    """Run grid-point tasks, in task order — the one dispatch path of
    :func:`run_sweep`, :func:`run_replicated` and the adaptive probe waves.

    ``workers`` > 1 fans the tasks out over the persistent pool in
    auto-sized chunks, results shipped back packed; otherwise (or for a
    single task) they run in-process.  Every point seeds its own simulator
    and RNGs, and ``Pool.map`` preserves task order, so the result is the
    same list either way.
    """
    if workers is None or workers == 1 or len(tasks) <= 1:
        return [_run_grid_point(task) for task in tasks]
    pool = _get_pool(workers)
    _EXECUTOR_STATS["tasks_dispatched"] += len(tasks)
    try:
        packed = pool.map(
            _run_grid_point_packed, tasks, _auto_chunksize(len(tasks), workers)
        )
    except Exception:
        # a dead or poisoned pool must not wedge the next call
        shutdown_executor()
        raise
    return [_unpack_point(*blob) for blob in packed]


def _fastpath_flags(
    spec: ScenarioSweepSpec, grid: Sequence[Dict[str, object]]
) -> List[bool]:
    """Per grid point: can the steady fast path answer it?"""
    from .fastpath import steady_eligible

    return [
        steady_eligible(software_variant(_materialize(spec, params)))
        for params in grid
    ]


def _fastpath_des_points(
    spec: ScenarioSweepSpec, grid: Sequence[Dict[str, object]]
) -> int:
    """Grid points ``fastpath=True`` still replays through the DES.

    A sweep where no point qualifies would silently run the full DES for
    everything — refuse instead.  Materializing the grid here also warms
    the spec cache that fork workers inherit.
    """
    ineligible = _fastpath_flags(spec, grid).count(False)
    if ineligible < len(grid):
        return ineligible
    raise ConfigurationError(
        f"sweep {spec.name!r} over {spec.base!r}: fastpath=True, but no "
        "grid point is steady-state eligible — every point would silently "
        "run the full DES; drop fastpath=True or sweep an eligible "
        "scenario (see repro.scenarios.fastpath.steady_eligible)"
    )


_SEARCH_MODES = ("exhaustive", "adaptive")


def _resolve_sweep(
    sweep: Union[str, ScenarioSweepSpec], overrides: Dict[str, object]
) -> ScenarioSweepSpec:
    """The validated spec of a named sweep (factory ``overrides``
    applied) or of an explicit spec (which takes no overrides)."""
    if isinstance(sweep, ScenarioSweepSpec):
        if overrides:
            raise ConfigurationError(
                "overrides apply to named sweeps; pass an adjusted spec instead"
            )
        spec = sweep
    else:
        spec = build_sweep_spec(sweep, **overrides)
    return spec.validate()


def _check_search(
    search: str,
    fastpath: bool,
    anchors: Sequence[Dict[str, object]],
    workers: Optional[int],
) -> None:
    """Reject inconsistent evaluation options before any point runs."""
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if search not in _SEARCH_MODES:
        raise ConfigurationError(
            f"unknown search mode {search!r}; choose "
            f"{', '.join(_SEARCH_MODES)}"
        )
    if anchors and search != "adaptive":
        raise ConfigurationError(
            "anchors apply to search='adaptive' (the exhaustive search "
            "replays every grid point anyway)"
        )
    if fastpath and search == "adaptive":
        raise ConfigurationError(
            "fastpath=True is redundant under search='adaptive' (un"
            "probed points are already analytic); choose one of the two"
        )


def _validate_anchors(
    spec: ScenarioSweepSpec, anchors: Sequence[Dict[str, object]]
) -> None:
    axis_params = {a.param for a in spec.axes}
    for anchor in anchors:
        if not anchor:
            raise ConfigurationError(
                "an empty anchor matches every grid point; give axis=value "
                "pairs to pin the points that must replay the DES"
            )
        unknown = sorted(set(anchor) - axis_params)
        if unknown:
            raise ConfigurationError(
                f"anchor keys {unknown} are not axes of sweep {spec.name!r} "
                f"(axes: {sorted(axis_params)})"
            )


def _matches_anchors(
    params: Dict[str, object], anchors: Sequence[Dict[str, object]]
) -> bool:
    return any(
        all(params.get(key) == value for key, value in anchor.items())
        for anchor in anchors
    )


def _bracket_first_win(flags: Sequence[bool]) -> Optional[int]:
    """Position of the first analytic win along one ramp group.

    Bisection over the (assumed monotone lose→win) analytic flags — the
    crossover bracket refined to axis resolution — verified against the
    prefix so a non-monotone analytic curve falls back to the exact
    linear scan instead of returning a wrong bracket.
    """
    if not any(flags):
        return None
    lo, hi = 0, len(flags) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if flags[mid]:
            hi = mid
        else:
            lo = mid + 1
    if any(flags[pos] for pos in range(lo)):  # non-monotone analytics
        return list(flags).index(True)
    return lo


def _linear_fill(
    xs: Sequence[int], ys: Sequence[float], n: int
) -> List[float]:
    """Piecewise-linear interpolation of samples ``(xs, ys)`` over
    ``range(n)``, linearly extrapolated from the two nearest samples past
    each end (flat when only one sample exists).  ``xs`` is sorted."""
    out = []
    for x in range(n):
        if len(xs) == 1:
            out.append(ys[0])
            continue
        if x <= xs[0]:
            j = 1
        elif x >= xs[-1]:
            j = len(xs) - 1
        else:
            j = next(k for k in range(1, len(xs)) if xs[k] >= x)
        x0, x1, y0, y1 = xs[j - 1], xs[j], ys[j - 1], ys[j]
        out.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return out


def _scan_tipping_group(
    fixed: Dict[str, object],
    axis: str,
    pts: Sequence[SweepPointResult],
) -> TippingPoint:
    """The exhaustive crossover scan over one fully-evaluated ramp group
    (ordered along the ramp axis) — the one reduction both
    :meth:`ScenarioSweepResult.tipping_points` and the adaptive search
    apply."""
    crossover = None
    sw_opw = hw_opw = od_opw = None
    monotone = True
    seen_win = False
    for pt in pts:
        if pt.hardware_wins:
            if not seen_win:
                seen_win = True
                crossover = pt.params[axis]
                sw_opw = pt.software.ops_per_watt
                hw_opw = pt.hardware.ops_per_watt
                if pt.ondemand is not None:
                    od_opw = pt.ondemand.ops_per_watt
        elif seen_win:
            monotone = False
    return TippingPoint(
        fixed=dict(fixed),
        axis=axis,
        crossover=crossover,
        sw_ops_per_watt=sw_opw,
        hw_ops_per_watt=hw_opw,
        od_ops_per_watt=od_opw,
        monotone=monotone,
    )


def _run_adaptive(
    spec: ScenarioSweepSpec,
    grid: Sequence[Dict[str, object]],
    workers: Optional[int],
    anchors: Sequence[Dict[str, object]] = (),
    bracket_hints: Optional[Dict[int, Optional[int]]] = None,
    hints_out: Optional[Dict[int, Optional[int]]] = None,
) -> ScenarioSweepResult:
    """The adaptive crossover search: analytic grid, calibrated brackets,
    DES only at the decision boundary.

    One :func:`repro.scenarios.fastpath.steady_grid` call per pin (the
    memoized steady models, a few scalar calls per host) answers the
    analytic ops/W margin ``hw − sw`` at every eligible grid
    point.  The analytic margin has the right *shape* but a finite-replay
    bias against the DES (the fast-path tolerance, a few percent — enough
    to flip the winner where the pins are close), so each ramp group's
    crossover is located on the **calibrated** margin: every DES probe
    contributes a bias sample ``margin_DES − margin_analytic`` at its ramp
    position, pooled across groups (the grid is a full product, so groups
    share ramp positions) and interpolated linearly across positions.  A
    group converges when its first predicted win is DES-confirmed **and**
    the preceding ramp value is a DES-confirmed loss — the reported
    crossover row is built from real replays only, identical to the
    exhaustive row under the paper's monotone-crossover premise (§8: once
    hardware wins it keeps winning along the ramp).  Any probe that
    contradicts that premise (a DES loss above a DES-confirmed win)
    demotes its whole group to exhaustive DES, which reproduces the
    non-monotone row exactly.  Never-tipping groups DES-confirm only the
    last ramp value; groups with ineligible points (and user-anchored
    points) replay the DES outright.

    Unprobed points carry the analytic aggregates, flagged
    ``estimated=True`` (the on-demand column is filled only where nothing
    could shift); the DES-confirmed rows are stored on the result so the
    tipping reduction never consults the estimates.

    ``bracket_hints`` seeds each group's initial probe position
    (:func:`run_replicated` brackets once on seed 0 and DES-validates the
    bracket per replicate seed); ``hints_out``, when given, receives this
    run's confirmed crossover positions in the same shape.
    """
    scenarios = [_materialize(spec, params) for params in grid]
    from .fastpath import steady_eligible, steady_grid

    eligible = [steady_eligible(software_variant(sc)) for sc in scenarios]
    if not any(eligible):
        raise ConfigurationError(
            f"sweep {spec.name!r} over {spec.base!r}: search='adaptive', "
            "but no grid point is steady-state eligible — there is no "
            "analytic grid to bracket crossovers on; use the exhaustive "
            "search (see repro.scenarios.fastpath.steady_eligible)"
        )
    _validate_anchors(spec, anchors)
    # one steady_grid call per pin answers every eligible point
    elig = [i for i in range(len(grid)) if eligible[i]]
    sw_est = steady_grid(
        [software_variant(scenarios[i]) for i in elig], "software"
    )
    hw_est = steady_grid(
        [hardware_variant(scenarios[i]) for i in elig], "hardware"
    )
    analytic: Dict[int, Tuple[SweepAggregate, SweepAggregate]] = {}
    margin_a: Dict[int, float] = {}
    for i, sw, hw in zip(elig, sw_est, hw_est):
        sw_agg = _estimate_aggregate(sw, "software")
        hw_agg = _estimate_aggregate(hw, "hardware")
        analytic[i] = (sw_agg, hw_agg)
        margin_a[i] = hw_agg.ops_per_watt - sw_agg.ops_per_watt
    groups = spec.ramp_groups()
    adaptive_groups = [
        (g, indices)
        for g, (_, indices) in enumerate(groups)
        if all(eligible[i] for i in indices)
    ]
    demoted: set = set()  # groups that fell back to exhaustive DES
    pending = {
        i
        for _, indices in groups
        if not all(eligible[j] for j in indices)
        for i in indices
    }
    pending.update(
        i
        for i, params in enumerate(grid)
        if _matches_anchors(params, anchors)
    )
    for g, indices in adaptive_groups:
        if bracket_hints is not None and g in bracket_hints:
            k = bracket_hints[g]
        elif (g, indices) == adaptive_groups[0]:
            # seed only the first group: its ramp endpoints calibrate the
            # pooled bias across the whole ramp (linear in position), and
            # its analytic bracket lands the first crossover candidate —
            # the remaining groups then bracket off the calibrated
            # margins, which beat the raw analytic flags by construction
            pending.add(indices[0])
            pending.add(indices[-1])
            k = _bracket_first_win([margin_a[i] > 0.0 for i in indices])
        else:
            continue
        if k is None:
            pending.add(indices[-1])
        else:
            k = min(k, len(indices) - 1)
            pending.add(indices[k])
            if k > 0:
                pending.add(indices[k - 1])
    probed: Dict[int, SweepPointResult] = {}

    def _margin_des(i: int) -> float:
        pt = probed[i]
        return pt.hardware.ops_per_watt - pt.software.ops_per_watt

    def _first_win(g: int, indices: Sequence[int]) -> Optional[int]:
        """First effective win: DES flags where probed, calibrated
        analytic margins elsewhere.

        The bias (DES margin − analytic margin) is estimated local-first:
        a group with two or more of its own probes gets a linear fit of
        its own samples (bias drifts near-linearly along the ramp); with
        exactly one it borrows the *shape* pooled across every group's
        samples, re-anchored through its own point; with none it takes
        the pooled shape as-is.  Local-first matters because groups can
        sit a few ops/W apart (host counts) or on entirely different
        scales (device kinds) — one group's raw samples must not poison
        another's bracket.
        """
        n = len(indices)
        per_group: Dict[int, Dict[int, float]] = {}
        by_pos: Dict[int, List[float]] = {}
        for h, h_indices in adaptive_groups:
            samples = {
                pos: _margin_des(i) - margin_a[i]
                for pos, i in enumerate(h_indices)
                if i in probed
            }
            per_group[h] = samples
            for pos, v in samples.items():
                by_pos.setdefault(pos, []).append(v)
        xs = sorted(by_pos)
        ys = [sum(by_pos[x]) / len(by_pos[x]) for x in xs]
        shape = _linear_fill(xs, ys, n) if xs else [0.0] * n
        own = per_group.get(g, {})
        if len(own) >= 2:
            xs_own = sorted(own)
            bias = _linear_fill(xs_own, [own[p] for p in xs_own], n)
        elif len(own) == 1:
            (p0, s0), = own.items()
            bias = [shape[pos] + (s0 - shape[p0]) for pos in range(n)]
        else:
            bias = shape
        for pos, i in enumerate(indices):
            if i in probed:
                won = probed[i].hardware_wins
            else:
                won = margin_a[i] + bias[pos] > 0.0
            if won:
                return pos
        return None

    while True:
        todo = sorted(i for i in pending if i not in probed)
        pending.clear()
        if todo:
            # one probe wave; byte-identical to the same points of an
            # exhaustive run
            tasks = [(spec, grid[i], False) for i in todo]
            probed.update(zip(todo, _dispatch(tasks, workers)))
        for g, indices in adaptive_groups:
            if g in demoted:
                pending.update(i for i in indices if i not in probed)
                continue
            k_eff = _first_win(g, indices)
            if k_eff is None:
                # never tips (so far): the last ramp value must be a
                # DES-confirmed loss
                if indices[-1] not in probed:
                    pending.add(indices[-1])
                continue
            # a DES loss above a DES-confirmed win breaks the monotone
            # premise — this group needs the full exhaustive scan
            if any(
                indices[q] in probed and not probed[indices[q]].hardware_wins
                for q in range(k_eff + 1, len(indices))
            ) and indices[k_eff] in probed:
                demoted.add(g)
                pending.update(i for i in indices if i not in probed)
                continue
            if indices[k_eff] not in probed:
                pending.add(indices[k_eff])
            elif k_eff > 0 and indices[k_eff - 1] not in probed:
                pending.add(indices[k_eff - 1])
        if not pending:
            break
    # DES-confirmed rows, in the tipping scan's group order
    rows: List[TippingPoint] = []
    axis = spec.resolved_tip_axis()
    adaptive_by_g = dict(adaptive_groups)
    final_pos: Dict[int, Optional[int]] = {}
    for g, (fixed, indices) in enumerate(groups):
        fully_probed = all(i in probed for i in indices)
        if g not in adaptive_by_g or (fully_probed and g in demoted):
            rows.append(
                _scan_tipping_group(fixed, axis, [probed[i] for i in indices])
            )
            if g in adaptive_by_g:
                flags = [probed[i].hardware_wins for i in indices]
                final_pos[g] = flags.index(True) if any(flags) else None
            continue
        w = _first_win(g, indices)
        final_pos[g] = w
        if w is None:
            rows.append(
                TippingPoint(fixed=dict(fixed), axis=axis, crossover=None)
            )
            continue
        pt = probed[indices[w]]
        rows.append(
            TippingPoint(
                fixed=dict(fixed),
                axis=axis,
                crossover=pt.params[axis],
                sw_ops_per_watt=pt.software.ops_per_watt,
                hw_ops_per_watt=pt.hardware.ops_per_watt,
                od_ops_per_watt=(
                    pt.ondemand.ops_per_watt
                    if pt.ondemand is not None
                    else None
                ),
                monotone=True,
            )
        )
    if hints_out is not None:
        hints_out.update(final_pos)
    points = []
    for i, params in enumerate(grid):
        if i in probed:
            points.append(probed[i])
            continue
        sw_agg, hw_agg = analytic[i]
        if _has_ondemand_drive(scenarios[i]):
            # the controllers never ran at this point; leave the column
            # empty rather than substitute a curve for live behavior
            ondemand = None
        else:
            ondemand = dataclasses.replace(
                sw_agg,
                mode="ondemand",
                power_by_placement=dict(sw_agg.power_by_placement),
            )
        points.append(
            SweepPointResult(
                params=params,
                software=sw_agg,
                hardware=hw_agg,
                ondemand=ondemand,
                estimated=True,
            )
        )
    return ScenarioSweepResult(
        spec=spec,
        points=points,
        search="adaptive",
        des_points_run=len(probed),
        tipping_rows=rows,
    )


def run_sweep(
    sweep: Union[str, ScenarioSweepSpec],
    workers: Optional[int] = None,
    fastpath: bool = False,
    search: str = "exhaustive",
    anchors: Sequence[Dict[str, object]] = (),
    **overrides,
) -> ScenarioSweepResult:
    """Execute a sweep (named, or an explicit spec) over its whole grid.

    ``workers`` > 1 fans the grid points out over the persistent process
    pool (one point — all of its pinned runs — per task; see
    :func:`_dispatch`).  The parallel result, point order included, is
    identical to the serial one.  The default is the serial in-process
    loop.

    ``fastpath=True`` answers steady-state-eligible grid points (see
    :func:`repro.scenarios.fastpath.steady_eligible`) from the analytic
    models instead of replaying the DES — opt-in, because the numbers are
    the infinite-horizon limit rather than the finite replay (held within
    tolerance by the fastpath validation gate, but not byte-identical).
    Raises :class:`ConfigurationError` when *no* grid point qualifies —
    a fastpath request that would silently run the full DES everywhere
    is a misconfiguration, not a slow success.

    ``search="adaptive"`` brackets each ramp group's sw/hw crossover on
    the analytic grid and replays the full DES only at the
    bracketing points (plus any ``anchors`` — mappings of axis values
    that must always replay), walking the bracket until the crossover is
    DES-confirmed on both sides; every other point carries analytic
    aggregates.  The tipping rows are the ones the exhaustive search
    reports whenever the analytic win flags agree with the DES away from
    the bracket (the walk re-probes every disagreement it meets), and
    ``result.des_points_run / result.grid_points_total`` is the savings
    counter.
    """
    spec = _resolve_sweep(sweep, overrides)
    _check_search(search, fastpath, anchors, workers)
    grid = spec.points()
    if search == "adaptive":
        return _run_adaptive(spec, grid, workers, anchors=anchors)
    des_points = _fastpath_des_points(spec, grid) if fastpath else len(grid)
    points = _dispatch([(spec, params, fastpath) for params in grid], workers)
    return ScenarioSweepResult(
        spec=spec, points=points, des_points_run=des_points
    )


# ---------------------------------------------------------------------------
# Replication: K seeds per grid point (statistical weight at sweep scale).
# ---------------------------------------------------------------------------


def replication_seeds(base_seed: int, k: int) -> List[int]:
    """K deterministic, independent seeds derived from ``base_seed``.

    ``seeds[0]`` **is** ``base_seed``, so a K=1 replication reproduces the
    single-seed sweep byte-for-byte; the rest hash the base through
    sha256, the same namespacing discipline :class:`repro.sim.rng.RngStreams`
    uses, so replicate streams never collide with each other or with any
    in-run stream.
    """
    if k < 1:
        raise ConfigurationError(f"replication needs >= 1 seed, got {k}")
    seeds = [int(base_seed)]
    for i in range(1, k):
        digest = hashlib.sha256(f"{base_seed}:replicate:{i}".encode()).digest()
        seeds.append(int.from_bytes(digest[:8], "big"))
    return seeds


#: two-sided 95% t critical values keyed by sample count (df = n-1);
#: larger replications use :func:`_t95`'s expansion.
_T95_BY_N = {
    2: 12.706, 3: 4.303, 4: 3.182, 5: 2.776, 6: 2.571,
    7: 2.447, 8: 2.365, 9: 2.306, 10: 2.262, 11: 2.228,
    12: 2.201, 13: 2.179, 14: 2.160, 15: 2.145, 16: 2.131,
    17: 2.120, 18: 2.110, 19: 2.101, 20: 2.093, 21: 2.086,
    22: 2.080, 23: 2.074, 24: 2.069, 25: 2.064, 26: 2.060,
    27: 2.056, 28: 2.052, 29: 2.048, 30: 2.045,
}


def _t95(n: int) -> float:
    """Two-sided 95% t critical value for ``n`` samples: the table through
    n=30, then the first-order Cornish-Fisher expansion around the normal
    quantile (within 0.2% of the exact value for df >= 30)."""
    if n in _T95_BY_N:
        return _T95_BY_N[n]
    z = 1.959964
    return z + (z**3 + z) / (4 * (n - 1))


@dataclass(frozen=True)
class ReplicateStats:
    """Mean ± 95% CI of one metric across the replicate seeds."""

    mean: float
    ci95: float
    n: int
    values: Tuple[float, ...] = ()


def replicate_stats(values: Sequence[float]) -> ReplicateStats:
    """Small-n t-interval summary of per-seed metric values."""
    n = len(values)
    if n == 0:
        raise ConfigurationError("no replicate values to summarize")
    mean = sum(values) / n
    if n == 1:
        return ReplicateStats(mean=mean, ci95=0.0, n=1, values=tuple(values))
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = _t95(n)
    return ReplicateStats(
        mean=mean,
        ci95=t * math.sqrt(var / n),
        n=n,
        values=tuple(values),
    )


#: scalar SweepAggregate fields carried across the process boundary.
_AGG_FIELDS = (
    "offered_pps",
    "achieved_pps",
    "total_power_w",
    "p50_latency_us",
    "p99_latency_us",
    "ops_per_watt",
)


def _pack_point(pt: SweepPointResult) -> tuple:
    """Reduce a grid-point result to compact transport: one ``array('d')``
    byte blob of per-mode aggregates plus a tiny name layout.

    Raw series never cross the process boundary — a packed point is a few
    hundred bytes regardless of the run's event count — and the
    float64 round-trip is exact, so parallel replication stays
    byte-identical to serial execution.
    """
    aggs = [("software", pt.software), ("hardware", pt.hardware)]
    if pt.ondemand is not None:
        aggs.append(("ondemand", pt.ondemand))
    layout = []
    vals = array("d")
    for mode, agg in aggs:
        names = tuple(agg.power_by_placement)
        layout.append((mode, names))
        vals.extend(getattr(agg, f) for f in _AGG_FIELDS)
        vals.extend(agg.power_by_placement[name] for name in names)
    return pt.params, tuple(layout), vals.tobytes()


def _unpack_point(
    params: Dict[str, object], layout: tuple, blob: bytes
) -> SweepPointResult:
    vals = array("d")
    vals.frombytes(blob)
    offset = 0
    by_mode: Dict[str, SweepAggregate] = {}
    n_fields = len(_AGG_FIELDS)
    for mode, names in layout:
        fields = dict(zip(_AGG_FIELDS, vals[offset:offset + n_fields]))
        offset += n_fields
        placements = dict(zip(names, vals[offset:offset + len(names)]))
        offset += len(names)
        by_mode[mode] = SweepAggregate(
            mode=mode, power_by_placement=placements, **fields
        )
    return SweepPointResult(
        params=params,
        software=by_mode["software"],
        hardware=by_mode["hardware"],
        ondemand=by_mode.get("ondemand"),
    )


def _with_seed(spec: ScenarioSweepSpec, seed: int) -> ScenarioSweepSpec:
    """The sweep spec with its fixed ``seed`` override replaced."""
    return dataclasses.replace(
        spec, fixed={**spec.fixed_dict(), "seed": seed}
    )


@dataclass
class ReplicatedSweepResult:
    """K seeded repetitions of a sweep, with cross-seed reductions.

    ``runs[0]`` used the sweep's own base seed, so it is byte-identical to
    the unreplicated :func:`run_sweep` result; the rest used derived
    seeds (:func:`replication_seeds`).
    """

    spec: ScenarioSweepSpec
    seeds: List[int]
    runs: List[ScenarioSweepResult]

    @property
    def base_run(self) -> ScenarioSweepResult:
        return self.runs[0]

    def point_stats(
        self, metric: str = "ops_per_watt"
    ) -> List[Dict[str, object]]:
        """Per grid point: mean ± CI of ``metric`` for each pinned mode."""
        out: List[Dict[str, object]] = []
        for i, base_pt in enumerate(self.runs[0].points):
            row: Dict[str, object] = {"params": dict(base_pt.params)}
            for mode in ("software", "hardware", "ondemand"):
                values = []
                for run in self.runs:
                    agg = getattr(run.points[i], mode)
                    if agg is None:
                        break
                    values.append(getattr(agg, metric))
                row[mode] = (
                    replicate_stats(values)
                    if len(values) == len(self.runs)
                    else None
                )
            out.append(row)
        return out

    def tipping_stats(self) -> List[Dict[str, object]]:
        """Per tipping group: how often the rack tipped across seeds, and
        the crossover's mean ± CI over the seeds where it did."""
        per_run = [run.tipping_points() for run in self.runs]
        out: List[Dict[str, object]] = []
        for group in zip(*per_run):
            first = group[0]
            crossings = [tip.crossover for tip in group]
            tipped = [c for c in crossings if c is not None]
            numeric = all(isinstance(c, (int, float)) for c in tipped)
            stats = (
                replicate_stats([float(c) for c in tipped])
                if tipped and numeric
                else None
            )
            out.append(
                {
                    "fixed": dict(first.fixed),
                    "axis": first.axis,
                    "tip_count": len(tipped),
                    "tip_fraction": len(tipped) / len(crossings),
                    "crossover": stats,
                    "crossovers": tuple(crossings),
                }
            )
        return out

    # -- reporting -----------------------------------------------------------

    def render(self) -> str:
        """Point and tipping tables with mean ± 95% CI error bars."""
        from ..experiments.reporting import format_table

        k = len(self.seeds)
        axis_params = [a.param for a in self.spec.axes]
        base_points = self.runs[0].points
        with_od = any(pt.ondemand is not None for pt in base_points)
        lines = [
            f"Replicated sweep: {self.spec.name} over {self.spec.base!r} — "
            f"{len(base_points)} points × K={k} seeds (mean ± 95% CI)",
        ]
        modes = ("software", "hardware") + (("ondemand",) if with_od else ())
        short = {"software": "sw", "hardware": "hw", "ondemand": "od"}
        headers = list(axis_params)
        for mode in modes:
            headers += [f"{short[mode]} ops/W", f"{short[mode]} ±"]
        headers += ["hw wins"]
        stats = self.point_stats("ops_per_watt")
        rows = []
        for i, row_stats in enumerate(stats):
            row: List[object] = [
                base_points[i].params[p] for p in axis_params
            ]
            for mode in modes:
                st = row_stats[mode]
                row += [st.mean, st.ci95] if st is not None else ["-", "-"]
            wins = sum(1 for run in self.runs if run.points[i].hardware_wins)
            row.append(f"{wins}/{k}")
            rows.append(row)
        lines.append(format_table(headers, rows))
        lines.append("")
        axis = self.spec.resolved_tip_axis()
        lines.append(
            f"Tipping points across seeds: first {axis} where the hardware "
            "rack wins on ops/W"
        )
        other = [p for p in axis_params if p != axis]
        tip_headers = (other or ["rack"]) + [
            "tipped", f"crossover {axis}", "±",
        ]
        tip_rows = []
        for group in self.tipping_stats():
            prefix = (
                [group["fixed"][p] for p in other] if other else ["(all)"]
            )
            st = group["crossover"]
            tip_rows.append(
                prefix
                + [
                    f"{group['tip_count']}/{k}",
                    st.mean if st is not None else "-",
                    st.ci95 if st is not None else "-",
                ]
            )
        lines.append(format_table(tip_headers, tip_rows))
        return "\n".join(lines)


def run_replicated(
    sweep: Union[str, ScenarioSweepSpec],
    *,
    seeds: int = 8,
    workers: Optional[int] = None,
    fastpath: bool = False,
    search: str = "exhaustive",
    **overrides,
) -> ReplicatedSweepResult:
    """Run a sweep K times with independent seeds (§9.4 with error bars).

    Replication is the grid path with a seed axis: the K seed variants ×
    grid points flatten into one task list through :func:`_dispatch`
    (``workers``, ``fastpath`` and ``**overrides`` mean what they mean in
    :func:`run_sweep`), and the results reassemble by index —
    ``result.runs[i]`` is byte-identical to running ``run_sweep`` with
    seed ``result.seeds[i]``, regardless of worker count.

    ``search="adaptive"`` brackets the crossovers once, on seed 0's
    analytic grid, and reuses the confirmed bracket as every later
    seed's starting probe — each seed still DES-validates its own
    crossover rows (the rows are per-seed DES facts; only the *starting
    point* of the walk is shared), so ``runs[i].tipping_points()``
    matches a standalone adaptive run of seed ``i``, while the probe
    *set* — and therefore which fill points are analytic estimates —
    may differ from the standalone run's.
    """
    spec = _resolve_sweep(sweep, overrides)
    _check_search(search, fastpath, (), workers)
    grid = spec.points()
    base_seed = spec.fixed_dict().get("seed")
    if base_seed is None:
        # the sweep does not pin a seed: replicate around the scenario's
        # own default (read off the first materialized point)
        base_seed = _materialize(spec, grid[0]).seed
    seed_list = replication_seeds(int(base_seed), seeds)
    variants = [_with_seed(spec, s) for s in seed_list]
    if search == "adaptive":
        # bracket once on seed 0's analytic grid; later replicates start
        # their DES validation from seed 0's confirmed crossovers
        hints: Optional[Dict[int, Optional[int]]] = None
        runs = []
        for variant in variants:
            hints_out: Dict[int, Optional[int]] = {}
            runs.append(
                _run_adaptive(
                    variant,
                    variant.points(),
                    workers,
                    bracket_hints=hints,
                    hints_out=hints_out,
                )
            )
            if hints is None:
                hints = hints_out
        return ReplicatedSweepResult(spec=spec, seeds=seed_list, runs=runs)
    # eligibility is seed-independent, so the base grid stands in for
    # every replicate's
    des_points = _fastpath_des_points(spec, grid) if fastpath else len(grid)
    tasks = [(v, params, fastpath) for v in variants for params in grid]
    points = _dispatch(tasks, workers)
    n = len(grid)
    runs = [
        ScenarioSweepResult(
            spec=variant,
            points=points[k * n:(k + 1) * n],
            des_points_run=des_points,
        )
        for k, variant in enumerate(variants)
    ]
    return ReplicatedSweepResult(spec=spec, seeds=seed_list, runs=runs)


def _has_ondemand_drive(spec: ScenarioSpec) -> bool:
    """Can anything in this scenario actually shift under its declared
    on-demand drive?  False when every host controller is ``none`` and no
    Paxos group has a rate controller or a shift schedule — then the
    on-demand variant is the software variant by construction."""
    if spec.fabric_controller is not None:
        return True
    if any(
        host.controller.kind != "none"
        for host in (*spec.kvs_hosts, *spec.dns_hosts)
    ):
        return True
    return any(
        group.controller.kind == "rate" or group.shifts
        for group in spec.paxos_groups
    )


# ---------------------------------------------------------------------------
# The sweep registry.
# ---------------------------------------------------------------------------

SweepFactory = Callable[..., ScenarioSweepSpec]

_SWEEPS: Dict[str, SweepFactory] = {}


def register_sweep(name: str) -> Callable[[SweepFactory], SweepFactory]:
    """Decorator: add a sweep factory to the catalogue under ``name``."""

    def wrap(factory: SweepFactory) -> SweepFactory:
        if name in _SWEEPS:
            raise ConfigurationError(f"duplicate sweep name {name!r}")
        _SWEEPS[name] = factory
        return factory

    return wrap


def sweep_names() -> List[str]:
    return sorted(_SWEEPS)


def sweep_descriptions() -> Dict[str, str]:
    """Name → one-line description for every registered sweep."""
    return {name: _SWEEPS[name]().description for name in sweep_names()}


def closest_sweep(name: str) -> Optional[str]:
    """The registered sweep most similar to ``name`` (case-insensitive)."""
    from .registry import closest_name

    return closest_name(name, sweep_names())


def build_sweep_spec(name: str, **overrides) -> ScenarioSweepSpec:
    """Instantiate a named sweep's spec (factory overrides applied).

    Exact case-insensitive spellings (``SWEEP-RACK-KVS``) resolve
    directly, mirroring :func:`repro.scenarios.registry.build_spec`.
    """
    from .registry import resolve_factory

    factory = resolve_factory(_SWEEPS, name, "sweep")
    try:
        return factory(**overrides)
    except TypeError as exc:
        raise ConfigurationError(
            f"sweep {name!r} rejected overrides {sorted(overrides)} ({exc})"
        ) from None


def sweep_fastpath_eligibility(
    sweep: Union[str, ScenarioSweepSpec], **overrides
) -> str:
    """Classify a sweep's grid for the analytic fast path.

    ``"eligible"`` — every grid point's pins are steady-state eligible
    (``fastpath=True`` answers them from the steady models and the
    adaptive search brackets on the whole grid); ``"partial"`` — only
    some points are; ``"DES-only"`` — none are (``fastpath=True`` and
    ``search="adaptive"`` both refuse).
    Shown per sweep by ``python -m repro --list``.
    """
    spec = _resolve_sweep(sweep, overrides)
    flags = _fastpath_flags(spec, spec.points())
    if all(flags):
        return "eligible"
    if any(flags):
        return "partial"
    return "DES-only"


# ---------------------------------------------------------------------------
# The catalogue.
# ---------------------------------------------------------------------------


@register_sweep("sweep-rack-kvs")
def sweep_rack_kvs(
    hosts: Tuple[int, ...] = (1, 2, 4, 8),
    rates_kpps: Tuple[float, ...] = (8.0, 16.0, 24.0, 32.0),
    duration_s: float = 0.5,
    keyspace: int = 8_000,
    seed: int = 11,
) -> ScenarioSweepSpec:
    """§9.4 flagship: a key-sharded memcached rack swept 1→8 hosts × a
    per-host ETC rate ramp, charting where the rack tips from software to
    hardware on ops/W."""
    return ScenarioSweepSpec(
        name="sweep-rack-kvs",
        base="rack-kvs",
        description=(
            "§9.4 tipping sweep: KVS rack, 1→8 hosts × per-host rate ramp "
            "(software vs hardware ops/W crossover)"
        ),
        axes=(
            SweepAxis("n_hosts", hosts),
            SweepAxis("rate_per_host_kpps", rates_kpps),
        ),
        fixed=dict(duration_s=duration_s, keyspace=keyspace, seed=seed),
        tip_axis="rate_per_host_kpps",
    )


@register_sweep("sweep-rack-hetero")
def sweep_rack_hetero(
    device_kinds: Tuple[str, ...] = ("netfpga-sume", "asic-nic", "none"),
    rates_kpps: Tuple[float, ...] = (8.0, 16.0, 24.0, 32.0),
    duration_s: float = 0.5,
    keyspace: int = 8_000,
    seed: int = 11,
) -> ScenarioSweepSpec:
    """The device axis made sweepable: homogeneous ``rack-hetero`` racks,
    one grid row per **device kind** × a per-host rate ramp, so the
    tipping table reports each device's own rack-scale crossover — the
    ASIC SmartNIC tips at a lower rate than the NetFPGA, and the NIC-only
    row never tips (there is no hardware to win)."""
    return ScenarioSweepSpec(
        name="sweep-rack-hetero",
        base="rack-hetero",
        description=(
            "per-device tipping sweep: homogeneous racks per offload "
            "device kind × per-host rate ramp (incl. NIC-only)"
        ),
        axes=(
            SweepAxis("device_kind", device_kinds),
            SweepAxis("rate_per_host_kpps", rates_kpps),
        ),
        fixed=dict(
            duration_s=duration_s,
            keyspace=keyspace,
            seed=seed,
            # steady grid points: the ramp is the mixed showcase's drive
            ramp=False,
            # controllers must fit the short horizon for the on-demand pin
            ctl_window_s=0.15,
        ),
        tip_axis="rate_per_host_kpps",
    )


@register_sweep("sweep-fabric-scale")
def sweep_fabric_scale(
    racks: Tuple[int, ...] = (1, 2, 4),
    rates_kpps: Tuple[float, ...] = (8.0, 16.0, 24.0, 32.0),
    hosts_per_rack: int = 2,
    oversubscription: float = 4.0,
    duration_s: float = 0.5,
    keyspace: int = 8_000,
    seed: int = 11,
) -> ScenarioSweepSpec:
    """The tipping sweep at datacenter scale: leaf-spine ``fabric-kvs``
    grids swept over the **rack count** × a per-host rate ramp.  Each rack
    row reports its own software/hardware crossover; cross-rack dispatch
    through the oversubscribed spine uplinks is what separates the
    multi-rack rows from ``sweep-rack-kvs``'s single-ToR curve."""
    return ScenarioSweepSpec(
        name="sweep-fabric-scale",
        base="fabric-kvs",
        description=(
            "fabric-scale tipping sweep: 1→4 leaf-spine racks × per-host "
            "rate ramp over oversubscribed uplinks"
        ),
        axes=(
            SweepAxis("n_racks", racks),
            SweepAxis("rate_per_host_kpps", rates_kpps),
        ),
        fixed=dict(
            hosts_per_rack=hosts_per_rack,
            oversubscription=oversubscription,
            duration_s=duration_s,
            keyspace=keyspace,
            seed=seed,
        ),
        tip_axis="rate_per_host_kpps",
    )


@register_sweep("sweep-rack-mixed")
def sweep_rack_mixed(
    groups: Tuple[int, ...] = (1, 2, 3),
    duration_s: float = 1.0,
    kvs_rate_kpps: float = 8.0,
    dns_rate_kqps: float = 6.0,
    seed: int = 23,
) -> ScenarioSweepSpec:
    """The mixed rack swept over its Paxos group count — the per-group
    power-attribution showcase (KVS shards + DNS replicas + N consensus
    groups all drawing from one rack budget)."""
    return ScenarioSweepSpec(
        name="sweep-rack-mixed",
        base="rack-mixed",
        description=(
            "mixed-rack sweep over Paxos group count (per-group/per-"
            "placement wall-power attribution)"
        ),
        axes=(SweepAxis("n_paxos_groups", groups),),
        fixed=dict(
            duration_s=duration_s,
            kvs_rate_kpps=kvs_rate_kpps,
            dns_rate_kqps=dns_rate_kqps,
            # no storm: the sweep wants the steady rate, not the phase ramp
            dns_storm_kqps=dns_rate_kqps,
            seed=seed,
        ),
        tip_axis="n_paxos_groups",
    )
