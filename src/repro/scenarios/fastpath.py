"""Steady-state fast path: skip DES for rate-constant KVS placements.

A pinned sweep run of a pure KVS rack at a constant offered rate converges
to exactly what the :mod:`repro.steady` analytic models describe — idle
power plus a utilization-scaled dynamic term per host.  For those grid
points the DES replay buys convergence noise, not information, so the
sweep engine can (opt-in, ``run_sweep(..., fastpath=True)``) substitute
the analytic curves and skip the event loop entirely.

Eligibility (:func:`steady_eligible`) is deliberately narrow:

* KVS hosts only — no Paxos groups (closed-loop clients adapt to latency,
  which the steady curves do not model) and no DNS hosts (storm phases);
* a rate-constant workload — no ``phases`` schedule;
* nothing that can *change* during the run: every controller is ``none``,
  no centralized fabric controller, no ``served_by`` shard donations (the
  fabric controller may steer them back mid-run), and no co-located jobs.
  (The sweep's software/hardware pins satisfy this by construction; the
  on-demand pin does not, and always runs DES.)
* stock devices only: a host whose ``DeviceSpec`` sets ``params`` (PE
  count, external memories, ...) builds a card the per-kind steady curves
  do not describe.

The steady formulas live once, in the :class:`repro.steady.SteadyModel`
methods.  Each (device kind, power-save, pin) host model is built once and
memoized, so answering a grid point is a handful of scalar calls per host;
:func:`steady_grid` is the same per-spec evaluation over many specs.

Multi-rack fabrics are eligible too: per-rack steady aggregates compose
with the analytic uplink model of :mod:`repro.steady.fabric`.  Each
cross-rack host pays four uplink traversals (request up + down, response
up + down) of propagation + serialization + the utilization-scaled M/D/1
FIFO wait at that uplink direction's own offered load, where the
per-direction loads are the spec-derived cross-rack subset — the same
quantity the DES's transit identity ``sum(ToRs) − spine`` measures from
counters.  Achieved throughput is capped by the bottleneck direction's
effective bandwidth.  Single-ToR estimates are untouched by the fabric
terms (no fabric → no adder, bare placement names), so pre-fabric outputs
stay byte-identical.

:func:`validate_fastpath` is the tolerance gate: it runs both the DES and
the analytic path for the same spec and checks the relative error on
achieved throughput, total wall power, and ops/W.  The test suite holds
the gate at :data:`DEFAULT_REL_TOL`; if a model or calibration change
pushes the analytic curves away from the DES, the gate — not a silently
wrong sweep — is what fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .. import calibration as cal
from ..errors import ConfigurationError
from ..hw.device import get_device
from ..naming import rack_qualified, split_rack
from ..steady.fabric import FabricUplinkModel
from ..steady.kvs import memcached_model
from ..steady.ondemand import device_hardware_model
from ..workloads.etc import ShardedEtcWorkload
from .spec import ScenarioSpec

#: Relative error the DES-vs-analytic gate tolerates per compared metric.
#: Short DES horizons carry warm-up and sampling noise; the analytic curve
#: is the infinite-horizon limit.
DEFAULT_REL_TOL = 0.15

_FASTPATH_MODES = ("software", "hardware")


def host_steady_eligible(host) -> bool:
    """Can this one KVS host's run be answered analytically?  Nothing may
    change during the run: no controller that could shift the placement,
    no co-located job that could perturb its power draw.  And its card
    must be the device kind's stock build: ``DeviceSpec.params`` change
    what the DES card draws, which the per-kind steady curves ignore."""
    return (
        host.controller.kind == "none"
        and not host.colocated
        and not host.device.params
    )


def steady_eligible(spec: ScenarioSpec) -> bool:
    """Can this scenario's pinned runs be answered analytically?

    A pure KVS fleet offered a rate-constant (phase-free) workload, with
    no fleet-level dynamics, and every host eligible.  Single-ToR racks
    and multi-rack fabrics both qualify (the fabric composes with the
    analytic uplink model of :mod:`repro.steady.fabric`), but a live
    centralized fabric controller or a ``served_by`` shard donation means
    serving assignments can move mid-run — those always replay the DES.
    """
    if not spec.kvs_hosts or spec.paxos_groups or spec.dns_hosts:
        return False
    if spec.fabric_controller is not None:
        return False
    if any(host.served_by is not None for host in spec.kvs_hosts):
        return False
    workload = spec.kvs_workload
    if workload is None or workload.phases:
        return False
    return all(host_steady_eligible(host) for host in spec.kvs_hosts)


@dataclass
class SteadyEstimate:
    """The analytic stand-in for one pinned run's :class:`SweepAggregate`
    inputs (same fields the sweep reduction needs)."""

    mode: str
    offered_pps: float
    achieved_pps: float
    total_power_w: float
    p50_latency_us: float
    p99_latency_us: float
    ops_per_watt: float
    power_by_placement: Dict[str, float] = field(default_factory=dict)


@lru_cache(maxsize=256)
def _shard_weights(
    keyspace: int, n_shards: int, zipf_s: float, seed: int
) -> Tuple[float, ...]:
    """Memoized Zipf shard split: every grid point of a sweep that shares
    (keyspace, shard count, skew, seed) — an entire rate ramp — reuses one
    ranking pass instead of recomputing it per analytic evaluation."""
    sharded = ShardedEtcWorkload(
        keyspace=keyspace, n_shards=n_shards, zipf_s=zipf_s, seed=seed
    )
    return tuple(sharded.shard_weights())


def _per_host_rates(spec: ScenarioSpec) -> List[float]:
    """Offered pps per host: the sweep's Zipf shard-weight rate split
    (shard i is host i)."""
    workload = spec.kvs_workload
    total_pps = workload.rate_kpps * 1e3
    n_hosts = len(spec.kvs_hosts)
    if n_hosts == 1:
        return [total_pps]
    weights = _shard_weights(
        workload.keyspace, n_hosts, workload.zipf_s, spec.seed
    )
    return [weight * total_pps for weight in weights]


def _host_racks(spec: ScenarioSpec, host) -> Tuple[str, str]:
    """``(host_rack, client_rack)`` of one placement.  The client rack is
    read off the (possibly rack-qualified) client name — a bare client
    name enters the fabric at its host's own ToR."""
    host_rack = spec.host_rack(host)
    client_rack, _ = split_rack(host.resolved_client_name())
    return host_rack, client_rack or host_rack


def _uplink_direction_terms(
    spec: ScenarioSpec, rates: Sequence[float]
) -> Tuple[Dict[str, Tuple[float, float]], Dict[str, Tuple[float, float]]]:
    """``(crossing_us, throughput_factor)`` of each uplink direction:
    ``(up[rack], down[rack])``, each evaluated once at its offered load.

    The loads are the spec-derived cross-rack subset — analytically, the
    same packets the DES transit identity ``sum(ToRs) − spine`` isolates:
    a cross-rack host's requests leave the client's rack (up), enter the
    host's rack (down), and its responses make the reverse trip.  Loads
    cover the **whole** fleet: the FIFO uplinks queue everyone's packets
    together.
    """
    racks = spec.fabric.rack_names()
    up = {rack: 0.0 for rack in racks}
    down = {rack: 0.0 for rack in racks}
    for i, host in enumerate(spec.kvs_hosts):
        host_rack, client_rack = _host_racks(spec, host)
        if client_rack == host_rack:
            continue
        rate = rates[i]
        up[client_rack] += rate    # requests leave the client's rack
        down[host_rack] += rate    # ...and enter the host's rack
        up[host_rack] += rate      # responses leave the host's rack
        down[client_rack] += rate  # ...and return to the client's rack
    # every ToR↔spine direction shares the one declared UplinkSpec
    uplink = FabricUplinkModel(
        latency_us=spec.fabric.uplink.latency_us,
        effective_bps=spec.fabric.uplink.effective_bandwidth_bps(),
    )

    def terms(loads: Dict[str, float]) -> Dict[str, Tuple[float, float]]:
        return {
            rack: (uplink.crossing_us(load), uplink.throughput_factor(load))
            for rack, load in loads.items()
        }

    return terms(up), terms(down)


@lru_cache(maxsize=128)
def _host_models(device_kind: str, power_save: bool, mode: str):
    """(power_at(pps), capacity_pps, latency_at(pps)) for one host+mode,
    memoized per (device kind, power-save, mode): a sweep grid builds each
    host model once, not once per host per point."""
    software = memcached_model()
    profile = get_device(device_kind)
    if mode == "software" or not profile.is_offload:
        # the software pin (and a NIC-only host under the hardware pin,
        # which has nothing to shift to).  power_save holds a present card
        # in its standby configuration: the card replaces the NIC, so the
        # host curve loses the NIC idle share and gains the standby draw.
        if profile.is_offload and power_save:
            standby_w = profile.standby_power_w("kvs")

            def power_at(pps: float) -> float:
                return (
                    software.power_at(pps)
                    - cal.NIC_MELLANOX_CX311A_IDLE_W
                    + standby_w
                )

            return power_at, software.capacity_pps, software.latency_at
        return software.power_at, software.capacity_pps, software.latency_at
    hardware = device_hardware_model("kvs", device_kind)
    return hardware.power_at, hardware.capacity_pps, hardware.latency_at


def _check_mode(mode: str) -> None:
    if mode not in _FASTPATH_MODES:
        raise ConfigurationError(
            f"fast path answers {', '.join(_FASTPATH_MODES)}; got {mode!r}"
        )


def steady_point(spec: ScenarioSpec, mode: str) -> SteadyEstimate:
    """Analytic aggregate for one pinned mode of an eligible scenario.

    On a fabric spec, placement keys are rack-qualified (matching the
    builder's ``power_by_placement`` spelling) and every cross-rack host
    additionally pays the four-traversal analytic uplink adder on latency
    plus the bottleneck direction's throughput cap — see
    :mod:`repro.steady.fabric` for the model and its validity envelope.
    """
    _check_mode(mode)
    return _steady_estimate(spec, mode)


def steady_grid(
    specs: Sequence[ScenarioSpec], mode: str
) -> List[SteadyEstimate]:
    """:func:`steady_point` over many eligible specs (a sweep grid's
    pinned variants): the mode is checked once, and every estimate is the
    one ``steady_point(spec, mode)`` returns."""
    _check_mode(mode)
    return [_steady_estimate(spec, mode) for spec in specs]


def _steady_estimate(spec: ScenarioSpec, mode: str) -> SteadyEstimate:
    if not steady_eligible(spec):
        raise ConfigurationError(
            f"scenario {spec.name!r} is not steady-state eligible "
            "(see scenarios.fastpath.steady_eligible)"
        )
    rates = _per_host_rates(spec)
    fabric = spec.fabric
    if fabric is not None:
        up, down = _uplink_direction_terms(spec, rates)
    achieved = 0.0
    power_by_placement: Dict[str, float] = {}
    latencies: List[Tuple[float, float]] = []  # (served share, latency)
    for host, rate in zip(spec.kvs_hosts, rates):
        power_at, capacity, latency_at = _host_models(
            host.device.kind, host.power_save, mode
        )
        served = min(rate, capacity)
        latency = latency_at(rate)
        key = host.name
        if fabric is not None:
            host_rack, client_rack = _host_racks(spec, host)
            key = rack_qualified(host_rack, host.name)
            if client_rack != host_rack:
                # request: client-rack up, host-rack down; response:
                # host-rack up, client-rack down — four traversals, each
                # at its own direction's offered load
                directions = (
                    up[client_rack],
                    down[host_rack],
                    up[host_rack],
                    down[client_rack],
                )
                latency += sum(crossing for crossing, _ in directions)
                served *= min(factor for _, factor in directions)
        achieved += served
        power_by_placement[key] = power_at(rate)
        latencies.append((served, latency))
    total_power = sum(power_by_placement.values())
    total_served = sum(share for share, _ in latencies) or 1.0
    # the rack-level "median" of per-host flat medians: served-weighted
    p50 = sum(share * lat for share, lat in latencies) / total_served
    return SteadyEstimate(
        mode=mode,
        offered_pps=sum(rates),
        achieved_pps=achieved,
        total_power_w=total_power,
        p50_latency_us=p50,
        p99_latency_us=p50,  # steady curves model medians only
        ops_per_watt=achieved / total_power if total_power > 0 else 0.0,
        power_by_placement=power_by_placement,
    )


@dataclass
class FastPathGate:
    """One mode's DES-vs-analytic comparison."""

    mode: str
    des_achieved_pps: float
    analytic_achieved_pps: float
    des_power_w: float
    analytic_power_w: float
    rel_tol: float

    @property
    def achieved_rel_err(self) -> float:
        return _rel_err(self.analytic_achieved_pps, self.des_achieved_pps)

    @property
    def power_rel_err(self) -> float:
        return _rel_err(self.analytic_power_w, self.des_power_w)

    @property
    def ops_per_watt_rel_err(self) -> float:
        des = self.des_achieved_pps / self.des_power_w
        analytic = self.analytic_achieved_pps / self.analytic_power_w
        return _rel_err(analytic, des)

    @property
    def ok(self) -> bool:
        return (
            self.achieved_rel_err <= self.rel_tol
            and self.power_rel_err <= self.rel_tol
            and self.ops_per_watt_rel_err <= self.rel_tol
        )


def _rel_err(estimate: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if estimate == 0.0 else float("inf")
    return abs(estimate - reference) / abs(reference)


def validate_fastpath(
    spec: ScenarioSpec, rel_tol: float = DEFAULT_REL_TOL
) -> List[FastPathGate]:
    """The tolerance gate: run DES and the analytic path for both pins and
    report the relative errors.  Raises if the spec is not eligible; the
    caller (tests, a cautious sweep user) asserts ``all(g.ok for g in ...)``.
    """
    # local import: sweep imports this module for run_sweep(fastpath=True)
    from .sweep import _aggregate, run_pinned

    gates = []
    for mode in _FASTPATH_MODES:
        run, result = run_pinned(spec, mode)
        des = _aggregate(run, result, mode)
        analytic = steady_point(spec, mode)
        gates.append(
            FastPathGate(
                mode=mode,
                des_achieved_pps=des.achieved_pps,
                analytic_achieved_pps=analytic.achieved_pps,
                des_power_w=des.total_power_w,
                analytic_power_w=analytic.total_power_w,
                rel_tol=rel_tol,
            )
        )
    return gates
