"""The steady-state fast path and its DES-vs-analytic tolerance gate."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ControllerSpec,
    DeviceSpec,
    ScenarioSweepSpec,
    SweepAxis,
    build_spec,
    build_sweep_spec,
    hardware_variant,
    run_sweep,
    software_variant,
    steady_eligible,
    steady_point,
    validate_fastpath,
)
from repro.scenarios.fastpath import DEFAULT_REL_TOL


def small_rack(n_hosts=2, rate_per_host_kpps=12.0):
    """The sweep's software pin of a reduced rack-kvs: controllers pinned
    to ``none``, which is the form the fast path answers."""
    return software_variant(
        build_spec(
            "rack-kvs",
            n_hosts=n_hosts,
            rate_per_host_kpps=rate_per_host_kpps,
            duration_s=0.3,
            keyspace=4_000,
        )
    )


# -- eligibility ------------------------------------------------------------


def test_pinned_kvs_rack_is_eligible():
    assert steady_eligible(small_rack())


def test_live_controllers_are_not_eligible():
    # the raw rack-kvs spec keeps its default host-driven controllers;
    # only the sweep's pinned variants qualify
    assert not steady_eligible(build_spec("rack-kvs"))


def test_paxos_scenario_is_not_eligible():
    assert not steady_eligible(build_spec("fig7-paxos-transition"))


def test_colocated_jobs_are_not_eligible():
    # the sharded racks schedule co-located jobs that shift placements
    assert not steady_eligible(build_spec("rack8-kvs-sharded"))


def test_replaced_controller_breaks_eligibility():
    spec = small_rack()
    host = dataclasses.replace(
        spec.kvs_hosts[0], controller=ControllerSpec(kind="ondemand")
    )
    spec = dataclasses.replace(spec, kvs_hosts=(host,) + spec.kvs_hosts[1:])
    assert not steady_eligible(spec)


@pytest.mark.parametrize(
    "params", [dict(with_external_memories=False), dict(pe_count=16)]
)
def test_device_params_are_not_eligible(params):
    """``DeviceSpec.params`` change what the DES card draws (a 1-host
    rack at 60 kpps, hardware pin, 4 s: 63.8 W stock, 59.7 W without
    external memories, 66.5 W with 16 PEs), but the steady curves are per
    device kind (59.0 W for all three) — such a host must replay the
    DES, not get the stock card's answer."""
    spec = hardware_variant(
        build_spec("rack-kvs", n_hosts=1, rate_per_host_kpps=60.0)
    )
    assert steady_eligible(spec)
    host = dataclasses.replace(
        spec.kvs_hosts[0], device=DeviceSpec(kind="netfpga-sume", params=params)
    )
    custom = dataclasses.replace(spec, kvs_hosts=(host,))
    custom.validate()
    assert not steady_eligible(custom)
    with pytest.raises(ConfigurationError, match="not steady-state eligible"):
        steady_point(custom, "hardware")


# -- the analytic point -----------------------------------------------------


def test_steady_point_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        steady_point(small_rack(), "ondemand")


def test_steady_point_rejects_ineligible_spec():
    with pytest.raises(ConfigurationError):
        steady_point(build_spec("fig7-paxos-transition"), "software")


def test_steady_point_shape():
    spec = small_rack()
    estimate = steady_point(spec, "software")
    assert estimate.mode == "software"
    assert estimate.offered_pps == pytest.approx(24_000.0)
    assert 0.0 < estimate.achieved_pps <= estimate.offered_pps
    assert estimate.total_power_w > 0.0
    assert estimate.ops_per_watt > 0.0
    assert set(estimate.power_by_placement) == {h.name for h in spec.kvs_hosts}
    assert sum(estimate.power_by_placement.values()) == pytest.approx(
        estimate.total_power_w
    )


def test_hardware_pin_beats_software_on_ops_per_watt():
    spec = small_rack()
    software = steady_point(spec, "software")
    hardware = steady_point(spec, "hardware")
    assert hardware.ops_per_watt > software.ops_per_watt


# -- the tolerance gate -----------------------------------------------------


def test_fastpath_gate_holds_against_des():
    """Both pins of a small rack agree with the analytic curves within
    DEFAULT_REL_TOL — the contract run_sweep(fastpath=True) relies on."""
    gates = validate_fastpath(small_rack())
    assert {g.mode for g in gates} == {"software", "hardware"}
    for gate in gates:
        assert gate.ok, (
            f"{gate.mode}: achieved err {gate.achieved_rel_err:.3f}, "
            f"power err {gate.power_rel_err:.3f}, "
            f"ops/W err {gate.ops_per_watt_rel_err:.3f} "
            f"(tol {DEFAULT_REL_TOL})"
        )


# -- the sweep integration --------------------------------------------------


def test_run_sweep_fastpath_smoke():
    spec = build_sweep_spec(
        "sweep-rack-kvs",
        hosts=(1, 2),
        rates_kpps=(8.0, 32.0),
        duration_s=0.2,
        keyspace=4_000,
    )
    result = run_sweep(spec, fastpath=True)
    assert len(result.points) == 4
    for point in result.points:
        assert point.software.achieved_pps > 0.0
        assert point.hardware.total_power_w > 0.0
        assert point.hardware.ops_per_watt > point.software.ops_per_watt
    # the fast path must still drive the tipping-point reduction + report
    assert result.tipping_points()
    assert "sweep-rack-kvs" in result.render()


# -- per-host eligibility -----------------------------------------------------


def hetero_rack(rate_per_host_kpps=24.0, duration_s=0.25):
    """A mixed rack: one NetFPGA host (can shift) + one NIC-only host.
    ``ramp=False`` keeps the workload rate-constant (phase-free)."""
    return build_spec(
        "rack-hetero",
        device_kinds=("netfpga-sume", "none"),
        rate_per_host_kpps=rate_per_host_kpps,
        ramp=False,
        duration_s=duration_s,
        keyspace=4_000,
    )


def test_host_steady_eligible_per_host():
    from repro.scenarios import host_steady_eligible, ondemand_variant

    od = ondemand_variant(hetero_rack())
    # the offload host keeps a live on-demand controller; the NIC-only
    # host has nothing to shift to and sits pinned
    assert not host_steady_eligible(od.kvs_hosts[0])
    assert host_steady_eligible(od.kvs_hosts[1])


def test_run_sweep_fastpath_covers_ondemand_on_mixed_racks():
    """run_sweep(fastpath=True) on the hetero sweep answers the pins
    analytically and replays the on-demand pin's DES — and still renders
    an on-demand column."""
    result = run_sweep(
        build_sweep_spec(
            "sweep-rack-hetero",
            device_kinds=("netfpga-sume",),
            rates_kpps=(24.0,),
            duration_s=0.1,
            keyspace=4_000,
        ),
        fastpath=True,
    )
    assert all(pt.ondemand is not None for pt in result.points)


def test_fastpath_ondemand_pin_on_a_mixed_rack_is_the_full_des():
    """A mixed rack (one shifting NetFPGA host, one NIC-only host): with
    fastpath=True the pins are analytic, and the on-demand pin is the
    very same full-rack DES run the exhaustive sweep replays."""
    sweep = ScenarioSweepSpec(
        name="mixed-rack-od",
        base="rack-hetero",
        axes=(SweepAxis("rate_per_host_kpps", (24.0,)),),
        fixed=dict(
            device_kinds=("netfpga-sume", "none"),
            ramp=False,
            ctl_window_s=0.15,
            duration_s=0.25,
            keyspace=4_000,
        ),
    )
    fast = run_sweep(sweep, fastpath=True).points[0]
    full = run_sweep(sweep).points[0]
    assert fast.ondemand == full.ondemand
    assert fast.software != full.software  # analytic, not replayed
