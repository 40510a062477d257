"""Shared parameters for the byte-identity golden fixtures.

The golden files in this directory were captured from the revision
*before* the performance-kernel PR (pooled packets, tuple-entry heap,
parallel sweep executor).  ``capture.py`` regenerates them; the
determinism tests re-run the exact same reduced experiments and compare
the rendered text byte-for-byte, proving the fast kernel preserves event
ordering and RNG draw sequences.  ``rack_mixed.txt`` was captured later,
before the KVS and DNS host builders were merged into one, and freezes
the DNS host path and the per-placement wall-power attribution.
``steady_fastpath.txt`` freezes the analytic fast path at full precision:
one ``repr`` line per pinned ``steady_point`` estimate, so a one-ulp drift
in the steady formulas shows (rendered sweep tables round it away).

Keep the parameters here small: these runs execute inside tier-1 tests.
"""

FIG6_PARAMS = dict(
    duration_s=2.0,
    rate_kpps=8.0,
    chainer_start_s=0.5,
    chainer_stop_s=1.2,
    keyspace=4_000,
)

FIG7_PARAMS = dict(
    duration_s=1.5,
    shift_to_hw_s=0.5,
    shift_to_sw_s=1.0,
)

SWEEP_KVS_PARAMS = dict(
    hosts=(1, 2),
    rates_kpps=(8.0, 32.0),
    duration_s=0.2,
    keyspace=4_000,
)

SWEEP_HETERO_PARAMS = dict(
    device_kinds=("netfpga-sume", "none"),
    rates_kpps=(8.0, 32.0),
    duration_s=0.2,
    keyspace=4_000,
)

RACK_MIXED_PARAMS = dict(
    duration_s=1.6,
    n_paxos_groups=1,
    keyspace=4_000,
    n_names=300,
)

#: (sweep, overrides) grids whose every pinned point the ``steady`` golden
#: answers analytically: every KVS-capable device kind, and 1/2/4 fabric
#: racks; 400 kpps per host saturates the software curve (capacity cap and
#: latency inflation).
STEADY_PARAMS = (
    (
        "sweep-rack-hetero",
        dict(
            device_kinds=(
                "accelnet-fpga", "asic-nic", "netfpga-sume", "none", "soc-nic"
            ),
            rates_kpps=(8.0, 24.0, 400.0),
        ),
    ),
    ("sweep-fabric-scale", dict(racks=(1, 2, 4), rates_kpps=(8.0, 24.0, 400.0))),
)

GOLDENS = {
    "fig6_kvs_transition.txt": ("fig6", FIG6_PARAMS),
    "fig7_paxos_transition.txt": ("fig7", FIG7_PARAMS),
    "sweep_rack_kvs.txt": ("sweep-rack-kvs", SWEEP_KVS_PARAMS),
    "sweep_rack_hetero.txt": ("sweep-rack-hetero", SWEEP_HETERO_PARAMS),
    "rack_mixed.txt": ("scenario", ("rack-mixed", RACK_MIXED_PARAMS)),
    "steady_fastpath.txt": ("steady", STEADY_PARAMS),
}


def generate(kind: str, params) -> str:
    """Render one golden experiment (used by capture.py and the tests).

    The ``scenario`` kind takes ``(name, overrides)`` and appends one
    ``placement=repr(watts)`` line per sorted ``power_by_placement`` entry
    to the render, freezing the wall-power attribution exactly.  The
    ``steady`` kind takes ``STEADY_PARAMS`` and writes one line per grid
    point and pin (software, hardware) with the ``repr`` of the analytic
    estimate's offered, achieved, total power, p50 and sorted placements.
    """
    if kind == "fig6":
        from repro.experiments import run_figure6

        return run_figure6(**params).render()
    if kind == "fig7":
        from repro.experiments import run_figure7

        return run_figure7(**params).render()
    if kind == "scenario":
        from repro.scenarios import run_scenario

        name, overrides = params
        result = run_scenario(name, **overrides)
        power = result.power_by_placement
        return "\n".join(
            [result.render(), *(f"{key}={power[key]!r}" for key in sorted(power))]
        )
    if kind == "steady":
        return _steady_lines(params)
    from repro.scenarios import build_sweep_spec, run_sweep

    return run_sweep(build_sweep_spec(kind, **params)).render()


def _steady_lines(grids) -> str:
    from repro.scenarios import (
        build_spec,
        build_sweep_spec,
        hardware_variant,
        software_variant,
        steady_point,
    )

    pins = (("software", software_variant), ("hardware", hardware_variant))
    lines = []
    for name, overrides in grids:
        sweep = build_sweep_spec(name, **overrides)
        for params in sweep.points():
            scenario = build_spec(sweep.base, **sweep.fixed_dict(), **params)
            for mode, variant in pins:
                est = steady_point(variant(scenario), mode)
                placements = sorted(est.power_by_placement.items())
                lines.append(
                    f"{name} {params!r} {mode}: offered={est.offered_pps!r} "
                    f"achieved={est.achieved_pps!r} "
                    f"power={est.total_power_w!r} p50={est.p50_latency_us!r} "
                    f"placements={placements!r}"
                )
    return "\n".join(lines) + "\n"
