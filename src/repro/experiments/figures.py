"""Analytic experiment runners — one per paper figure/table.

Each function returns a result object carrying the raw series plus a
``render()`` producing the text the benchmark harness prints.  DES-based
Figure 6/7 runners live in :mod:`repro.experiments.transitions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import calibration as cal
from ..core.energy_model import (
    TippingPointAnalysis,
    TorSwitchAnalysis,
    tipping_point,
    tor_switch_analysis,
)
from ..core.placement import ApplicationProfile, PlacementAdvisor
from ..host import make_xeon_2660_server
from ..host.nic import NIC_INTEL_X520, NIC_MELLANOX_CX311A, Nic
from ..hw.asic import TofinoProgram, TofinoSwitch
from ..hw.fpga import PlatformMode, make_lake_fpga, make_reference_nic
from ..hw.smartnic import SMARTNIC_ARCHETYPES
from ..apps.kvs.lake import sample_latency
from ..sim import Simulator, percentile
from ..steady import dns_models, find_crossover, kvs_models, paxos_models
from ..steady.ondemand import ondemand_models
from ..steady.paxos import PaxosRole
from ..units import kpps, mpps
from .reporting import format_table
from .sweep import SweepPoint, linspace_rates, sweep_model, sweep_models

# ---------------------------------------------------------------------------
# Figure 3: power vs throughput for the three applications.
# ---------------------------------------------------------------------------


@dataclass
class PowerSweepResult:
    """One Figure-3 panel: named curves + the software/hardware crossover."""

    title: str
    series: Dict[str, List[SweepPoint]]
    crossover_pps: Optional[float]
    paper_crossover_pps: float

    def render(self) -> str:
        headers = ["offered_kpps"] + [f"{name} [W]" for name in self.series]
        rates = [p.offered_pps for p in next(iter(self.series.values()))]
        rows = []
        for i, rate in enumerate(rates):
            rows.append(
                [rate / 1e3] + [pts[i].power_w for pts in self.series.values()]
            )
        lines = [self.title, format_table(headers, rows)]
        if self.crossover_pps is not None:
            lines.append(
                f"crossover: {self.crossover_pps / 1e3:.0f} Kpps "
                f"(paper: ~{self.paper_crossover_pps / 1e3:.0f} Kpps)"
            )
        return "\n".join(lines)


def figure3a(nic: Nic = NIC_MELLANOX_CX311A, steps: int = 21) -> PowerSweepResult:
    """Figure 3(a): KVS power vs throughput (crossover ≈ 80 Kpps)."""
    models = kvs_models(nic=nic)
    rates = linspace_rates(mpps(2.0), steps)
    return PowerSweepResult(
        title=f"Figure 3(a): KVS power vs throughput ({nic.name})",
        series=sweep_models(models, rates),
        crossover_pps=find_crossover(models["memcached"], models["lake"]),
        paper_crossover_pps=kpps(80)
        if nic is NIC_MELLANOX_CX311A
        else kpps(300),
    )


def figure3b(role: PaxosRole = PaxosRole.ACCEPTOR, steps: int = 21) -> PowerSweepResult:
    """Figure 3(b): Paxos power vs throughput (crossover ≈ 150 Kpps)."""
    models = paxos_models(role)
    rates = linspace_rates(mpps(1.0), steps)
    return PowerSweepResult(
        title=f"Figure 3(b): Paxos {role.value} power vs throughput",
        series=sweep_models(models, rates),
        crossover_pps=find_crossover(models["libpaxos"], models["p4xos"]),
        paper_crossover_pps=kpps(150),
    )


def figure3c(steps: int = 21) -> PowerSweepResult:
    """Figure 3(c): DNS power vs throughput (crossover < 200 Kpps)."""
    models = dns_models()
    rates = linspace_rates(mpps(1.0), steps)
    return PowerSweepResult(
        title="Figure 3(c): DNS power vs throughput",
        series=sweep_models(models, rates),
        crossover_pps=find_crossover(models["nsd"], models["emu"]),
        paper_crossover_pps=kpps(150),
    )


# ---------------------------------------------------------------------------
# Figure 4: LaKe design trade-offs.
# ---------------------------------------------------------------------------


@dataclass
class Figure4Result:
    """The Figure 4 bar set (standalone-card watts)."""

    bars: List[Tuple[str, float]]

    def render(self) -> str:
        table = format_table(["configuration", "power [W]"], self.bars)
        checks = [
            f"memories total: {cal.MEMORIES_TOTAL_W:.1f}W (paper: 'no less than 10W')",
            f"memory reset saving: {cal.MEMORY_RESET_SAVING_FRACTION:.0%} (paper: 40%)",
            f"clock gating saving: {cal.CLOCK_GATING_SAVING_W:.1f}W (paper: <1W)",
            f"per-PE power: {cal.LAKE_PE_W:.2f}W (paper: ~0.25W)",
        ]
        return "Figure 4: LaKe design trade-offs\n" + table + "\n" + "\n".join(checks)

    def bar(self, name: str) -> float:
        for bar_name, value in self.bars:
            if bar_name == name:
                return value
        raise KeyError(name)


def figure4() -> Figure4Result:
    """Reproduce Figure 4's nine bars with the §5.1 gating semantics."""
    mode = PlatformMode.STANDALONE
    bars: List[Tuple[str, float]] = []

    bars.append(("Ref. NIC", make_reference_nic(mode).power_w()))

    card = make_lake_fpga(pe_count=1, with_external_memories=False, mode=mode)
    bars.append(("1 PE & no mem", card.power_w()))

    card = make_lake_fpga(with_external_memories=False, mode=mode)
    bars.append(("No mem", card.power_w()))

    card = make_lake_fpga(with_external_memories=False, mode=mode)
    card.set_utilization(1.0)
    bars.append(("Max load & no mem", card.power_w()))

    card = make_lake_fpga(mode=mode)
    card.reset_memories()
    card.clock_gate_all_logic()
    bars.append(("Reset mem & clk gating", card.power_w()))

    card = make_lake_fpga(mode=mode)
    card.reset_memories()
    bars.append(("Reset mem", card.power_w()))

    bars.append(("Server no cards", cal.I7_IDLE_NO_NIC_W))

    card = make_lake_fpga(mode=mode)
    card.clock_gate_all_logic()
    bars.append(("Clk gating", card.power_w()))

    bars.append(("LaKe", make_lake_fpga(mode=mode).power_w()))
    return Figure4Result(bars=bars)


# ---------------------------------------------------------------------------
# Figure 5: on-demand power.
# ---------------------------------------------------------------------------


@dataclass
class Figure5Result:
    series: Dict[str, List[SweepPoint]]
    savings_at_peak: Dict[str, float]

    def render(self) -> str:
        headers = ["offered_kpps"] + list(self.series)
        rates = [p.offered_pps for p in next(iter(self.series.values()))]
        rows = [
            [rate / 1e3] + [pts[i].power_w for pts in self.series.values()]
            for i, rate in enumerate(rates)
        ]
        lines = ["Figure 5: in-network computing on demand", format_table(headers, rows)]
        for app, saving in self.savings_at_peak.items():
            lines.append(f"{app}: on-demand saves {saving:.0%} vs software at high load")
        return "\n".join(lines)


def figure5(steps: int = 25) -> Figure5Result:
    """Figure 5: on-demand vs software-only power for the three apps,
    swept up to 1.2 Mpps; savings are read at 1 Mpps (or the software
    capacity, if lower)."""
    rates = linspace_rates(kpps(1200.0), steps)
    series: Dict[str, List[SweepPoint]] = {}
    savings: Dict[str, float] = {}
    for app, model in ondemand_models().items():
        series[f"{app} (On demand)"] = sweep_model(model, rates)
        series[f"{app} (SW)"] = sweep_model(model.software, rates)
        peak = min(kpps(1000.0), model.software.capacity_pps)
        savings[app] = model.saving_vs_software_w(peak) / model.software.power_at(
            peak
        )
    return Figure5Result(series=series, savings_at_peak=savings)


# ---------------------------------------------------------------------------
# §5.3: memories and latency.
# ---------------------------------------------------------------------------


@dataclass
class Section5Result:
    rows: List[Tuple]
    latency_rows: List[Tuple]

    def render(self) -> str:
        memory_table = format_table(
            ["memory", "power [W]", "capacity [entries]", "vs on-chip"], self.rows
        )
        latency_table = format_table(
            ["path", "median [us]", "p99 [us]", "paper median", "paper p99"],
            self.latency_rows,
        )
        return (
            "Section 5.3: memory power/capacity\n"
            + memory_table
            + "\nLaKe access latency\n"
            + latency_table
        )


def section5_memories(samples: int = 20_000, seed: int = 5) -> Section5Result:
    """§5.3's memory table + measured LaKe latency distributions."""
    import random

    rows = [
        ("DRAM 4GB", cal.DRAM_4GB_W, cal.DRAM_VALUE_ENTRIES, "x65k values"),
        ("SRAM 18MB", cal.SRAM_18MB_W, cal.SRAM_FREELIST_ENTRIES, "x32k freelist"),
        ("BRAM (on-chip)", 0.0, cal.ONCHIP_VALUE_ENTRIES, "1x"),
    ]
    rng = random.Random(seed)
    l2 = sorted(
        sample_latency(rng, cal.LAKE_L2_HIT_MEDIAN_US, cal.LAKE_L2_HIT_P99_LOW_LOAD_US)
        for _ in range(samples)
    )
    miss = sorted(
        sample_latency(rng, cal.LAKE_MISS_MEDIAN_US, cal.LAKE_MISS_P99_US)
        for _ in range(samples)
    )
    latency_rows = [
        ("L1 hit (on-chip)", cal.LAKE_L1_HIT_US, cal.LAKE_L1_HIT_US + 0.1, 1.4, 1.4),
        (
            "L2 hit (DRAM)",
            percentile(l2, 50.0),
            percentile(l2, 99.0),
            cal.LAKE_L2_HIT_MEDIAN_US,
            cal.LAKE_L2_HIT_P99_LOW_LOAD_US,
        ),
        (
            "miss (software)",
            percentile(miss, 50.0),
            percentile(miss, 99.0),
            cal.LAKE_MISS_MEDIAN_US,
            cal.LAKE_MISS_P99_US,
        ),
    ]
    return Section5Result(rows=rows, latency_rows=latency_rows)


# ---------------------------------------------------------------------------
# §6: the ASIC.
# ---------------------------------------------------------------------------


@dataclass
class Section6Result:
    normalized_power: List[Tuple[float, float, float, float]]
    p4xos_overhead_full_load: float
    diag_overhead_full_load: float
    power_span_fraction: float
    ops_per_watt: Dict[str, float]
    dynamic_ratio_vs_server: float

    def render(self) -> str:
        table = format_table(
            ["utilization", "L2 only", "L2+P4xos", "diag.p4"],
            self.normalized_power,
        )
        lines = [
            "Section 6: Tofino normalized power",
            table,
            f"P4xos overhead at full load: {self.p4xos_overhead_full_load:.1%} "
            "(paper: <=2%)",
            f"diag.p4 overhead at full load: {self.diag_overhead_full_load:.1%} "
            "(paper: 4.8%)",
            f"min<->max power span: {self.power_span_fraction:.1%} (paper: <20%)",
            f"Tofino dynamic power @10% util vs server dynamic @180Kpps: "
            f"{self.dynamic_ratio_vs_server:.2f} (paper: ~1/3)",
            "ops per watt: "
            + ", ".join(f"{k}={v:,.0f}" for k, v in self.ops_per_watt.items()),
        ]
        return "\n".join(lines)


def section6_asic(steps: int = 11) -> Section6Result:
    """§6: Tofino power behaviour and the ops/W comparison."""
    l2 = TofinoSwitch(TofinoProgram.L2_FORWARDING)
    p4xos = TofinoSwitch(TofinoProgram.L2_PLUS_P4XOS)
    diag = TofinoSwitch(TofinoProgram.DIAG)
    rows = []
    for i in range(steps):
        u = i / (steps - 1)
        rows.append(
            (
                u,
                l2.power_normalized(u),
                p4xos.power_normalized(u),
                diag.power_normalized(u),
            )
        )
    p4_over = p4xos.power_normalized(1.0) / l2.power_normalized(1.0) - 1.0
    diag_over = diag.power_normalized(1.0) / l2.power_normalized(1.0) - 1.0
    span = p4xos.power_normalized(1.0) / p4xos.power_normalized(0.0) - 1.0

    # ops/W: software (libpaxos at capacity, dynamic power), FPGA
    # (standalone P4xos), ASIC (Tofino P4xos at full rate, total power).
    models = paxos_models(PaxosRole.ACCEPTOR)
    sw = models["libpaxos"]
    sw_ops = sw.capacity_pps / sw.dynamic_power_w(sw.capacity_pps)
    fpga = models["p4xos-standalone"]
    fpga_ops = fpga.capacity_pps / fpga.power_at(fpga.capacity_pps)
    asic_ops = p4xos.ops_per_watt(1.0)

    server_dynamic = sw.dynamic_power_w(kpps(180))
    ratio = p4xos.dynamic_power_w(cal.TOFINO_X1000_UTILIZATION) / server_dynamic
    return Section6Result(
        normalized_power=rows,
        p4xos_overhead_full_load=p4_over,
        diag_overhead_full_load=diag_over,
        power_span_fraction=span,
        ops_per_watt={"software": sw_ops, "fpga": fpga_ops, "asic": asic_ops},
        dynamic_ratio_vs_server=ratio,
    )


# ---------------------------------------------------------------------------
# §7: the Xeon server ("released dataset" breakdown).
# ---------------------------------------------------------------------------


@dataclass
class Section7Result:
    rows: List[Tuple]

    def render(self) -> str:
        return "Section 7: Xeon E5-2660 v4 RAPL characterization\n" + format_table(
            ["load", "total [W]", "socket0 [W]", "socket1 [W]", "paper [W]"],
            self.rows,
        )

    def total(self, label: str) -> float:
        for row in self.rows:
            if row[0] == label:
                return row[1]
        raise KeyError(label)


def section7_server() -> Section7Result:
    """§7: the synthetic no-I/O CPU load ladder on the dual-Xeon box."""
    sim = Simulator()
    server = make_xeon_2660_server(sim)
    ladder = [
        ("idle", 0, 0.0, cal.XEON_2660_IDLE_W),
        ("1 core @10%", 1, 0.10, cal.XEON_2660_ONE_CORE_10PCT_W),
        ("1 core @100%", 1, 1.0, cal.XEON_2660_ONE_CORE_W),
        ("2 cores @100%", 2, 1.0, None),
        ("14 cores @100%", 14, 1.0, None),
        ("28 cores @100%", 28, 1.0, cal.XEON_2660_FULL_LOAD_W),
    ]
    rows = []
    for label, cores, util, paper in ladder:
        server.cpu.clear_load("bench")
        if cores:
            server.cpu.set_load("bench", cores, util)
        rows.append(
            (
                label,
                server.platform_power_w(),
                server.socket_power_w(0),
                server.socket_power_w(1),
                paper if paper is not None else "-",
            )
        )
    return Section7Result(rows=rows)


# ---------------------------------------------------------------------------
# §8 / §9.4: tipping points.
# ---------------------------------------------------------------------------


@dataclass
class Section8Result:
    tipping_points: List[TippingPointAnalysis]
    tor: TorSwitchAnalysis

    def render(self) -> str:
        rows = [
            (
                t.software,
                t.hardware,
                (t.crossover_pps / 1e3) if t.crossover_pps is not None else "never",
                t.software_idle_w,
                t.hardware_idle_w,
            )
            for t in self.tipping_points
        ]
        table = format_table(
            ["software", "hardware", "crossover [kpps]", "SW idle [W]", "HW idle [W]"],
            rows,
        )
        tor_line = (
            f"ToR switch: crossover at {self.tor.crossover_pps:.0f} pps "
            f"({'~zero, switch always wins' if self.tor.switch_always_wins else 'nonzero'}; "
            f"paper: 'R is almost zero')"
        )
        return "Section 8: when to use in-network computing\n" + table + "\n" + tor_line


def section8_tipping() -> Section8Result:
    """§8's two questions + §9.4's ToR-switch analysis."""
    kvs = kvs_models()
    paxos = paxos_models(PaxosRole.ACCEPTOR)
    dns = dns_models()
    tps = [
        tipping_point(kvs["memcached"], kvs["lake"]),
        tipping_point(paxos["libpaxos"], paxos["p4xos"]),
        tipping_point(dns["nsd"], dns["emu"]),
    ]
    return Section8Result(
        tipping_points=tps, tor=tor_switch_analysis(kvs["memcached"])
    )


# ---------------------------------------------------------------------------
# §9.3: real workloads.
# ---------------------------------------------------------------------------


@dataclass
class Section93Result:
    dynamo_rows: List[Tuple]
    google_rows: List[Tuple]

    def render(self) -> str:
        dynamo = format_table(
            ["workload", "window [s]", "median", "p99", "paper median", "paper p99"],
            self.dynamo_rows,
        )
        google = format_table(["metric", "synthesized", "paper"], self.google_rows)
        return (
            "Section 9.3: Dynamo power variation\n"
            + dynamo
            + "\nGoogle cluster trace analysis\n"
            + google
        )


def section93_traces(trace_seconds: int = 2_000, seed: int = 13) -> Section93Result:
    """§9.3: synthesize both traces and run the paper's analyses."""
    from ..workloads.dynamo import DynamoTraceSynthesizer, analyze_power_variation
    from ..workloads.google_trace import (
        GoogleTraceSynthesizer,
        analyze_offload_candidates,
    )

    dynamo_rows = []
    for cls in ("rack", "caching", "web"):
        synth = DynamoTraceSynthesizer(cls, seed=seed)
        trace = synth.generate(trace_seconds)
        targets = synth.paper_statistics()
        analysis = analyze_power_variation(trace, targets["window_s"])
        dynamo_rows.append(
            (
                cls,
                targets["window_s"],
                analysis.median,
                analysis.p99,
                targets["median"],
                targets["p99"],
            )
        )

    tasks = GoogleTraceSynthesizer(seed=seed).generate()
    google = analyze_offload_candidates(tasks)
    google_rows = [
        ("tasks", google.total_tasks, "-"),
        ("offload candidates", google.offload_candidates, "1.39M (full trace)"),
        (
            "long-job count fraction",
            google.long_job_count_fraction,
            cal.GOOGLE_LONG_JOB_COUNT_FRACTION,
        ),
        (
            "long-job utilization fraction",
            google.long_job_util_fraction,
            cal.GOOGLE_LONG_JOB_UTIL_FRACTION,
        ),
        (
            "candidate cores per node",
            google.avg_candidate_cores_per_node,
            cal.GOOGLE_AVG_CANDIDATE_CORES_PER_NODE,
        ),
    ]
    return Section93Result(dynamo_rows=dynamo_rows, google_rows=google_rows)


# ---------------------------------------------------------------------------
# §10: FPGA, SmartNIC or switch?
# ---------------------------------------------------------------------------


@dataclass
class Section10Result:
    smartnic_rows: List[Tuple]
    recommendations: Dict[str, List[Tuple[str, float]]]

    def render(self) -> str:
        nic_table = format_table(
            ["smartnic", "idle [W]", "peak [W]", "Mpps/W", "peak Mpps"],
            self.smartnic_rows,
        )
        lines = ["Section 10: platform comparison", nic_table]
        for profile, ranked in self.recommendations.items():
            ranking = ", ".join(f"{p} ({s:.1f})" for p, s in ranked[:3])
            lines.append(f"{profile}: {ranking}")
        return "\n".join(lines)


def section10_platforms() -> Section10Result:
    """§10: the SmartNIC envelope + advisor rankings for three profiles."""
    smartnic_rows = [
        (
            nic.name,
            nic.idle_w,
            nic.peak_w,
            nic.mpps_per_w,
            nic.peak_pps() / 1e6,
        )
        for nic in SMARTNIC_ARCHETYPES.values()
    ]
    advisor = PlacementAdvisor()
    profiles = {
        "KVS cache @ 5Mpps": ApplicationProfile(
            "kvs", peak_rate_pps=mpps(5.0), latency_sensitive=True,
            state_bytes=1 << 30,
        ),
        "Paxos @ 100Mpps": ApplicationProfile(
            "paxos", peak_rate_pps=mpps(100.0), latency_sensitive=True,
            state_bytes=1 << 20,
        ),
        "DNS @ 50Kpps": ApplicationProfile(
            "dns", peak_rate_pps=kpps(50.0), state_bytes=1 << 20,
        ),
    }
    recs = {
        label: [(r.platform, r.score) for r in advisor.recommend(profile)]
        for label, profile in profiles.items()
    }
    return Section10Result(smartnic_rows=smartnic_rows, recommendations=recs)
