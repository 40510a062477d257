"""The K-seed replication executor (``run_replicated``).

The contract under test: replication is *exact* — ``runs[0]`` is
byte-identical to the unreplicated sweep, every ``runs[i]`` is
byte-identical to a serial ``run_sweep`` with that seed pinned, and
the worker count does not change a single rendered byte.  On top of
that sit the cross-seed reductions (mean ± 95% CI, tipping fractions)
and their rendering.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    build_sweep_spec,
    replicate_stats,
    replication_seeds,
    run_replicated,
    run_sweep,
)
from repro.scenarios.sweep import (
    SweepAggregate,
    SweepPointResult,
    _pack_point,
    _unpack_point,
)

#: one grid point, short horizon: the cheapest real replicated DES run.
TINY = dict(hosts=(1,), rates_kpps=(24.0,), duration_s=0.05, keyspace=2_000)
#: two points on the rate axis so tipping tables have something to cross.
SMALL = dict(hosts=(1,), rates_kpps=(8.0, 32.0), duration_s=0.05,
             keyspace=2_000)


def _spec(params=TINY, **extra):
    return build_sweep_spec("sweep-rack-kvs", **{**params, **extra})


# -- seed derivation ---------------------------------------------------------


def test_replication_seeds_deterministic_and_distinct():
    seeds = replication_seeds(42, 8)
    assert seeds == replication_seeds(42, 8)
    assert seeds[0] == 42
    assert len(set(seeds)) == 8
    # prefix-stable: growing K keeps the earlier seeds
    assert replication_seeds(42, 3) == seeds[:3]


def test_replication_seeds_differ_by_base():
    assert replication_seeds(1, 4)[1:] != replication_seeds(2, 4)[1:]


def test_replication_seeds_rejects_zero():
    with pytest.raises(ConfigurationError):
        replication_seeds(42, 0)


def test_replication_spec_validation():
    with pytest.raises(ConfigurationError):
        run_replicated(_spec(), seeds=0)
    with pytest.raises(ConfigurationError):
        run_replicated(_spec(), workers=0)


# -- cross-seed statistics ---------------------------------------------------


def test_replicate_stats_single_value():
    st = replicate_stats([3.5])
    assert st.mean == 3.5
    assert st.ci95 == 0.0
    assert st.n == 1


def test_replicate_stats_known_interval():
    # n=2: mean 10, sample sd sqrt(2), t=12.706 -> ci = 12.706 * 1
    st = replicate_stats([9.0, 11.0])
    assert st.mean == pytest.approx(10.0)
    assert st.ci95 == pytest.approx(12.706 * math.sqrt(2.0 / 2))
    assert st.values == (9.0, 11.0)


@pytest.mark.parametrize("n, t", [(11, 2.228), (30, 2.045), (61, 2.000)])
def test_replicate_stats_t_value_beyond_ten_seeds(n, t):
    # alternating +-1 around 5: sample sd is known exactly, so ci95 / se
    # recovers the t critical value the interval used
    values = [5.0 + (1.0 if i % 2 else -1.0) for i in range(n)]
    st = replicate_stats(values)
    var = sum((v - st.mean) ** 2 for v in values) / (n - 1)
    implied_t = st.ci95 / math.sqrt(var / n)
    assert implied_t == pytest.approx(t, abs=0.002)


def test_replicate_stats_empty_rejected():
    with pytest.raises(ConfigurationError):
        replicate_stats([])


# -- compact transport -------------------------------------------------------


def test_pack_point_roundtrip_is_exact():
    def agg(mode, base):
        return SweepAggregate(
            mode=mode,
            offered_pps=base + 1 / 3,
            achieved_pps=base + 1 / 7,
            total_power_w=base * math.pi,
            p50_latency_us=base + 1e-13,
            p99_latency_us=base * 1e6,
            ops_per_watt=base / 9.999,
            power_by_placement={"kvs0": base + 0.1, "kvs1": base + 0.2},
        )

    pt = SweepPointResult(
        params={"rate_kpps": 8.0, "hosts": 2},
        software=agg("software", 1.0),
        hardware=agg("hardware", 2.0),
        ondemand=agg("ondemand", 3.0),
    )
    restored = _unpack_point(*_pack_point(pt))
    for mode in ("software", "hardware", "ondemand"):
        a, b = getattr(pt, mode), getattr(restored, mode)
        for f in ("offered_pps", "achieved_pps", "total_power_w",
                  "p50_latency_us", "p99_latency_us", "ops_per_watt"):
            assert getattr(a, f) == getattr(b, f)  # exact, not approx
        assert a.power_by_placement == b.power_by_placement
    assert restored.params == pt.params


def test_pack_point_without_ondemand():
    pt = SweepPointResult(
        params={"rate_kpps": 8.0},
        software=SweepAggregate(
            mode="software", offered_pps=1, achieved_pps=1,
            total_power_w=1, p50_latency_us=1, p99_latency_us=1,
            ops_per_watt=1, power_by_placement={"kvs0": 1.0},
        ),
        hardware=SweepAggregate(
            mode="hardware", offered_pps=2, achieved_pps=2,
            total_power_w=2, p50_latency_us=2, p99_latency_us=2,
            ops_per_watt=2, power_by_placement={"kvs0": 2.0},
        ),
        ondemand=None,
    )
    restored = _unpack_point(*_pack_point(pt))
    assert restored.ondemand is None
    assert restored.hardware.ops_per_watt == 2


# -- byte identity -----------------------------------------------------------


def test_k1_matches_unreplicated_sweep():
    spec = _spec()
    replicated = run_replicated(spec, seeds=1)
    assert replicated.base_run.render() == run_sweep(spec).render()


def test_each_seed_matches_serial_run_sweep():
    replicated = run_replicated(_spec(), seeds=2)
    for seed, run in zip(replicated.seeds, replicated.runs):
        serial = run_sweep(_spec(seed=seed))
        assert run.render() == serial.render()


def test_worker_count_and_chunksize_do_not_change_bytes():
    serial = run_replicated(_spec(), seeds=2)
    pooled = run_replicated(_spec(), seeds=2, workers=2)
    want = [run.render() for run in serial.runs]
    assert [run.render() for run in pooled.runs] == want


# -- reductions and rendering ------------------------------------------------


def test_point_stats_mean_and_ci():
    replicated = run_replicated(_spec(), seeds=2)
    stats = replicated.point_stats("ops_per_watt")
    assert len(stats) == 1
    for mode in ("software", "hardware", "ondemand"):
        st = stats[0][mode]
        assert st is not None and st.n == 2
        values = [
            getattr(getattr(run.points[0], mode), "ops_per_watt")
            for run in replicated.runs
        ]
        assert st.mean == pytest.approx(sum(values) / 2)


def test_tipping_stats_counts_seeds():
    replicated = run_replicated(
        build_sweep_spec("sweep-rack-kvs", **SMALL), seeds=2
    )
    groups = replicated.tipping_stats()
    assert len(groups) == 1
    g = groups[0]
    assert g["axis"] == replicated.spec.resolved_tip_axis()
    assert len(g["crossovers"]) == 2
    assert 0.0 <= g["tip_fraction"] <= 1.0
    if g["tip_count"]:
        assert g["crossover"] is not None


def test_render_shows_error_bars_and_win_counts():
    replicated = run_replicated(
        build_sweep_spec("sweep-rack-kvs", **SMALL), seeds=2
    )
    text = replicated.render()
    assert "K=2 seeds" in text
    assert "sw ±" in text and "hw ±" in text
    assert "hw wins" in text
    assert "Tipping points across seeds" in text
    assert "/2" in text


def test_named_sweep_with_overrides():
    replicated = run_replicated("sweep-rack-kvs", seeds=1, **TINY)
    assert len(replicated.runs) == 1


def test_spec_plus_overrides_rejected():
    with pytest.raises(ConfigurationError):
        run_replicated(_spec(), seeds=1, duration_s=0.1)


def test_cli_seeds_flag_renders_replicated_tables(capsys):
    from repro.__main__ import main

    assert main([
        "--sweep", "sweep-rack-kvs", "--seeds", "2", "--duration", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    assert "K=2 seeds" in out
    assert "hw wins" in out
