"""The adaptive crossover search: exhaustive-equivalence of the tipping
rows on the three fastpath-eligible registered sweeps (with the DES
savings floor), anchors, replication bracket reuse, and the error paths.

The equivalence configs are trimmed (two-value outer axes, shortened
durations) to keep the DES cost down while still crossing a real
sw/hw tipping point on ``sweep-rack-kvs`` and ``sweep-rack-hetero``.
"""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    build_sweep_spec,
    executor_stats,
    run_replicated,
    run_sweep,
    shutdown_executor,
)
from repro.scenarios.sweep import (
    _bracket_first_win,
    _linear_fill,
    _with_seed,
)

#: (sweep name, overrides) — each grid crosses (or provably never
#: crosses) the sw/hw tipping point within a ramp cheap enough to replay
#: exhaustively in-test.
EQUIVALENCE_CONFIGS = [
    (
        "sweep-rack-kvs",
        dict(
            hosts=(1, 2),
            rates_kpps=tuple(46.0 + 2.0 * i for i in range(14)),
            duration_s=0.15,
            keyspace=4_000,
        ),
    ),
    (
        "sweep-rack-hetero",
        dict(
            rates_kpps=tuple(6.0 + 4.0 * i for i in range(12)),
            duration_s=0.2,
            keyspace=4_000,
        ),
    ),
    (
        "sweep-fabric-scale",
        dict(
            racks=(1, 2),
            rates_kpps=tuple(6.0 + 4.0 * i for i in range(12)),
            duration_s=0.15,
            keyspace=4_000,
        ),
    ),
]


# ---------------------------------------------------------------------------
# The pure helpers.
# ---------------------------------------------------------------------------


class TestBracketFirstWin:
    def test_monotone_flags(self):
        assert _bracket_first_win([False, False, True, True]) == 2
        assert _bracket_first_win([True, True]) == 0
        assert _bracket_first_win([False, False]) is None
        assert _bracket_first_win([]) is None

    def test_non_monotone_falls_back_to_first_true(self):
        # bisection assumes monotone; a lone early win must still be found
        assert _bracket_first_win([False, True, False, False]) == 1


class TestLinearFill:
    def test_interpolates_between_samples(self):
        assert _linear_fill([0, 2], [0.0, 4.0], 3) == [0.0, 2.0, 4.0]

    def test_extrapolates_past_the_ends(self):
        assert _linear_fill([1, 2], [1.0, 2.0], 4) == [0.0, 1.0, 2.0, 3.0]

    def test_single_sample_is_flat(self):
        assert _linear_fill([1], [3.5], 3) == [3.5, 3.5, 3.5]


# ---------------------------------------------------------------------------
# Adaptive == exhaustive on the registered eligible sweeps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,overrides",
    EQUIVALENCE_CONFIGS,
    ids=[name for name, _ in EQUIVALENCE_CONFIGS],
)
def test_adaptive_matches_exhaustive(name, overrides):
    exhaustive = run_sweep(name, **overrides)
    adaptive = run_sweep(name, search="adaptive", **overrides)

    assert exhaustive.search == "exhaustive"
    assert adaptive.search == "adaptive"
    total = adaptive.grid_points_total
    assert total == exhaustive.grid_points_total == len(exhaustive.points)

    # The contract: identical TippingPoint rows...
    assert adaptive.tipping_points() == exhaustive.tipping_points()
    # ...from at most a quarter of the DES replays (the ISSUE floor).
    assert exhaustive.des_points_run == total
    assert adaptive.des_points_run * 4 <= total

    # Probed points are byte-identical to the exhaustive replays; the
    # rest are flagged analytic estimates.
    assert sum(
        1 for pt in adaptive.points if not pt.estimated
    ) == adaptive.des_points_run
    for pt_ex, pt_ad in zip(exhaustive.points, adaptive.points):
        assert pt_ad.params == pt_ex.params
        assert not pt_ex.estimated
        if not pt_ad.estimated:
            assert pt_ad.software == pt_ex.software
            assert pt_ad.hardware == pt_ex.hardware
            assert pt_ad.ondemand == pt_ex.ondemand

    # The savings counter and the estimate footnote surface in render().
    text = adaptive.render()
    assert f"adaptive search: DES on {adaptive.des_points_run}/{total}" in text
    if adaptive.des_points_run < total:
        assert "~ analytic steady-state estimate" in text
    assert "adaptive search" not in exhaustive.render()

    if name in ("sweep-rack-kvs", "sweep-rack-hetero"):
        # these grids are chosen to cross for real — the equivalence is
        # only interesting if at least one row has a confirmed crossover
        assert any(
            row.crossover is not None for row in adaptive.tipping_points()
        )


# ---------------------------------------------------------------------------
# Anchors: user-pinned points always replay the DES.
# ---------------------------------------------------------------------------


def test_anchored_points_are_des_replayed():
    overrides = dict(
        hosts=(1,),
        rates_kpps=(8.0, 12.0, 16.0, 20.0, 24.0, 28.0),
        duration_s=0.05,
        keyspace=4_000,
    )
    anchor = {"rate_per_host_kpps": 16.0}
    plain = run_sweep("sweep-rack-kvs", search="adaptive", **overrides)
    anchored = run_sweep(
        "sweep-rack-kvs", search="adaptive", anchors=(anchor,), **overrides
    )
    assert anchored.point(n_hosts=1, rate_per_host_kpps=16.0).estimated is False
    assert anchored.des_points_run >= plain.des_points_run
    assert anchored.tipping_points() == plain.tipping_points()


# ---------------------------------------------------------------------------
# Replication: seed 0 brackets, later seeds start from its hints.
# ---------------------------------------------------------------------------


def test_replicated_adaptive_rows_match_standalone_runs():
    overrides = dict(
        hosts=(1, 2),
        rates_kpps=(46.0, 54.0, 62.0, 70.0),
        duration_s=0.12,
        keyspace=4_000,
    )
    result = run_replicated(
        "sweep-rack-kvs", seeds=3, search="adaptive", **overrides
    )
    assert len(result.runs) == len(result.seeds) == 3
    for seed, run in zip(result.seeds, result.runs):
        assert run.search == "adaptive"
        spec = _with_seed(build_sweep_spec("sweep-rack-kvs", **overrides), seed)
        standalone = run_sweep(spec, search="adaptive")
        # per-seed rows are that seed's own DES facts — identical to a
        # standalone adaptive run of the same seed (the shared hints only
        # move the walk's starting probe, never the confirmed rows)
        assert run.tipping_points() == standalone.tipping_points()
    # the reused bracket means later seeds never probe more than seed 0,
    # which pays for the endpoint calibration probes
    for run in result.runs[1:]:
        assert run.des_points_run <= result.runs[0].des_points_run


def test_replication_spec_validates_search():
    spec = build_sweep_spec("sweep-rack-kvs", hosts=(1,), rates_kpps=(8.0,))
    with pytest.raises(ConfigurationError, match="search"):
        run_replicated(spec, search="bogus")
    with pytest.raises(ConfigurationError, match="adaptive"):
        run_replicated(spec, search="adaptive", fastpath=True)


def test_adaptive_probe_waves_through_the_pool_match_serial():
    spec = build_sweep_spec(
        "sweep-rack-kvs",
        hosts=(1,),
        rates_kpps=(8.0, 16.0, 24.0, 32.0),
        duration_s=0.05,
        keyspace=2_000,
    )
    serial = run_sweep(spec, search="adaptive")
    dispatched = executor_stats()["tasks_dispatched"]
    try:
        pooled = run_sweep(spec, search="adaptive", workers=2)
    finally:
        shutdown_executor()
    # the first probe wave holds several points, so it went to the pool
    assert executor_stats()["tasks_dispatched"] > dispatched
    assert pooled.render() == serial.render()


# ---------------------------------------------------------------------------
# Error paths.
# ---------------------------------------------------------------------------


class TestAdaptiveErrors:
    def test_unknown_search_mode(self):
        with pytest.raises(ConfigurationError, match="unknown search mode"):
            run_sweep("sweep-rack-kvs", search="dowsing")

    def test_adaptive_conflicts_with_fastpath(self):
        with pytest.raises(ConfigurationError, match="redundant"):
            run_sweep("sweep-rack-kvs", search="adaptive", fastpath=True)

    def test_anchors_require_adaptive(self):
        with pytest.raises(ConfigurationError, match="anchors"):
            run_sweep("sweep-rack-kvs", anchors=({"n_hosts": 1},))

    def test_adaptive_needs_an_eligible_point(self):
        with pytest.raises(
            ConfigurationError, match="no grid point is steady-state eligible"
        ):
            run_sweep("sweep-rack-mixed", search="adaptive")

    def test_empty_anchor_rejected(self):
        with pytest.raises(ConfigurationError, match="anchor"):
            run_sweep("sweep-rack-kvs", search="adaptive", anchors=({},))

    def test_unknown_anchor_key_rejected(self):
        with pytest.raises(ConfigurationError, match="anchor"):
            run_sweep(
                "sweep-rack-kvs",
                search="adaptive",
                anchors=({"warp_factor": 9},),
            )
