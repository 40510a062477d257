"""The sweep executor internals: spec-materialization cache, persistent
worker pool, chunked dispatch, failing grid points, and the fastpath
eligibility precheck."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.scenarios import (
    ScenarioSweepSpec,
    SweepAxis,
    build_sweep_spec,
    clear_spec_cache,
    run_replicated,
    run_sweep,
    shutdown_executor,
    spec_cache_stats,
    spec_hash,
)
from repro.scenarios.sweep import _auto_chunksize, _get_pool, _materialize


@pytest.fixture
def fresh_cache():
    clear_spec_cache()
    yield
    clear_spec_cache()


def tiny_sweep():
    return build_sweep_spec(
        "sweep-rack-kvs",
        hosts=(1, 2),
        rates_kpps=(8.0,),
        duration_s=0.1,
        keyspace=4_000,
    )


# -- spec_hash --------------------------------------------------------------


def test_spec_hash_is_order_insensitive():
    a = spec_hash("rack-kvs", {"n_hosts": 2, "rate_per_host_kpps": 8.0})
    b = spec_hash("rack-kvs", {"rate_per_host_kpps": 8.0, "n_hosts": 2})
    assert a == b


def test_spec_hash_separates_points_and_bases():
    base = spec_hash("rack-kvs", {"n_hosts": 2})
    assert spec_hash("rack-kvs", {"n_hosts": 3}) != base
    assert spec_hash("fabric-kvs", {"n_hosts": 2}) != base


# -- the materialization cache ----------------------------------------------


def test_materialize_returns_the_cached_instance(fresh_cache):
    sweep = tiny_sweep()
    point = sweep.points()[0]
    first = _materialize(sweep, point)
    assert spec_cache_stats()["misses"] >= 1
    hits_before = spec_cache_stats()["hits"]
    second = _materialize(sweep, point)
    # frozen dataclass, same instance: no re-run of the factory
    assert second is first
    assert spec_cache_stats()["hits"] == hits_before + 1


def test_cache_pins_the_factory_identity(fresh_cache):
    """A re-registered scenario name must miss, not serve the old spec."""
    from repro.scenarios.registry import _REGISTRY

    sweep = tiny_sweep()
    point = sweep.points()[0]
    original = _REGISTRY[sweep.base]
    stale = _materialize(sweep, point)
    try:
        _REGISTRY[sweep.base] = lambda **kw: original(**kw)
        fresh = _materialize(sweep, point)
        assert fresh is not stale
    finally:
        _REGISTRY[sweep.base] = original


def test_clear_spec_cache_resets_counters(fresh_cache):
    sweep = tiny_sweep()
    _materialize(sweep, sweep.points()[0])
    clear_spec_cache()
    assert spec_cache_stats() == {"hits": 0, "misses": 0, "size": 0}


# -- chunked dispatch -------------------------------------------------------


def test_auto_chunksize_targets_four_chunks_per_worker():
    assert _auto_chunksize(32, 2) == 4
    assert _auto_chunksize(64, 4) == 4
    # small task lists degrade gracefully to per-task dispatch
    assert _auto_chunksize(4, 8) == 1
    assert _auto_chunksize(0, 2) == 1


# -- the persistent pool ----------------------------------------------------


def test_pool_is_reused_across_calls():
    try:
        first = _get_pool(2)
        assert _get_pool(2) is first
        # a different worker count retires the old pool
        resized = _get_pool(3)
        assert resized is not first
    finally:
        shutdown_executor()


def test_pool_is_rebuilt_when_the_registry_changes():
    from repro.scenarios.registry import _REGISTRY

    try:
        first = _get_pool(2)
        _REGISTRY["executor-test-probe"] = lambda: None
        try:
            assert _get_pool(2) is not first
        finally:
            del _REGISTRY["executor-test-probe"]
    finally:
        shutdown_executor()


def test_shutdown_executor_is_idempotent():
    _get_pool(2)
    shutdown_executor()
    shutdown_executor()


# -- a failing grid point names itself --------------------------------------


@pytest.fixture
def faulty_sweep():
    """A throwaway scenario whose factory raises at one grid point."""
    from repro.scenarios.registry import _REGISTRY

    rack_kvs = _REGISTRY["rack-kvs"]

    def factory(n_hosts=1, **overrides):
        if n_hosts == 2:
            raise RuntimeError("no rack for this point")
        return rack_kvs(n_hosts=n_hosts, **overrides)

    _REGISTRY["executor-test-faulty"] = factory
    try:
        yield ScenarioSweepSpec(
            name="faulty",
            base="executor-test-faulty",
            axes=(SweepAxis("n_hosts", (1, 2)),),
            fixed=dict(
                rate_per_host_kpps=8.0, duration_s=0.02, keyspace=2_000, seed=5
            ),
        )
    finally:
        del _REGISTRY["executor-test-faulty"]
        shutdown_executor()


@pytest.mark.parametrize("workers", [None, 2])
def test_failing_grid_point_names_params_seed_and_spec_hash(
    faulty_sweep, workers
):
    with pytest.raises(SimulationError) as info:
        run_sweep(faulty_sweep, workers=workers)
    message = str(info.value)
    overrides = {**faulty_sweep.fixed_dict(), "n_hosts": 2}
    assert "{'n_hosts': 2}" in message
    assert "seed=5" in message
    assert spec_hash("executor-test-faulty", overrides) in message
    assert "RuntimeError: no rack for this point" in message
    if workers is None:
        assert isinstance(info.value.__cause__, RuntimeError)


# -- the fastpath eligibility precheck (never-eligible sweeps refuse) -------


def never_eligible_sweep():
    # rack-mixed carries Paxos groups and DNS replicas at every grid
    # point: no pin is ever steady-state eligible
    return build_sweep_spec(
        "sweep-rack-mixed", groups=(1,), duration_s=0.1
    )


def test_run_sweep_refuses_fastpath_on_never_eligible_sweep():
    with pytest.raises(ConfigurationError, match="steady-state eligible"):
        run_sweep(never_eligible_sweep(), fastpath=True)


def test_run_replicated_refuses_fastpath_on_never_eligible_sweep():
    with pytest.raises(ConfigurationError, match="steady-state eligible"):
        run_replicated(
            never_eligible_sweep(), seeds=2, workers=1, fastpath=True
        )
