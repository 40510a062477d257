"""The analytic steady grid: :func:`steady_grid` returns exactly the
per-point fast path's estimates over the registered sweeps, and rejects
what :func:`steady_point` rejects."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    build_sweep_spec,
    hardware_variant,
    software_variant,
    steady_grid,
)
from repro.scenarios.fastpath import steady_eligible, steady_point
from repro.scenarios.sweep import _materialize

#: Registered sweeps whose every grid point is steady-state eligible —
#: the sweeps the analytic grid (and the adaptive search) covers.
ELIGIBLE_SWEEPS = ["sweep-rack-kvs", "sweep-rack-hetero", "sweep-fabric-scale"]


def _eligible_grid(name):
    sweep = build_sweep_spec(name)
    return [_materialize(sweep, params) for params in sweep.points()]


# ---------------------------------------------------------------------------
# Grid-level identity: steady_grid == [steady_point, ...] on real sweeps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ELIGIBLE_SWEEPS)
@pytest.mark.parametrize("mode", ["software", "hardware"])
def test_steady_grid_matches_steady_point(name, mode):
    variant = software_variant if mode == "software" else hardware_variant
    specs = [variant(spec) for spec in _eligible_grid(name)]
    assert all(steady_eligible(spec) for spec in specs)
    batched = steady_grid(specs, mode)
    for spec, est in zip(specs, batched):
        one = steady_point(spec, mode)
        # exact equality, field for field — byte-identical, not approx
        assert est == one


def test_steady_grid_rejects_unknown_mode():
    specs = [software_variant(_eligible_grid("sweep-rack-kvs")[0])]
    with pytest.raises(ConfigurationError, match="fast path answers"):
        steady_grid(specs, "turbo")


def test_steady_grid_rejects_ineligible_spec():
    sweep = build_sweep_spec("sweep-rack-mixed")
    spec = software_variant(_materialize(sweep, sweep.points()[0]))
    assert not steady_eligible(spec)
    with pytest.raises(ConfigurationError, match="not steady-state eligible"):
        steady_grid([spec], "software")


def test_steady_grid_empty_input():
    assert steady_grid([], "software") == []
