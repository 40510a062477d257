"""Discrete-event kernel behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(sim.now))
    sim.schedule(20.0, lambda: fired.append(sim.now))
    sim.run_until(15.0)
    assert fired == [10.0]
    assert sim.now == 15.0
    sim.run_until(25.0)
    assert fired == [10.0, 20.0]


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, lambda: order.append("c"))
    sim.schedule(10.0, lambda: order.append("a"))
    sim.schedule(20.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(5.0, lambda l=label: order.append(l))
    sim.run()
    assert order == list("abcde")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        sim.schedule(5.0, lambda: fired.append(sim.now))

    sim.schedule(10.0, outer)
    sim.run()
    assert fired == [15.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(100.0)
    with pytest.raises(SimulationError):
        sim.run_until(50.0)


def test_call_every_fires_periodically():
    sim = Simulator()
    fired = []
    handle = sim.call_every(10.0, lambda: fired.append(sim.now))
    sim.run_until(55.0)
    assert fired == [10.0, 20.0, 30.0, 40.0, 50.0]
    handle.cancel()
    sim.run_until(100.0)
    assert len(fired) == 5


def test_call_every_callback_can_cancel():
    sim = Simulator()
    fired = []
    handle = sim.call_every(10.0, lambda: (fired.append(sim.now), handle.cancel()))
    sim.run_until(100.0)
    assert fired == [10.0]
    # cancelled inside its own callback: no tick was re-armed
    assert sim.pending == 0
    assert sim.events_executed == 1


def test_call_every_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_every(0.0, lambda: None)


def test_run_bounded_by_max_events():
    sim = Simulator()

    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_pending_counts_uncancelled():
    sim = Simulator()
    e1 = sim.schedule(10.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    e1.cancel()
    assert sim.pending == 1


def test_pending_tracks_execution_and_double_cancel():
    sim = Simulator()
    e1 = sim.schedule(10.0, lambda: None)
    e2 = sim.schedule(20.0, lambda: None)
    assert sim.pending == 2
    e1.cancel()
    e1.cancel()  # idempotent: must not decrement twice
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    e2.cancel()  # cancelling an already-executed event is a no-op
    assert sim.pending == 0


def test_pending_is_o1_with_cancelled_backlog():
    """pending must not scan the heap: a large lazily-cancelled backlog
    leaves the counter exact while the heap still holds the entries."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
    for event in events[:999]:
        event.cancel()
    assert sim.pending == 1
    assert len(sim._heap) == 1000  # lazy cancellation: entries remain


def test_run_until_budget_counts_only_executed_callbacks():
    """max_events charges executed callbacks; purging cancelled events is
    free (the documented run_until semantics)."""
    sim = Simulator()
    cancelled = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
    for event in cancelled:
        event.cancel()
    fired = []
    for i in range(3):
        sim.schedule(100.0 + i, lambda i=i: fired.append(i))
    sim.run_until(200.0, max_events=3)  # would raise if purges were charged
    assert fired == [0, 1, 2]
    assert sim._heap == []  # the budget scan purged the cancelled backlog


def test_run_until_budget_still_enforced():
    from repro.errors import SimulationError

    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    with pytest.raises(SimulationError):
        sim.run_until(10.0, max_events=4)


def test_clock_advances_to_run_until_time_with_empty_heap():
    sim = Simulator()
    sim.run_until(123.0)
    assert sim.now == 123.0


# -- the schedule_call tier and the one periodic loop ------------------------


def test_fast_tier_interleaves_with_events_in_schedule_order():
    sim = Simulator()
    order = []
    sim.schedule(10.0, lambda: order.append("event"))
    sim.schedule_call(10.0, order.append, "call")
    sim.schedule(10.0, lambda: order.append("event2"))
    sim.run()
    assert order == ["event", "call", "event2"]


def test_fast_tier_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_call(-1.0, print, None)


def test_call_every_draws_jitter_after_each_callback():
    """The first tick comes after an un-jittered interval; each later
    delay is drawn from the rng after the callback has run — the draw
    order the byte-identical goldens depend on."""
    import random

    rng = random.Random(5)
    ticks, states = [], []

    def tick():
        ticks.append(sim.now)
        states.append(rng.getstate())  # no loop draw yet for this tick

    sim = Simulator()
    sim.call_every(10.0, tick, jitter=0.3, rng=rng)
    sim.run_until(500.0)

    twin = random.Random(5)
    expected, expected_states, t = [], [], 10.0
    while t <= 500.0:
        expected.append(t)
        expected_states.append(twin.getstate())
        t += 10.0 * (1.0 + twin.uniform(-0.3, 0.3))
    assert ticks == expected
    assert states == expected_states


def test_call_every_cancel_stops_ticks():
    sim = Simulator()
    fired = []
    handle = sim.call_every(10.0, lambda: fired.append(sim.now))
    sim.run_until(35.0)
    handle.cancel()
    sim.run_until(200.0)
    assert fired == [10.0, 20.0, 30.0]


def test_call_every_cancel_leaves_one_noop_tick():
    """Cancelling from outside the loop's own callback — between runs or
    from another event — leaves the queued tick as a no-op: the callback
    never runs again, ``pending`` counts the tick until it fires, then 0."""
    for from_event in (False, True):
        sim = Simulator()
        fired = []
        handle = sim.call_every(10.0, lambda: fired.append(sim.now))
        if from_event:
            sim.schedule(35.0, handle.cancel)
        sim.run_until(35.0)
        if not from_event:
            handle.cancel()
        assert sim.pending == 1  # the t=40 tick
        executed = sim.events_executed
        sim.run_until(39.0)
        assert sim.pending == 1
        sim.run_until(200.0)
        assert fired == [10.0, 20.0, 30.0]
        assert sim.events_executed == executed + 1
        assert sim.pending == 0


def test_call_every_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_every(0.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_every(10.0, lambda: None, jitter=0.3)  # jitter needs rng


# -- run(max_events) ----------------------------------------------------------


def test_run_executes_exactly_max_events():
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.now == 3.0  # run() leaves the clock at the last event


def test_run_raises_one_past_max_events():
    sim = Simulator()
    fired = []
    for i in range(4):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
