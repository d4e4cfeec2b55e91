"""Unit tests for the event scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.sim.scheduler import Scheduler


def test_push_and_pop_in_time_order():
    sched = Scheduler()
    fired = []
    sched.push(2.0, fired.append, ("b",))
    sched.push(1.0, fired.append, ("a",))
    sched.push(3.0, fired.append, ("c",))
    times = []
    while not sched.empty:
        event = sched.pop()
        times.append(event.time)
        event.fire()
    assert times == [1.0, 2.0, 3.0]
    assert fired == ["a", "b", "c"]


def test_equal_times_fire_in_scheduling_order():
    sched = Scheduler()
    order = []
    for label in range(5):
        sched.push(1.0, order.append, (label,))
    while not sched.empty:
        sched.pop().fire()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties_before_sequence():
    sched = Scheduler()
    order = []
    sched.push(1.0, order.append, ("low",), priority=10)
    sched.push(1.0, order.append, ("high",), priority=0)
    while not sched.empty:
        sched.pop().fire()
    assert order == ["high", "low"]


def test_cancel_removes_event_from_live_count():
    sched = Scheduler()
    handle = sched.push(1.0, lambda: None)
    assert len(sched) == 1
    sched.cancel(handle)
    assert len(sched) == 0
    assert sched.pop() is None


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    keep = sched.push(1.0, fired.append, ("keep",))
    drop = sched.push(1.0, fired.append, ("drop",))
    sched.cancel(drop)
    while True:
        event = sched.pop()
        if event is None:
            break
        event.fire()
    assert fired == ["keep"]
    assert keep.active is False or keep.fired is False  # handle survives


def test_cancel_is_idempotent():
    sched = Scheduler()
    handle = sched.push(1.0, lambda: None)
    sched.cancel(handle)
    sched.cancel(handle)
    assert len(sched) == 0


def test_pop_skips_cancelled_head():
    sched = Scheduler()
    first = sched.push(1.0, lambda: None)
    sched.push(2.0, lambda: None)
    sched.push(3.0, lambda: None)
    sched.cancel(first)
    assert sched.pop().time == 2.0
    second = sched.push(2.5, lambda: None)
    sched.cancel(second)
    # The run loop's entry point: a cancelled head neither fires nor hides
    # the next live event from the ``until`` check.
    assert sched.pop_next(until=2.9) is None
    assert sched.pop_next(until=3.0).time == 3.0
    assert len(sched) == 0


def test_non_callable_callback_rejected():
    sched = Scheduler()
    with pytest.raises(SchedulingError):
        sched.push(1.0, "not callable")  # type: ignore[arg-type]


def test_clear_empties_queue():
    sched = Scheduler()
    for i in range(10):
        sched.push(float(i), lambda: None)
    sched.clear()
    assert sched.empty
    assert sched.pop() is None


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_pop_order_is_always_sorted(times):
    sched = Scheduler()
    for t in times:
        sched.push(t, lambda: None)
    popped = []
    while not sched.empty:
        popped.append(sched.pop().time)
    assert popped == sorted(times)
