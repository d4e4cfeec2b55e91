"""The simulation clock and run loop.

:class:`Simulator` owns a :class:`~repro.sim.scheduler.Scheduler`, the current
simulated time, the root random-number streams and the instrumentation
probe.  Every other
component in the library holds a reference to a ``Simulator`` and interacts
with time exclusively through it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.journey import JourneyRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.obs.profiler import perf_counter
from repro.obs.session import on_simulator_created
from repro.obs.tracer import Tracer
from repro.sim.events import Event
from repro.sim.randomness import RandomStreams
from repro.sim.scheduler import Scheduler
from repro.sim.telemetry import TELEMETRY


class Simulator:
    """Discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all random streams derived from this simulator.
    """

    #: Event priorities.  Lower values fire first at equal times.  PHY events
    #: fire before MAC events which fire before application events so that a
    #: frame that finishes reception at time *t* is processed before a timer
    #: that expires at the same instant.
    __slots__ = ("_now", "_scheduler", "_running", "_stopped", "random",
                 "_events_processed", "probe", "profiler")

    PRIORITY_PHY = 0
    PRIORITY_MAC = 10
    PRIORITY_NET = 20
    PRIORITY_APP = 30
    PRIORITY_DEFAULT = 50

    def __init__(self, seed: int = 1) -> None:
        self._now = 0.0
        self._scheduler = Scheduler()
        self._running = False
        self._stopped = False
        self.random = RandomStreams(seed)
        self._events_processed = 0
        #: Where every protocol event is emitted, behind ``probe.enabled``;
        #: an observability session (``repro.obs.session.observe``)
        #: subscribes the tracer, metrics, journeys and frame capture.
        self.probe = Probe(self)
        #: Optional :class:`~repro.obs.profiler.HotPathProfiler`; when set,
        #: :meth:`run` times every callback.
        self.profiler = None
        # Adopt this simulator into the active observability session, if any.
        on_simulator_created(self)

    @property
    def tracer(self) -> Optional[Tracer]:
        """The subscribed :class:`~repro.obs.tracer.Tracer`, if any."""
        return self.probe.subscriber(Tracer)

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The subscribed :class:`~repro.obs.metrics.MetricsRegistry`, if any."""
        return self.probe.subscriber(MetricsRegistry)

    @property
    def journey(self) -> Optional[JourneyRecorder]:
        """The subscribed :class:`~repro.obs.journey.JourneyRecorder`, if any."""
        return self.probe.subscriber(JourneyRecorder)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._scheduler)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._scheduler.push(self._now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        return self._scheduler.push(time, callback, args, priority)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event; ``None`` and already-fired events are ignored."""
        if event is not None:
            self._scheduler.cancel(event)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or ``stop()``.

        Returns the simulated time at which the run loop exited.  With a
        :attr:`profiler` attached, each callback's wall-clock is charged to
        its category and the rest of the loop (heap pops, dispatch) to the
        profiler's ``scheduler`` category.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        processed_this_run = 0
        started_at = self._now
        scheduler = self._scheduler
        pop_next = scheduler.pop_next
        profiler = self.profiler
        callback_seconds = 0.0
        loop_started = perf_counter()
        try:
            while not self._stopped:
                event = pop_next(until)
                if event is None:
                    if until is not None and not scheduler.empty:
                        # Horizon reached with live events still beyond it.
                        self._now = until
                    break
                self._now = event.time
                event.fired = True
                if profiler is None:
                    event.callback(*event.args)
                else:
                    callback = event.callback
                    before = perf_counter()
                    callback(*event.args)
                    elapsed = perf_counter() - before
                    callback_seconds += elapsed
                    profiler.record(profiler.category_for(callback), elapsed)
                self._events_processed += 1
                processed_this_run += 1
                if max_events is not None and processed_this_run >= max_events:
                    break
            if until is not None and not self._stopped and scheduler.empty:
                # Queue drained before the horizon: advance the clock to it.
                self._now = max(self._now, until)
        finally:
            if profiler is not None:
                profiler.record_loop(perf_counter() - loop_started,
                                     callback_seconds)
            self._running = False
            TELEMETRY.record_run(processed_this_run, self._now - started_at)
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Random streams are *not* re-seeded; construct a new simulator for a
        fully fresh run.
        """
        self._scheduler.clear()
        self._now = 0.0
        self._stopped = False
        self._events_processed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.6f}s pending={self.pending_events} "
            f"processed={self._events_processed}>"
        )
