"""Event objects used by the discrete-event scheduler.

An :class:`Event` is a record of *when* a callback should fire and with which
arguments, and it is also the caller's handle to that callback:
:meth:`repro.sim.scheduler.Scheduler.push` (and therefore
:meth:`repro.sim.simulator.Simulator.schedule`) returns the event itself,
which supports cancellation and introspection.  Returning the event instead
of a separate handle object saves one allocation per scheduled callback.

The class uses ``__slots__``: the simulator allocates one event per
scheduled callback (hundreds of thousands per experiment), so per-instance
dict overhead dominated allocation cost before the slots layout.  The
scheduler's heap orders events through C-level tuple comparison of
``(time, priority, sequence)`` keys (see :mod:`repro.sim.scheduler`), so
events themselves are never compared.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Scheduler


#: Monotone counter used to break ties between events scheduled for the same
#: simulated time.  Ties are broken in scheduling order (FIFO), which keeps
#: protocol state machines deterministic.
_sequence = itertools.count()


#: Return the next global event sequence number.  Bound directly to the
#: counter's C-level ``__next__`` — this runs once per scheduled event, and a
#: Python wrapper function doubled its cost.
next_sequence = _sequence.__next__


class Event:
    """A scheduled callback, and the handle its scheduler hands out for it.

    Events are ordered by ``(time, priority, sequence)``; the callback and its
    arguments do not participate in the ordering.  The event stays valid
    after it has fired; :attr:`active` then becomes ``False``.  Cancelling
    routes back to the owning scheduler so its live-event count stays exact.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args",
                 "cancelled", "dequeued", "fired", "_scheduler")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        scheduler: "Scheduler",
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        #: True once cancelled; the scheduler will skip the event.
        self.cancelled = False
        #: True once the scheduler has removed the event from its queue (the
        #: only other way out is cancellation).  Cancelling a dequeued event
        #: must be a no-op or the scheduler's live-event count goes negative.
        self.dequeued = False
        #: True once the callback has been invoked.
        self.fired = False
        self._scheduler = scheduler

    @property
    def active(self) -> bool:
        """True while the event is still queued (not popped, not cancelled)."""
        return not self.dequeued and not self.cancelled

    @property
    def _event(self) -> "Event":
        """The event behind this handle: itself.

        ``perfbench/tracer.py`` reads ``handle._event`` in its wrapper around
        :meth:`Scheduler.cancel`.
        """
        return self

    def cancel(self) -> None:
        """Cancel the event if it is still queued (idempotent)."""
        self._scheduler.cancel(self)

    def fire(self) -> Any:
        """Invoke the callback (the scheduler calls this, not user code)."""
        self.fired = True
        return self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Event t={self.time:.6f} prio={self.priority} {state}>"
