"""Hot-path profiler: where does the wall-clock go, by event category?

The scheduler loop is the simulator's only hot path, and every unit of work
it does is an event callback.  :class:`HotPathProfiler` times each callback
with :func:`time.perf_counter` and aggregates wall-clock into **categories**
derived from the callback's defining module (``repro.mac.dcf`` → ``mac``),
refined by class name for the larger layers (``mac/AggregatingMac``).  Time
spent popping the heap and dispatching — everything in the loop that is not
a callback — lands in the named ``scheduler`` category, so the table
attributes ~100% of the measured loop time to named rows.

With a profiler attached, :meth:`repro.sim.simulator.Simulator.run` times
each callback; without one the loop pays a single ``profiler is None`` test
per event.  Categorisation is cached per function object, keeping the
per-event overhead to two ``perf_counter`` calls and a dict hit.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

#: Category for loop overhead (heap pops, dispatch) not inside any callback.
SCHEDULER_CATEGORY = "scheduler"

#: Module prefixes collapsed to a layer name; longest match wins.
_LAYER_PREFIXES = (
    ("repro.phy", "phy"),
    ("repro.channel", "channel"),
    ("repro.mac", "mac"),
    ("repro.net", "net"),
    ("repro.transport", "transport"),
    ("repro.apps", "apps"),
    ("repro.mobility", "mobility"),
    ("repro.experiments", "experiments"),
    ("repro.sim", "sim"),
)


def categorize(callback: Callable[..., Any]) -> str:
    """Category for a callback: ``<layer>/<Class>`` or ``<layer>``.

    Bound methods are resolved through ``__func__`` so every instance of a
    class shares one category (and one cache entry on the function object).
    """
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", "") or ""
    qualname = getattr(func, "__qualname__", "") or ""
    layer = None
    for prefix, name in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            layer = name
            break
    if layer is None:
        layer = module.split(".")[0] if module else "unknown"
    cls = qualname.split(".")[0] if "." in qualname else ""
    if cls and cls[0].isupper():
        return f"{layer}/{cls}"
    return layer


class HotPathProfiler:
    """Aggregates event-callback wall-clock by category.

    One profiler may span several simulators (an experiment sweep attaches
    the same instance to each run it creates), accumulating a single table.
    """

    def __init__(self) -> None:
        # category -> [event count, total seconds]
        self._categories: Dict[str, List[float]] = {}
        self._category_cache: Dict[Any, str] = {}
        #: Wall-clock spent inside ``Simulator.run`` across all profiled runs.
        self.loop_seconds = 0.0
        #: Total events dispatched across all profiled runs.
        self.events = 0

    def category_for(self, callback: Callable[..., Any]) -> str:
        """Cached :func:`categorize` keyed by the underlying function object."""
        func = getattr(callback, "__func__", callback)
        found = self._category_cache.get(func)
        if found is None:
            found = self._category_cache[func] = categorize(callback)
        return found

    def record(self, category: str, seconds: float) -> None:
        """Add one timed callback to ``category``."""
        entry = self._categories.get(category)
        if entry is None:
            entry = self._categories[category] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds
        self.events += 1

    def record_loop(self, seconds: float, callback_seconds: float) -> None:
        """Account one ``run()`` invocation: total loop time and the part
        already attributed to callbacks; the difference is scheduler overhead."""
        self.loop_seconds += seconds
        overhead = max(0.0, seconds - callback_seconds)
        entry = self._categories.get(SCHEDULER_CATEGORY)
        if entry is None:
            entry = self._categories[SCHEDULER_CATEGORY] = [0, 0.0]
        entry[1] += overhead

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible dump, categories sorted by descending time."""
        total = sum(seconds for _, seconds in self._categories.values())
        rows = [
            {
                "category": category,
                "events": int(count),
                "seconds": seconds,
                "fraction": (seconds / total) if total else 0.0,
            }
            for category, (count, seconds) in sorted(
                self._categories.items(), key=lambda item: (-item[1][1], item[0]))
        ]
        attributed = (total / self.loop_seconds) if self.loop_seconds else 1.0
        return {
            "loop_seconds": self.loop_seconds,
            "events": self.events,
            "attributed_fraction": min(1.0, attributed),
            "categories": rows,
        }

    def to_text(self) -> str:
        """The "where time goes" table, widest consumers first."""
        snap = self.snapshot()
        lines = ["where time goes (wall-clock by event category)",
                 f"{'category':<28} {'events':>10} {'seconds':>10} {'share':>7}",
                 "-" * 58]
        for row in snap["categories"]:
            lines.append(f"{row['category']:<28} {row['events']:>10} "
                         f"{row['seconds']:>10.4f} {row['fraction']:>6.1%}")
        lines.append("-" * 58)
        rate = (snap["events"] / snap["loop_seconds"]) if snap["loop_seconds"] else 0.0
        lines.append(f"{'total':<28} {snap['events']:>10} "
                     f"{snap['loop_seconds']:>10.4f} "
                     f"({rate:,.0f} events/s, "
                     f"{snap['attributed_fraction']:.1%} attributed)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HotPathProfiler events={self.events} "
                f"loop_seconds={self.loop_seconds:.4f}>")


#: Re-exported so the simulator's run loop and tests share one clock.
perf_counter = time.perf_counter
