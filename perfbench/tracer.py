"""Per-layer span tracer installed on the simulator from outside.

The tracer wraps, at start-up and without editing ``src/``:

* the public methods (plus ``__init__`` and ``__call__``) of every class
  defined in a layer package of ``repro``;
* the public module-level functions of those packages, rebinding every
  ``from x import f`` copy held by another ``repro`` module;
* every callback handed to ``Scheduler.push`` -- the one entry point behind
  ``Simulator.schedule``/``schedule_at``, the channel's direct pushes and
  ``Timer``/``PeriodicTimer`` re-arming -- so a dispatched callback is charged
  to the package that defines it.  A timer's ``_fire``/``_tick`` trampoline is
  charged to the layer of the callback the timer owns, so no time is ever
  billed to timer dispatch as such.

A call from one layer into another opens a span (layer, function, start, end,
parent span); a call within a layer opens none, since its time belongs to
that layer either way.  Spans are aggregated in memory per operation and per
(parent function, function) edge; a function's self time is its span minus
its child spans.  Cyclic-GC pauses
arrive through ``gc.callbacks`` and are taken out of the span they
interrupted, so ``sum(self) + gc == covered wall time``.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Packages of ``repro`` that are layers.  ``bench``, ``campaign`` and
#: ``lint`` are tools the workloads never enter.
LAYER_PACKAGES = ("apps", "channel", "core", "experiments", "mac", "mobility",
                  "net", "node", "obs", "phy", "sim", "stats", "topology",
                  "transport")

#: Dunder methods that do a layer's work; other dunders stay unwrapped and
#: are charged to their caller.
_WRAPPED_DUNDERS = ("__init__", "__call__")

#: Parent id of spans opened outside any other span.
ROOT = 0

#: Edge keys are ``parent_fid * _EDGE_SHIFT + fid``.
_EDGE_SHIFT = 1 << 20


def layer_of_module(module: Optional[str]) -> str:
    """``repro.mac.dcf`` -> ``mac``; anything outside a layer -> ``other``."""
    if module and module.startswith("repro."):
        package = module.split(".")[1]
        if package in LAYER_PACKAGES:
            return package
    return "other"


def import_layers() -> List[types.ModuleType]:
    """Import and return every module of the layer packages (no ``__main__``)."""
    modules = []
    for package in LAYER_PACKAGES:
        root = importlib.import_module(f"repro.{package}")
        modules.append(root)
        for info in pkgutil.walk_packages(root.__path__, prefix=f"repro.{package}."):
            if info.name.rsplit(".", 1)[-1] == "__main__":
                continue
            modules.append(importlib.import_module(info.name))
    modules.sort(key=lambda module: module.__name__)
    return modules


class LayerTracer:
    """Installs span wrappers on the ``repro`` layers; see the module docstring.

    Use as a context manager: everything patched on entry is restored on exit.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Open spans, innermost last: ``[fid, child_seconds, layer id]``.
        #: The bottom frame stands for "outside every span".
        self._stack: List[List[Any]] = [[ROOT, 0.0, -1]]
        #: fid -> (layer, function name).
        self.functions: Dict[int, Tuple[str, str]] = {ROOT: ("", "<root>")}
        self._by_name: Dict[Tuple[str, str], int] = {}
        self._layer_ids: Dict[str, int] = {"": -1}
        self._layer_of_fid: Dict[int, int] = {}
        #: Live aggregates of the current operation: edge key ->
        #: ``[calls, inclusive_s, self_s]``.
        self._edges: Dict[int, List[Any]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._callback_fids: Dict[Any, int] = {}
        self._timer_types: Tuple[type, ...] = ()
        self._gc_started = 0.0
        self.gc_pause_s = 0.0
        self.pushes = 0
        self.cancellations = 0
        #: Finished operations: op id, wall and gc seconds, span edges.
        self.operations: List[Dict[str, Any]] = []
        self._op_id: Optional[str] = None
        self._op_start = 0.0
        self._op_gc = 0.0
        self._span_call = self._span_runner()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _fid(self, layer: str, name: str) -> int:
        key = (layer, name)
        fid = self._by_name.get(key)
        if fid is None:
            fid = len(self.functions)
            self.functions[fid] = key
            self._by_name[key] = fid
            self._layer_of_fid[fid] = self._layer_ids.setdefault(layer, len(self._layer_ids))
        return fid

    def _span_runner(self) -> Callable[..., Any]:
        """``in_span(fid, layer_id, fn, args, kwargs)``: call ``fn`` inside a span."""
        stack = self._stack
        push_frame = stack.append
        pop_frame = stack.pop
        edges = self._edges
        clock = self._clock

        def in_span(fid, layer_id, fn, args, kwargs):
            parent = stack[-1]
            frame = [fid, 0.0, layer_id]
            push_frame(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                pop_frame()
                parent[1] += elapsed
                key = parent[0] * _EDGE_SHIFT + fid
                acc = edges.get(key)
                if acc is None:
                    acc = edges[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - frame[1]

        return in_span

    def span(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        """Return ``fn`` wrapped so that a call from another layer opens a span.

        A call from the same layer opens none: its time is that layer's
        either way, and skipping it keeps the tracer's own cost down.
        """
        fid = self._fid(layer, name)
        layer_id = self._layer_of_fid[fid]
        stack = self._stack
        in_span = self._span_call

        def traced(*args, **kwargs):
            if stack[-1][2] == layer_id:
                return fn(*args, **kwargs)
            return in_span(fid, layer_id, fn, args, kwargs)

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            try:
                setattr(traced, attr, getattr(fn, attr))
            except (AttributeError, TypeError):
                pass
        traced.__wrapped__ = fn
        traced.perfbench_fid = fid
        return traced

    def _dispatcher(self) -> Callable[..., Any]:
        """``dispatch(fid, callback, args)``: run a callback inside its owner's span.

        Scheduled callbacks are pushed as this one function with their owner
        fid in the argument tuple, so no closure is built per event.
        """
        stack = self._stack
        layer_of_fid = self._layer_of_fid
        in_span = self._span_call
        no_kwargs: Dict[str, Any] = {}

        def dispatch(fid, callback, args):
            layer_id = layer_of_fid[fid]
            if stack[-1][2] == layer_id:
                return callback(*args)
            return in_span(fid, layer_id, callback, args, no_kwargs)

        return dispatch

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = self._clock()
            return
        pause = self._clock() - self._gc_started
        # The pause happened inside the innermost open span: count it as
        # that span's child time so its self time excludes the collector.
        self._stack[-1][1] += pause
        self.gc_pause_s += pause

    # ------------------------------------------------------------------
    # Callback attribution
    # ------------------------------------------------------------------
    def owner(self, callback: Any) -> int:
        """fid of the span a scheduled callback is charged to.

        Timer trampolines resolve to the callback the timer owns; bound
        methods and functions to the module that defines them.
        """
        target = getattr(callback, "__self__", None)
        if isinstance(target, self._timer_types):
            return self.owner(target._callback)
        func = getattr(callback, "__func__", callback)
        fid = getattr(func, "perfbench_fid", None)
        if fid is not None:
            return fid
        code = getattr(func, "__code__", func)
        fid = self._callback_fids.get(code)
        if fid is None:
            name = getattr(func, "__qualname__", None) or type(func).__qualname__
            layer = layer_of_module(getattr(func, "__module__", None))
            fid = self._fid(layer, name)
            self._callback_fids[code] = fid
        return fid

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _WRAPPED_DUNDERS:
                continue
            label = f"{cls.__qualname__}.{name}"
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self.span(attr.__func__, layer, label)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self.span(attr.__func__, layer, label)))
            elif isinstance(attr, types.FunctionType):
                self._patch(cls, name, self.span(attr, layer, label))

    def install(self) -> "LayerTracer":
        """Wrap every layer; idempotence is not supported (install once)."""
        import enum

        from repro.sim.scheduler import Scheduler
        from repro.sim.timer import PeriodicTimer, Timer

        self._timer_types = (Timer, PeriodicTimer)
        modules = import_layers()
        replaced: Dict[int, Callable[..., Any]] = {}
        for module in modules:
            layer = layer_of_module(module.__name__)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if issubclass(obj, (BaseException, enum.Enum)) or getattr(
                            obj, "_is_protocol", False):
                        continue
                    self._wrap_class(obj, layer)
                elif isinstance(obj, types.FunctionType) and not name.startswith("_"):
                    wrapper = self.span(obj, layer, obj.__qualname__)
                    replaced[id(obj)] = wrapper
                    self._patch(module, name, wrapper)
        # Rebind the copies that ``from x import f`` left in other modules.
        for module_name in sorted(sys.modules):
            module = sys.modules[module_name]
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patch(module, name, wrapper)

        # Scheduler.push hands the callback over inside ``dispatch`` and
        # counts the push; resolving the owner is part of the ``sim`` span.
        original_push = Scheduler.__dict__["push"].__wrapped__
        tracer = self
        dispatch = self._dispatcher()
        owner = self.owner

        def push(scheduler, time, callback, args=(), priority=0):
            tracer.pushes += 1
            func = getattr(callback, "__func__", callback)
            if getattr(func, "perfbench_fid", None) is None:
                # Not a wrapped public method (which opens its own span).
                args = (owner(callback), callback, tuple(args))
                callback = dispatch
            return original_push(scheduler, time, callback, args, priority)

        self._patch(Scheduler, "push", self.span(push, "sim", "Scheduler.push"))

        traced_cancel = Scheduler.__dict__["cancel"]

        def cancel(scheduler, handle):
            event = handle._event
            live = not (event.dequeued or event.cancelled)
            traced_cancel(scheduler, handle)
            if live and event.cancelled:
                tracer.cancellations += 1

        self._patch(Scheduler, "cancel", cancel)

        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_op(self, op_id: str) -> None:
        """Spans from now on belong to operation ``op_id``."""
        self._op_id = op_id
        self._edges.clear()
        self._op_gc = self.gc_pause_s
        self._op_start = self._clock()

    def end_op(self) -> None:
        """Close the current operation and keep its aggregated spans."""
        wall = self._clock() - self._op_start
        self.operations.append({
            "op": self._op_id,
            "wall_s": wall,
            "gc_s": self.gc_pause_s - self._op_gc,
            "edges": dict(self._edges),
        })
        self._edges.clear()
        self._op_id = None

    def report(self) -> Dict[str, Any]:
        """Self seconds per layer, call counts per function and per-op span edges."""
        layers: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        edges_out = []
        wall = gc_s = 0.0
        for op in self.operations:
            wall += op["wall_s"]
            gc_s += op["gc_s"]
            for key, (count, inclusive, self_s) in sorted(op["edges"].items()):
                parent, fid = divmod(key, _EDGE_SHIFT)
                layer, name = self.functions[fid]
                layers[layer] = layers.get(layer, 0.0) + self_s
                label = f"{layer}:{name}"
                calls[label] = calls.get(label, 0) + count
                parent_layer, parent_name = self.functions[parent]
                edges_out.append({
                    "op": op["op"], "parent": f"{parent_layer}:{parent_name}",
                    "span": label, "calls": count,
                    "inclusive_s": inclusive, "self_s": self_s,
                })
        attributed = sum(layers.values())
        return {
            "wall_s": wall,
            "gc_s": gc_s,
            "pushes": self.pushes,
            "cancellations": self.cancellations,
            "coverage": (attributed + gc_s) / wall if wall > 0 else 0.0,
            "self_s": {name: layers[name] for name in sorted(layers)},
            "calls": {name: calls[name] for name in sorted(calls)},
            "edges": edges_out,
        }
