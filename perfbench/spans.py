"""Outside-in span tracing for the benchmark's traced run.

The tracer never edits the program.  It replaces a layer's public entry
points — on the class that defines them, or on every ``repro`` module
attribute that holds a module-level function — with wrappers that record
one span per call, and puts the originals back when the run ends.

A span is ``(name, start, end, parent, operation id)``.  Each thread keeps
its own span buffer and its own stack of open spans, so work that the
service runs on its executor thread nests under that thread's spans only.
Spans stay in memory (flat ``array`` columns, about 40 bytes a span) and
are written out once, at the end, by :meth:`Tracer.dump`.

Generators and coroutines are traced per *step*: every resumption is one
span segment, so time a coroutine spends suspended (a keep-alive
connection waiting for its next request, a handler waiting for the engine
thread) is not charged to it.  Only a call's first segment counts as a
call.

A span's self time is its duration minus the part of it that its
children's spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

perf_counter = time.perf_counter


class SpanBuffer:
    """The spans one thread recorded, as parallel columns."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.first = array("b")  # 1 on a call's first segment
        self.stack: list[int] = []
        self.current_op = -1

    def open(self, name_id: int, first: int = 1) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.first.append(first)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)


def self_times(buffer: SpanBuffer) -> list[float]:
    """Per-span self time: duration minus the union its children cover.

    Children are the spans whose parent is the span, on the same buffer
    (thread); spans on other threads never reduce a span's self time.
    Child intervals are clipped to the parent's and overlapping children
    are counted once.  Spans are stored in start order, so one pass in
    index order sees every parent's children sorted by start.
    """
    starts, ends, parents = buffer.start, buffer.end, buffer.parent
    covered = [0.0] * len(starts)
    reach: dict[int, float] = {}  # parent -> end of the covered prefix
    for index in range(len(starts)):
        parent = parents[index]
        if parent < 0:
            continue
        low = max(starts[index], reach.get(parent, starts[parent]))
        high = min(ends[index], ends[parent])
        if high > low:
            covered[parent] += high - low
            reach[parent] = high
    return [
        (ends[index] - starts[index]) - covered[index]
        for index in range(len(starts))
    ]


@contextmanager
def operation(tracer: "Tracer | None", op_id: int):
    """The root ``op`` span of one workload operation (none untraced)."""
    if tracer is None:
        yield
        return
    index = tracer.begin_op(op_id)
    try:
        yield
    finally:
        tracer.end_op(index)


# -- wrapping -------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    ``owner`` is ``"module:Class"`` for a method (patched on the class) or
    ``"module"`` for a module-level function (patched on every loaded
    ``repro`` module that holds it, since ``from x import f`` copies it).
    ``after`` optionally sees ``(tracer, args, result)`` once per call of
    a plain function.
    """

    layer: str
    owner: str
    attribute: str
    after: object = None


def resolve(target: Target):
    """(holder object, original attribute value) for a target."""
    module_name, __, class_name = target.owner.partition(":")
    module = importlib.import_module(module_name)
    holder = getattr(module, class_name) if class_name else module
    return holder, holder.__dict__[target.attribute]


class Tracer:
    """Records spans for the wrapped entry points while installed."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[SpanBuffer] = []
        self._lock = threading.Lock()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: Counters fed by ``after`` hooks, per thread then merged.
        self._counters: list[dict[str, float]] = []

    # -- per-thread state -------------------------------------------------------

    def buffer(self) -> SpanBuffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = SpanBuffer(threading.current_thread().name)
            counters: dict[str, float] = defaultdict(float)
            with self._lock:
                self._buffers.append(buffer)
                self._counters.append(counters)
            self._local.buffer = buffer
            self._local.counters = counters
            return buffer

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a thread-local counter (merged by :meth:`counters`)."""
        self.buffer()
        self._local.counters[name] += amount

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        for counters in self._counters:
            for name, value in counters.items():
                merged[name] += value
        return merged

    def name_id(self, name: str) -> int:
        with self._lock:
            found = self._name_ids.get(name)
            if found is None:
                found = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return found

    # -- explicit spans -----------------------------------------------------------

    def begin_op(self, op_id: int, name: str = "op") -> int:
        """Open a root span for one operation of the workload."""
        buffer = self.buffer()
        buffer.current_op = op_id
        return buffer.open(self.name_id(name))

    def end_op(self, index: int) -> None:
        buffer = self._local.buffer
        buffer.close(index)
        buffer.current_op = -1

    # -- installation ---------------------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            holder, original = resolve(target)
            wrapper = self.wrap(target.layer, original, target.after)
            if isinstance(holder, type):
                self.patch(holder, target.attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").partition(".")[0] != "repro":
                    continue
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self.patch(module, attribute, wrapper)

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._patches):
            setattr(holder, attribute, original)
        self._patches.clear()

    def patch(self, holder, attribute: str, wrapper) -> None:
        """Replace ``holder.attribute`` until :meth:`uninstall`."""
        self._patches.append((holder, attribute, holder.__dict__[attribute]))
        setattr(holder, attribute, wrapper)

    def wrap(self, layer: str, original, after=None):
        """A traced stand-in for ``original``, recording spans as ``layer``."""
        name_id = self.name_id(layer)
        tracer = self
        local = self._local

        if inspect.iscoroutinefunction(original):

            async def traced_async(*args, **kwargs):
                return await _Stepped(tracer, name_id, original(*args, **kwargs))

            return _named(traced_async, original)

        if inspect.isgeneratorfunction(original):

            def traced_gen(*args, **kwargs):
                return _stepped_generator(tracer, name_id, original(*args, **kwargs))

            return _named(traced_gen, original)

        def traced(*args, **kwargs):
            try:
                buffer = local.buffer
            except AttributeError:
                buffer = tracer.buffer()
            index = buffer.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                buffer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return _named(traced, original)

    # -- reading ----------------------------------------------------------------------

    def buffers(self) -> list[SpanBuffer]:
        with self._lock:
            return list(self._buffers)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` over every thread."""
        totals: dict[str, dict[str, float]] = {}
        for buffer in self.buffers():
            for index, self_s in enumerate(self_times(buffer)):
                name = self.names[buffer.name[index]]
                entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
                entry["self_s"] += self_s
                entry["calls"] += buffer.first[index]
        return totals

    def dump(self, path) -> int:
        """Write every span to ``path``; returns the span count.

        The file is one JSON header line (span names, and per thread its
        span count and the column order) followed by each thread's raw
        columns in native byte order, as :meth:`array.tofile` writes them.
        """
        buffers = self.buffers()
        header = {
            "names": self.names,
            "columns": [[column, getattr(buffers[0], column).typecode]
                        for column in _COLUMNS] if buffers else [],
            "threads": [[b.thread_name, len(b)] for b in buffers],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for buffer in buffers:
                for column in _COLUMNS:
                    getattr(buffer, column).tofile(handle)
        return sum(len(b) for b in buffers)


_COLUMNS = ("name", "start", "end", "parent", "op", "first")


def _named(wrapper, original):
    wrapper.__name__ = getattr(original, "__name__", "traced")
    wrapper.__qualname__ = getattr(original, "__qualname__", wrapper.__name__)
    wrapper.__wrapped__ = original
    return wrapper


class _Stepped:
    """An awaitable that times each resumption of the wrapped coroutine."""

    __slots__ = ("_tracer", "_name_id", "_coro")

    def __init__(self, tracer: Tracer, name_id: int, coro):
        self._tracer = tracer
        self._name_id = name_id
        self._coro = coro

    def __await__(self):
        inner = self._coro.__await__()
        value, error, first = None, None, 1
        while True:
            buffer = self._tracer.buffer()
            index = buffer.open(self._name_id, first)
            first = 0
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except StopIteration as stop:
                buffer.close(index)
                return stop.value
            except BaseException:
                buffer.close(index)
                raise
            buffer.close(index)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # re-raised inside the coroutine
                value, error = None, exc


def _stepped_generator(tracer: Tracer, name_id: int, generator):
    """Re-yield ``generator``'s items, timing each step as a segment."""
    first = 1
    while True:
        buffer = tracer.buffer()
        index = buffer.open(name_id, first)
        first = 0
        try:
            item = next(generator)
        except StopIteration:
            buffer.close(index)
            return
        except BaseException:
            buffer.close(index)
            raise
        buffer.close(index)
        yield item
