"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's public entry points
by replacing each entry point, *where its callers look it up*, with a
thin timing wrapper (a class attribute for methods, a module attribute
for functions imported by name). Nothing inside the program changes.

Each thread records into its own column buffers (name id, start, end,
parent index), so the gateway's drain thread and the benchmark's client
thread never contend. A span's *self time* is its duration minus the
durations of its direct children; summed over a span name it is that
layer's cost.
"""

from __future__ import annotations

import json
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple


class _ThreadSpans:
    __slots__ = ("thread", "names", "starts", "ends", "parents", "stack")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: List[int] = []


class SpanRecorder:
    """Records spans from patched entry points until :meth:`restore`."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_ThreadSpans] = []
        self._buffers_lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        self.counters: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadSpans(threading.current_thread().name)
            self._local.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self._names)
            self._names.append(name)
        return found

    def _open(self, name_id: int) -> int:
        buf = self._buffer()
        index = len(buf.starts)
        buf.names.append(name_id)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.ends.append(0.0)
        buf.stack.append(index)
        buf.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        buf = self._local.buf
        buf.ends[index] = end
        buf.stack.pop()

    def _traced(self, original: Callable, name: str,
                result_counter: str = "") -> Callable:
        nid = self._name_id(name)
        open_span = self._open
        close_span = self._close
        counters = self.counters

        if result_counter:
            def traced(*args, **kwargs):
                index = open_span(nid)
                try:
                    result = original(*args, **kwargs)
                finally:
                    close_span(index)
                counters[result_counter] = (
                    counters.get(result_counter, 0) + len(result))
                return result
        else:
            def traced(*args, **kwargs):
                index = open_span(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(index)
        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: object, attribute: str, name: str,
              result_counter: str = "") -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``result_counter`` adds ``len(result)`` of every call to
        :attr:`counters` under that key (rows read, for example).
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute,
                self._traced(original, name, result_counter))

    def restore(self) -> None:
        """Put every patched entry point back, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name, over all threads."""
        totals = [0.0] * len(self._names)
        for buf in self._buffers:
            count = len(buf.starts)
            child = [0.0] * count
            starts, ends, parents = buf.starts, buf.ends, buf.parents
            for index in range(count):
                parent = parents[index]
                if parent >= 0:
                    child[parent] += ends[index] - starts[index]
            names = buf.names
            for index in range(count):
                totals[names[index]] += (ends[index] - starts[index]
                                         - child[index])
        return {name: totals[nid] for name, nid in self._ids.items()}

    def durations(self, name: str) -> List[float]:
        """Wall durations of every span called ``name``."""
        nid = self._ids.get(name)
        out: List[float] = []
        if nid is None:
            return out
        for buf in self._buffers:
            for index, span_name in enumerate(buf.names):
                if span_name == nid:
                    out.append(buf.ends[index] - buf.starts[index])
        return out

    def dump(self, path: str) -> None:
        """Write every recorded span as columns, one block per thread.

        Times are seconds on the ``perf_counter`` clock; ``parent`` is an
        index into the same thread's columns, -1 for a root span.
        """
        document = {
            "names": list(self._names),
            "threads": [
                {"thread": buf.thread,
                 "name": buf.names.tolist(),
                 "start": buf.starts.tolist(),
                 "end": buf.ends.tolist(),
                 "parent": buf.parents.tolist()}
                for buf in self._buffers
            ],
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
