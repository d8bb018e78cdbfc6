"""In-memory span recording around the program's public layer boundaries.

The benchmark measures every layer from outside: :class:`Tracer` swaps a
timing wrapper in for a public function or method, keeps one record per
call in memory (name, start, end, parent, thread, request id) and, when
the run ends, reports per-name busy and self time and writes the spans
as Chrome trace-event JSON (open it at https://ui.perfetto.dev).

A span's *self* time is its duration minus the time covered by its
direct children on the same thread, so on every thread the self times of
all spans under a root add up to that root's duration exactly.

Untraced runs never construct a tracer; the only patch they make is the
per-round timestamp of :class:`perfbench.common.AggregationClock`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


def span_of(tracer: Optional["Tracer"], name: str):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@dataclass
class Span:
    span_id: int
    parent_id: int  # 0 for a thread root
    name: str
    thread: str
    start: float
    end: float
    self_s: float
    request_id: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("span_id", "start", "child_s")

    def __init__(self, span_id: int, start: float) -> None:
        self.span_id = span_id
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Span store plus the patching that feeds it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: work counters; both threads of the serving workload add to them
        self.counts: Counter = Counter()
        self._counts_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- span recording -------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Optional[str]) -> None:
        """Tag every span this thread opens from now on with ``request_id``."""
        self._local.request_id = request_id

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        frame = _Frame(next(self._ids), self.clock())
        stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            duration = end - frame.start
            if stack:
                stack[-1].child_s += duration
            self.spans.append(
                Span(
                    frame.span_id,
                    stack[-1].span_id if stack else 0,
                    name,
                    threading.current_thread().name,
                    frame.start,
                    end,
                    duration - frame.child_s,
                    getattr(self._local, "request_id", None),
                )
            )

    # -- patching ---------------------------------------------------------
    def add(self, name: str, amount) -> None:
        """Add ``amount`` to ``counts[name]``; safe from any thread."""
        with self._counts_lock:
            self.counts[name] += amount

    def _timed(self, fn: Callable, name: str, size: Optional[Callable] = None) -> Callable:
        span, add = self.span, self.add

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if size is not None:
                add(name, size(*args, **kwargs))
            with span(name):
                return fn(*args, **kwargs)

        return timed

    def wrap_method(
        self, cls: type, attr: str, name: str, size: Optional[Callable] = None
    ) -> None:
        """Time every call of ``cls.attr`` (defined on ``cls`` itself).

        ``size(*args, **kwargs)``, when given, returns the amount of work
        in one call (rows, items) and is summed into ``counts[name]``.
        """
        self.patch(cls, attr, self._timed(cls.__dict__[attr], name, size))

    def count_method(self, cls: type, attr: str, name: str) -> None:
        """Count calls of ``cls.attr`` without opening a span."""
        original = cls.__dict__[attr]
        add = self.add

        @functools.wraps(original)
        def counted(*args, **kwargs):
            add(name, 1)
            return original(*args, **kwargs)

        self.patch(cls, attr, counted)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_function(self, fn: Callable, name: str) -> None:
        """Time ``fn`` wherever a loaded ``repro`` module binds it by name."""
        timed = self._timed(fn, name)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, timed)
                    bound += 1
        if not bound:
            raise LookupError(f"{fn.__qualname__} is bound in no loaded repro module")

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting --------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = table[span.name]
            row["calls"] += 1
            row["busy_s"] += span.duration
            row["self_s"] += span.self_s
        return dict(table)

    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent_id == 0]

    def accounting(self) -> Dict[str, Dict[str, float]]:
        """Per thread root: wall time, self-time sum and attributed share.

        ``self_sum_s`` is the sum of the self times of every span on the
        root's thread inside the root; it equals ``wall_s`` up to float
        rounding.  ``attributed`` is the share of the wall time spent in
        named child spans (layers and idle) rather than in the root's
        own glue.
        """
        out = {}
        for root in self.roots():
            inside = [
                span
                for span in self.spans
                if span.thread == root.thread
                and root.start <= span.start
                and span.end <= root.end
            ]
            out[root.name] = {
                "wall_s": root.duration,
                "self_sum_s": sum(span.self_s for span in inside),
                "attributed": 1.0 - root.self_s / root.duration
                if root.duration > 0
                else 1.0,
            }
        return out

    def chrome_events(self) -> List[dict]:
        """Complete ("X") events in microseconds plus thread-name records."""
        if not self.spans:
            return []
        origin = min(span.start for span in self.spans)
        tids: Dict[str, int] = {}
        events: List[dict] = []
        for span in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            tid = tids.setdefault(span.thread, len(tids) + 1)
            args = {"id": span.span_id, "parent": span.parent_id}
            if span.request_id is not None:
                args["request"] = span.request_id
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        for thread, tid in tids.items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": thread}}
            )
        return events

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms"}, handle)
