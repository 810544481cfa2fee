"""In-memory span recorder used by the traced run.

Spans are recorded by the benchmark's own code around calls into the
library's public functions (no instrumentation inside ``src/``).  Each
span holds name, start, end, busy time (``thread_time_ns`` of the
recording thread), parent, op id and rank.  Busy time matters on the
discrete-event engine: a parked rank's wall span includes other ranks'
compute, its thread time does not.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator

from .metrics import self_time


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    busy_ns: int
    parent: int | None
    op: int
    rank: int

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans from any thread; parents nest per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: int, rank: int = -1) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        c0 = time.thread_time_ns()
        try:
            yield
        finally:
            c1 = time.thread_time_ns()
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, c1 - c0, parent, op, rank))

    def add(self, name: str, start_ns: int, end_ns: int, op: int) -> None:
        """Record a root span timed elsewhere (a request's due-to-done)."""
        self.spans.append(Span(next(self._ids), name, start_ns, end_ns, 0, None, op, -1))

    def self_times_ns(self) -> dict[int, float]:
        """Self time of every span: its duration minus its children's cover."""
        kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append((s.start_ns, s.end_ns))
        return {s.sid: self_time(s.start_ns, s.end_ns, kids[s.sid]) for s in self.spans}

    def per_op(self, name: str) -> dict[int, list[Span]]:
        """Spans called *name*, grouped by op id."""
        out: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.name == name:
                out[s.op].append(s)
        return out

    def dump(self, path: str) -> None:
        """Write every span, with its self time, as JSON lines."""
        selfs = self.self_times_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**asdict(s), "self_ns": selfs[s.sid]}) + "\n")
