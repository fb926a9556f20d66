"""Timing of the calls a workload makes into the program.

Times are CPU seconds of the calling thread (``time.thread_time``).  On the
2-vCPU virtual machine this benchmark was tuned on, the hypervisor takes the
CPU away now and then; thread CPU time leaves that out, which narrowed the
spread of a repeated 0.28 s loop from 9.5% to 5.5%.  Likewise a thread that
waits for the GIL is not charged for the wait.

``Clock`` only sums the CPU time spent under each name; untraced runs use it
for the end-to-end rates.  ``Tracer`` also keeps every span (name, wall start
and end, CPU seconds, parent, thread) in memory for the per-layer figures;
the run writes them out when it ends.  Both are used as
``with clock.span(name): ...``.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Clock:
    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        start = time.thread_time()
        try:
            yield
        finally:
            self.totals[name] += time.thread_time() - start


class Tracer(Clock):
    """Records spans; a span's parent is the innermost open span of its thread."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "parent": stack[-1] if stack else None,
                  "thread": threading.get_ident(), "start": time.perf_counter()}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        cpu_start = time.thread_time()
        try:
            yield
        finally:
            record["cpu"] = time.thread_time() - cpu_start
            record["end"] = time.perf_counter()
            stack.pop()
            self.totals[name] += record["cpu"]


def outermost_total(spans: list[dict], prefix: str) -> float:
    """Summed CPU seconds of spans named ``prefix*`` that have no ancestor of
    the same prefix, so nested calls are not counted twice."""
    by_id = {s["id"]: s for s in spans}

    def nested(span):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"].startswith(prefix):
                return True
            parent = by_id[parent]["parent"]
        return False

    return sum(s["cpu"] for s in spans
               if s["name"].startswith(prefix) and "cpu" in s and not nested(s))
