"""In-memory spans for the traced benchmark run.

A span records one call into a layer: its name, start, end, the span
that was open around it on the same thread, and a request id shared by
every span of one package, edit or request.  Spans stay in memory until
the run ends and are then written out as one JSON file.

A span's *self time* is its duration minus the time its child spans
cover.  Children nest inside their parent on one thread, so the covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Iterator


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (name, start, end, parent index or -1, request id)
        self.spans: list[tuple[str, float, float, int, str]] = []

    @contextmanager
    def span(self, name: str, request: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, request))
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans[index] = (name, start, end, parent, request)

    def totals(self) -> dict[tuple[str, str], list]:
        """(root span name, span name) -> [count, self seconds, total seconds].

        The root is the outermost span around a span on its thread, so
        the same layer called from two paths (say the annotated and the
        baseline checker) is kept apart.
        """
        covered = [0.0] * len(self.spans)
        roots = [0] * len(self.spans)
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            # A parent is appended before its children.
            roots[index] = index if parent < 0 else roots[parent]
            if parent >= 0:
                covered[parent] += end - start
        sums: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = sums[(self.spans[roots[index]][0], name)]
            entry[0] += 1
            entry[1] += (end - start) - covered[index]
            entry[2] += end - start
        return dict(sums)

    def layer_seconds(self, name: str, units: int, inclusive: bool = False) -> float:
        """Seconds per unit of work spent in spans called ``name``, any root."""
        column = 2 if inclusive else 1
        total = sum(
            entry[column]
            for (_, span_name), entry in self.totals().items()
            if span_name == name
        )
        return total / max(1, units)

    def report(self, units: int) -> list[str]:
        """Per-root self-time split, per unit of work, as printable lines."""
        by_root: dict[str, list] = defaultdict(list)
        for (root, name), (count, own, total) in sorted(self.totals().items()):
            by_root[root].append((name, count, own, total))
        lines = []
        for root, rows in by_root.items():
            root_total = next((t for n, _, _, t in rows if n == root), 0.0)
            lines.append(
                f"  {root}: {root_total / max(1, units):.4f} s per unit, "
                "self times per unit:"
            )
            for name, count, own, _ in rows:
                lines.append(
                    f"    {name:24} {own / max(1, units):10.4f} s  ({count} spans)"
                )
            own_sum = sum(own for _, _, own, _ in rows)
            lines.append(
                f"    {'(sum of self times)':24} {own_sum / max(1, units):10.4f} s"
            )
        return lines

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans), default=0.0)
        rows = [
            {
                "id": index,
                "name": name,
                "start_s": round(start - origin, 7),
                "end_s": round(end - origin, 7),
                "parent": parent if parent >= 0 else None,
                "request": request,
            }
            for index, (name, start, end, parent, request) in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n")


def span(tracer: Tracer | None, name: str, request: str):
    """``tracer.span(...)``, or a no-op when the run is untraced."""
    return tracer.span(name, request) if tracer is not None else nullcontext()
