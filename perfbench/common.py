"""Statistics, memory probes and the MOPS oracle shared by the workloads."""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field

from repro.cfg import build_cfg
from repro.mops import MopsChecker

PROPERTY = "full-privilege"


@dataclass
class Outcome:
    """What one measured phase of a workload produced.

    ``e2e`` holds every end-to-end metric by name.  ``layers`` holds the
    per-layer metrics; it is filled only when the phase was traced.
    ``unit_s`` lists the wall-clock end-to-end seconds of each unit of
    work (a pass, an edit or a request), which the traced report sets
    against the per-layer self times (spans are wall-clock too).
    """

    e2e: dict[str, float]
    attempted: int
    failed: int
    layers: dict[str, float] = field(default_factory=dict)
    unit_s: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def variant(source: str, rng: random.Random, count: int) -> str:
    """``source`` with ``count`` seeded plain statements inserted.

    Each statement goes after a randomly chosen statement line of a
    function body, at its indentation.  A plain assignment adds one
    property-irrelevant CFG node, so the variant is a distinct program
    (a cache miss for the service) that costs what the original costs.
    The benchmark varies its inputs with the seed this way, rather than
    drawing a fresh package shape per seed: between two seeds the cost
    of a generated package of one size differs by up to 2x, which would
    swamp the bounds the benchmark has to hold.
    """
    lines = source.split("\n")
    statements = [
        i
        for i, line in enumerate(lines)
        if line.startswith("  ") and line.endswith(";") and "return" not in line
    ]
    for at in sorted(rng.sample(statements, count), reverse=True):
        indent = lines[at][: len(lines[at]) - len(lines[at].lstrip())]
        lines.insert(at + 1, f"{indent}x = x + {rng.randrange(1000)};")
    return "\n".join(lines)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns the value and a label naming the percentile and sample
    count.  With fewer than eleven samples no percentile qualifies, and
    the maximum is reported instead (and labelled so).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), f"max (n={n}, fewer than 11)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} (n={n}, 10 beyond)"


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def mops_verdict(source: str, prop, speed) -> tuple[bool, set[int], float]:
    """Source text to MOPS post* verdict: (has_violation, lines, seconds).

    The seconds are scaled to the reference speed by ``speed``, a
    running ``hostspeed.HostSpeed``.  A full collection first, outside
    the timed call, starts it from the heap a fresh process would have.
    """
    gc.collect()
    start = time.perf_counter()
    result = MopsChecker(build_cfg(source), prop).check()
    seconds = speed.normalize(start, time.perf_counter())
    return result.has_violation, result.violation_lines(), seconds
