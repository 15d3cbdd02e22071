"""Workload ``edit_loop``: an editor that saves after every edit.

One closed-loop client walks a stream of single-line edits over a
3000-line, 40-function package and sends each saved source to
``AnalysisEngine.patch(..., "full-privilege")``, in process and with no
journal, passing the last accepted version as ``base``.  The edits
write to the solved form in place (DRed repair), where ``table1``
builds a fresh one each time.

The traced phase replays the same stream through the calls
``AnalysisEngine.patch`` makes, with the same arguments: the
``build_cfg`` validation parse, ``StableCheck.apply_source`` and
``StableCheck.check()``.  Inside the query, the lazy CFG rebuild is
timed on its own (``cfg.reparse``) by reading ``StableCheck.cfg`` first,
which is the first thing ``check()`` does.

Every timing is scaled to the reference speed by ``hostspeed.HostSpeed``,
sampling the CPU the work runs on.  The run ends when the
wall-clock patch calls add up to ``--seconds``.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Iterator

from common import PROPERTY, Outcome, median, mops_verdict, peak_rss_mb, tail
from hostspeed import HostSpeed

from repro.cfg import build_program_cfg, parse_program
from repro.core.annotations import CompiledMonoidAlgebra
from repro.incremental import StableCheck
from repro.modelcheck import full_privilege_property
from repro.service import AnalysisEngine
from repro.service.engine import EngineError
from repro.synth import EditablePackage, PackageSpec
# The kinds ``EditablePackage.apply_edit`` draws from, in its order.
from repro.synth.editstream import _EDIT_KINDS as EDIT_KINDS

#: Set-ups timed in a run: one before the edit loop, the rest between
#: edits at even steps of the loop's patch time.  ``setup_s`` is their
#: median; spread over the run, they cannot all land in one slow
#: stretch of the host.
SETUP_SAMPLES = 5
#: ``SolverStats`` counters the traced phase reports per edit.
SOLVER_COUNTERS = (
    "compositions", "vars_merged", "cone_size", "facts_retracted", "facts_rederived",
)


def _stream(seed: int) -> Iterator[tuple[int, str]]:
    """(step, source) pairs: the base package, then one edit per step.

    The package is fixed (seed 4, as the ``edit_*`` rows of
    ``BENCH_solver.json``) and ``--seed`` draws the edits, made by the
    generator behind ``repro.synth.edit_stream``.  Each step undoes the
    previous edit before making its own, so every saved program is the
    base plus one single-line edit.  A cumulative stream drifts: an
    inserted privilege event can change the cost of every later query,
    and runs of different seeds then measure different programs.

    The edits visit the (function, kind of edit) pairs in one fixed
    order, the same for every seed; the seed draws each edit's line and
    text.  What a patch costs depends on where the edit lands: with the
    seed also drawing functions and kinds, one seed of five read 11%
    above the others' mean patch time.
    """
    package = EditablePackage(PackageSpec("editable-3k", 3000, 40, seed=4))
    slots = [(name, kind) for name in package.names for kind in EDIT_KINDS]
    order = random.Random(0).sample(slots, len(slots))
    rng = random.Random(seed)
    peek = random.Random()
    yield 0, package.source()
    step = 0
    while True:
        step += 1
        # ``apply_edit`` first draws its function, then its kind, with
        # ``rng.choice``: advance ``rng`` until those draws are the next
        # pair in ``order``.
        while True:
            peek.setstate(rng.getstate())
            drawn = (peek.choice(package.names), peek.choice(EDIT_KINDS))
            if drawn == order[(step - 1) % len(order)]:
                break
            rng.random()
        saved = {name: list(package.body(name)) for name in package.names}
        edit = package.apply_edit(step, rng)
        yield step, edit.source
        package.body(edit.function)[:] = saved[edit.function]


def _lines(violations) -> set[int]:
    return {v["line"] if isinstance(v, dict) else v.node.line for v in violations}


def _timed_setup(seed: int, setups: list[float], speed: HostSpeed):
    """Stream generation and the first (cold-start) patch, timed and scaled.

    Returns the stream, the engine and the first reply's version token.
    """
    gc.collect()
    start = time.perf_counter()
    stream = _stream(seed)
    _, base = next(stream)
    engine = AnalysisEngine()
    reply = engine.patch(base, PROPERTY)
    setups.append(speed.normalize(start, time.perf_counter()))
    return stream, engine, reply["version"]


def measure(seed: int, seconds: float, tracer=None) -> Outcome:
    with HostSpeed() as speed:
        speed.wait_for_samples()
        if tracer is not None:
            return _replay(seed, seconds, tracer, speed)
        return _measure(seed, seconds, speed)


def _measure(seed: int, seconds: float, speed: HostSpeed) -> Outcome:
    setups: list[float] = []
    stream, engine, version = _timed_setup(seed, setups, speed)

    # The MOPS oracle checks each reply right after it arrives, outside
    # the timed patch call, so its own timings (poststar_s) are sampled
    # across the same stretch of the run as the edits.  The run ends when
    # the timed patch calls add up to ``seconds``.  A refused patch
    # counts as a failure, and the next edit patches the last version
    # the engine accepted.  A full collection before each patch, outside
    # the timed call, keeps the oracle's garbage out of the patch's
    # collections: left in, it made one patch in two run an extra
    # 0.1 s full collection.
    prop = full_privilege_property()
    latencies: list[float] = []
    wall: list[float] = []
    baseline_s: list[float] = []
    failed = patched = 0
    while sum(wall) < seconds:
        if sum(wall) >= seconds * len(setups) / SETUP_SAMPLES:
            _timed_setup(seed, setups, speed)
        _, source = next(stream)
        gc.collect()
        t0 = time.perf_counter()
        try:
            reply = engine.patch(source, PROPERTY, base=version)
            version = reply["version"]
        except EngineError:
            reply = None
        t1 = time.perf_counter()
        wall.append(t1 - t0)
        latencies.append(speed.normalize(t0, t1))
        has_violation, lines, mops_s = mops_verdict(source, prop, speed)
        baseline_s.append(mops_s)
        failed += (
            reply is None
            or reply["has_violation"] != has_violation
            or _lines(reply["violations"]) != lines
        )
        patched += bool(reply and reply["patched"])
    rss = peak_rss_mb()

    attempted = len(latencies)
    tail_ms, tail_label = tail([s * 1000.0 for s in latencies])
    return Outcome(
        e2e={
            "setup_s": median(setups),
            "verdict_s": statistics.fmean(latencies),
            "poststar_s": statistics.fmean(baseline_s),
            "latency_p50_ms": median(latencies) * 1000.0,
            "latency_tail_ms": tail_ms,
            "throughput_rps": attempted / sum(latencies),
            "peak_rss_mb": rss,
            "ok_rate": 1.0 - failed / attempted,
        },
        attempted=attempted,
        failed=failed,
        layers={"incremental.patched_ratio": patched / attempted},
        unit_s=wall,
        notes=[
            f"edits: {attempted}, patched in place: {patched}",
            f"latency: per edit, patch call to reply; tail = {tail_label}",
            "verdict_s: mean seconds per edit; poststar_s: mean MOPS verdict "
            "seconds on the same sources (the oracle, run after each reply)",
            f"wall-clock mean seconds per edit {statistics.fmean(wall):.4f}; "
            f"scaled by a mean host-speed factor of {sum(latencies) / sum(wall):.3f}",
        ],
    )


def _replay(seed: int, seconds: float, tracer, speed: HostSpeed) -> Outcome:
    """The traced phase: the same stream through ``patch``'s own calls."""
    prop = full_privilege_property()
    stream = _stream(seed)
    _, base = next(stream)
    check = StableCheck(base, prop, algebra=CompiledMonoidAlgebra(prop.machine))
    check.check()

    counts = dict.fromkeys(("lines", "nodes", "facts", *SOLVER_COUNTERS), 0)
    latencies: list[float] = []
    wall: list[float] = []
    failed = 0
    stats = check.solver.stats
    while sum(wall) < seconds:
        step, source = next(stream)
        rid = f"edit{step}"
        before = {name: getattr(stats, name) for name in SOLVER_COUNTERS}
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("edit", rid):
            with tracer.span("cfg.parse", rid):
                program = parse_program(source)
            with tracer.span("cfg.build", rid):
                cfg = build_program_cfg(program)
            with tracer.span("incremental.apply", rid):
                check.apply_source(source)
            with tracer.span("incremental.query", rid):
                with tracer.span("cfg.reparse", rid):
                    check.cfg
                result = check.check()
        t1 = time.perf_counter()
        wall.append(t1 - t0)
        latencies.append(speed.normalize(t0, t1))
        with tracer.span("core.fact_count", rid):
            counts["facts"] += check.solver.fact_count()
        for name in SOLVER_COUNTERS:
            counts[name] += getattr(stats, name) - before[name]
        counts["lines"] += source.count("\n")
        counts["nodes"] += cfg.node_count()
        answer = (result.has_violation, _lines(result.violations))
        failed += answer != mops_verdict(source, prop, speed)[:2]
    edits = len(latencies)

    parse_s = tracer.layer_seconds("cfg.parse", edits)
    build_s = tracer.layer_seconds("cfg.build", edits)
    per_edit = {name: value / edits for name, value in counts.items()}
    return Outcome(
        e2e={"verdict_s": statistics.fmean(latencies)},
        attempted=edits,
        failed=failed,
        layers={
            "cfg.parse_s": parse_s,
            "cfg.build_s": build_s,
            "cfg.lines_per_s": per_edit["lines"] / (parse_s + build_s),
            "cfg.nodes": per_edit["nodes"],
            "core.fact_count_s": tracer.layer_seconds("core.fact_count", edits),
            "core.facts": per_edit["facts"],
            "core.compositions": per_edit["compositions"],
            "core.compositions_per_fact": counts["compositions"] / counts["facts"],
            "core.vars_merged": per_edit["vars_merged"],
            "incremental.apply_s": tracer.layer_seconds("incremental.apply", edits),
            "incremental.query_s": tracer.layer_seconds(
                "incremental.query", edits, inclusive=True
            ),
            "incremental.cone_size": per_edit["cone_size"],
            "incremental.facts_retracted": per_edit["facts_retracted"],
            "incremental.facts_rederived": per_edit["facts_rederived"],
        },
        unit_s=wall,
        notes=[f"traced edits: {edits}; incremental.query_s includes cfg.reparse"],
    )
