"""Service benchmark: cold solve vs in-memory cache vs snapshot warm-start.

The analysis engine's reason to exist is that a long-lived process
amortizes work a one-shot CLI pays every time: compiling the property
machine's monoid, parsing the program, and solving the constraint
system.  This experiment quantifies the three service tiers on a
synthetic package:

* **cold** — fresh engine, first query: parse + encode + solve + query;
* **snapshot-warm** — fresh engine (a restarted server) with a
  snapshot directory: the solved form is reloaded via
  :mod:`repro.core.persist` instead of re-solved;
* **memory-warm** — same engine, repeated query: LRU hit, query only.

End-to-end latency includes parsing the program and running the
violation queries, which every tier pays; the work warm-starting
actually skips is building the solved system (encode + closure vs a
direct reload of the closed facts), so that phase is also measured in
isolation.  Memory-warm is orders of magnitude faster than cold;
snapshot-warm sits in between.
"""

from __future__ import annotations

from benchmarks._util import report, timed
from repro.cfg import build_cfg
from repro.core.persist import load_solver, read_snapshot
from repro.modelcheck import PROPERTY_FACTORIES, AnnotatedChecker
from repro.service import AnalysisEngine
from repro.synth.programs import PackageSpec, generate_package

SPEC = PackageSpec("service-bench", target_lines=1_200, n_functions=24, seed=7)
PROPERTY = "simple-privilege"
REPEATS = 5


def best_of(fn, repeats=REPEATS):
    times = []
    result = None
    for _ in range(repeats):
        result, elapsed = timed(fn)
        times.append(elapsed)
    return result, min(times)


def violation_lines(result):
    return {violation["line"] for violation in result["violations"]}


def test_cold_vs_warm_latency(tmp_path):
    program = generate_package(SPEC)

    # cold: a brand-new engine per run, no snapshots anywhere in sight
    cold_result, cold_time = best_of(
        lambda: AnalysisEngine().check(program, PROPERTY)
    )

    # seed the snapshot directory once (a previous server's lifetime)
    AnalysisEngine(snapshot_dir=tmp_path).check(program, PROPERTY)

    # snapshot-warm: fresh engine per run, solved form reloaded from disk
    def snapshot_warm():
        fresh = AnalysisEngine(snapshot_dir=tmp_path)
        result = fresh.check(program, PROPERTY)
        assert fresh.metrics.get("cache.snapshot.warm") == 1
        return result

    snap_result, snap_time = best_of(snapshot_warm)

    # memory-warm: repeated query against one live engine
    engine = AnalysisEngine()
    engine.check(program, PROPERTY)  # populate
    warm_result, warm_time = best_of(lambda: engine.check(program, PROPERTY))

    assert cold_result["has_violation"] == warm_result["has_violation"]
    assert cold_result["has_violation"] == snap_result["has_violation"]
    assert violation_lines(cold_result) == violation_lines(snap_result)
    assert violation_lines(cold_result) == violation_lines(warm_result)

    # the system-build phase is what a snapshot skips: encode + closure
    # from scratch vs a direct reload of the closed facts
    cfg = build_cfg(program)
    prop = PROPERTY_FACTORIES[PROPERTY]()
    _, solve_time = best_of(lambda: AnnotatedChecker(cfg, prop))
    (snapshot_file,) = list(tmp_path.iterdir())
    # the file carries a checksum header that only read_snapshot strips
    snapshot_text = read_snapshot(snapshot_file)
    _, load_time = best_of(lambda: load_solver(snapshot_text))

    # the acceptance criterion: warm starts measurably beat cold solving
    assert warm_time < cold_time
    assert snap_time < cold_time
    assert load_time < solve_time

    lines = [
        f"package: {SPEC.target_lines} target lines, {SPEC.n_functions} functions",
        f"property: {PROPERTY}   (best of {REPEATS})",
        "",
        "end-to-end request latency (parse + build + query):",
        f"{'tier':>14}  {'seconds':>10}  {'speedup':>8}",
        f"{'cold':>14}  {cold_time:>10.4f}  {'1.0x':>8}",
        f"{'snapshot-warm':>14}  {snap_time:>10.4f}  {cold_time / snap_time:>7.1f}x",
        f"{'memory-warm':>14}  {warm_time:>10.4f}  {cold_time / warm_time:>7.1f}x",
        "",
        "system-build phase only (what a snapshot skips):",
        f"{'encode + solve':>14}  {solve_time:>10.4f}  {'1.0x':>8}",
        f"{'load snapshot':>14}  {load_time:>10.4f}  {solve_time / load_time:>7.1f}x",
    ]
    report("service_warm", lines)


def test_what_if_is_cheaper_than_resolve():
    """Speculative mark/rollback queries vs re-solving with the delta."""
    program = """
pair(y : int) : b = (1@A, y@Y)@P;
main() : int = (pair^i(2@B)).2@V;
"""
    engine = AnalysisEngine()
    engine.flow(program, query=["B", "V"])  # solve the base once

    def what_if():
        return engine.flow(program, query=["A", "V"], assume=[["A", "B"]])

    result, whatif_time = best_of(what_if)
    assert result["flows"] is True

    def resolve():
        fresh = AnalysisEngine()
        return fresh.flow(program, query=["A", "V"], assume=[["A", "B"]])

    _, resolve_time = best_of(resolve)

    lines = [
        f"{'mode':>22}  {'seconds':>10}",
        f"{'what-if (cached)':>22}  {whatif_time:>10.5f}",
        f"{'re-solve from scratch':>22}  {resolve_time:>10.5f}",
    ]
    report("service_whatif", lines)
    assert whatif_time < resolve_time
