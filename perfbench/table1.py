"""Workload ``table1``: the paper's Table 1, source text to verdict.

One pass checks the four ``TABLE1_PACKAGES`` against ``full-privilege``,
Sendmail and Apache at 1/10 scale.  The packages keep their Table 1
seeds; ``--seed`` adds a few plain statements to each
(``common.variant``).  Each package goes from source text to verdict
twice: through ``build_cfg`` -> ``AnnotatedChecker`` (library defaults)
-> ``check()``, and through ``build_cfg`` -> ``MopsChecker`` ->
``check()``, the post* baseline.  ``MopsChecker`` is called directly,
because ``repro check --engine mops`` also runs the annotated solve.

Passes repeat while another fits in ``--seconds`` (at least one runs).
Before each timed path the benchmark frees the previous path's objects
and runs a full collection, outside the timed region, so each path
starts from the heap a fresh ``repro check`` process would have.

Set-up (input generation and property construction) takes about 0.1 s.
It is timed ``SETUP_REPEATS`` times before the first pass and once more
before each timed path, outside the timed region, and ``setup_s`` is
the median of all of them: its samples span the run as the verdict
timings do.

Every timing is scaled to the reference speed by ``hostspeed.HostSpeed``,
sampling the CPU the work runs on; the notes print the wall-clock pass
times next to the scaled ones.
"""

from __future__ import annotations

import gc
import random
import time

from common import Outcome, median, peak_rss_mb, tail, variant
from hostspeed import HostSpeed
from spans import span

from repro.cfg import build_program_cfg, parse_program
from repro.modelcheck import AnnotatedChecker, full_privilege_property
from repro.mops import MopsChecker
from repro.synth import TABLE1_PACKAGES, PackageSpec, generate_package

SETUP_REPEATS = 5
#: Seeded statements added to each package (see ``common.variant``).
VARIANT_STATEMENTS = 4


def _specs() -> list[PackageSpec]:
    specs = []
    for spec in TABLE1_PACKAGES:
        factor = 10 if spec.target_lines > 100_000 else 1
        specs.append(
            PackageSpec(
                spec.name,
                spec.target_lines // factor,
                max(8, spec.n_functions // factor),
                seed=spec.seed,
                violation=spec.violation,
            )
        )
    return specs


def _setup(seed: int):
    packages = []
    for spec in _specs():
        rng = random.Random(seed * 1000 + spec.seed)
        packages.append((spec, variant(generate_package(spec), rng, VARIANT_STATEMENTS)))
    return packages, full_privilege_property()


def _timed_setup(seed: int, setups: list[float], speed: HostSpeed):
    """``_setup(seed)``, its scaled seconds appended to ``setups``."""
    gc.collect()
    start = time.perf_counter()
    packages, prop = _setup(seed)
    setups.append(speed.normalize(start, time.perf_counter()))
    return packages, prop


def _cfg(source: str, tracer, rid: str):
    """``build_cfg(source)``, its two steps under their own spans."""
    with span(tracer, "cfg.parse", rid):
        program = parse_program(source)
    with span(tracer, "cfg.build", rid):
        return build_program_cfg(program)


def measure(seed: int, seconds: float, tracer=None) -> Outcome:
    with HostSpeed() as speed:
        speed.wait_for_samples()
        return _measure(seed, seconds, tracer, speed)


def _measure(seed: int, seconds: float, tracer, speed: HostSpeed) -> Outcome:
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        packages, prop = _timed_setup(seed, setups, speed)

    counts = dict.fromkeys(
        (
            "lines", "nodes", "constraints", "violations", "facts",
            "compositions", "vars_merged", "transitions",
        ),
        0,
    )
    verdict_passes: list[float] = []
    baseline_passes: list[float] = []
    wall_passes: list[tuple[float, float]] = []  # (annotated, post*) wall seconds
    package_ms: list[float] = []
    answers = []  # (spec, annotated node ids, has_violation, MOPS node ids)
    start = time.perf_counter()
    # Start another pass only if it should end within the time allowed:
    # a pass takes longer than a run at the paper's sizes, and running
    # over by a whole pass would double the run.
    while not verdict_passes or (time.perf_counter() - start) * (
        len(verdict_passes) + 1
    ) / len(verdict_passes) <= seconds:
        verdict_total = baseline_total = verdict_wall = baseline_wall = 0.0
        for spec, source in packages:
            rid = f"pass{len(verdict_passes)}.{spec.name}"
            _timed_setup(seed, setups, speed)
            gc.collect()
            t0 = time.perf_counter()
            with span(tracer, "verdict", rid):
                cfg = _cfg(source, tracer, rid)
                with span(tracer, "modelcheck.solve", rid):
                    checker = AnnotatedChecker(cfg, prop)
                with span(tracer, "modelcheck.query", rid):
                    result = checker.check()
            t1 = time.perf_counter()
            verdict_wall += t1 - t0
            elapsed = speed.normalize(t0, t1)
            verdict_total += elapsed
            package_ms.append(elapsed * 1000.0)
            annotated = {v.node.id for v in result.violations}
            if tracer is not None:
                with span(tracer, "core.fact_count", rid):
                    counts["facts"] += checker.solver.fact_count()
                stats = checker.solver.stats
                counts["compositions"] += stats.compositions
                counts["vars_merged"] += stats.vars_merged
                counts["constraints"] += result.constraints
                counts["violations"] += len(result.violations)
                counts["lines"] += 2 * source.count("\n")
                counts["nodes"] += 2 * cfg.node_count()
            has_violation = result.has_violation
            del checker, cfg, result

            _timed_setup(seed, setups, speed)
            gc.collect()
            t0 = time.perf_counter()
            with span(tracer, "poststar", rid):
                cfg = _cfg(source, tracer, rid)
                with span(tracer, "mops.pda", rid):
                    mops = MopsChecker(cfg, prop)
                with span(tracer, "mops.poststar", rid):
                    baseline = mops.check()
            t1 = time.perf_counter()
            baseline_wall += t1 - t0
            baseline_total += speed.normalize(t0, t1)
            counts["transitions"] += baseline.transitions
            answers.append(
                (spec, annotated, has_violation, {n.id for n in baseline.error_nodes})
            )
            del mops, cfg, baseline
        verdict_passes.append(verdict_total)
        baseline_passes.append(baseline_total)
        wall_passes.append((verdict_wall, baseline_wall))
    rss = peak_rss_mb()

    # Oracle, outside the timed region: the annotated violation set must
    # equal post*'s, and the verdict must match the seeded violation.
    failed = sum(
        1
        for spec, annotated, has_violation, baseline in answers
        if annotated != baseline or has_violation != spec.violation
    )
    attempted = len(answers)
    tail_ms, tail_label = tail(package_ms)
    outcome = Outcome(
        e2e={
            "setup_s": median(setups),
            "verdict_s": median(verdict_passes),
            "poststar_s": median(baseline_passes),
            "latency_p50_ms": median(package_ms),
            "latency_tail_ms": tail_ms,
            "throughput_rps": 2 * attempted
            / (sum(verdict_passes) + sum(baseline_passes)),
            "peak_rss_mb": rss,
            "ok_rate": 1.0 - failed / attempted,
        },
        attempted=attempted,
        failed=failed,
        unit_s=[verdict for verdict, _ in wall_passes],
        notes=[
            f"passes: {len(verdict_passes)}, packages: "
            + ", ".join(f"{s.name} {src.count(chr(10))} lines" for s, src in packages),
            f"latency: per-package annotated source-to-verdict; tail = {tail_label}",
            "throughput: package verdicts (annotated + post*) per second of checking",
            "wall-clock seconds per pass (annotated, post*): "
            + ", ".join(f"({a:.3f}, {b:.3f})" for a, b in wall_passes)
            + "; scaled by a mean host-speed factor of "
            + f"{sum(verdict_passes) / sum(a for a, _ in wall_passes):.3f}",
        ],
    )
    if tracer is not None:
        passes = len(verdict_passes)
        parse_s = tracer.layer_seconds("cfg.parse", passes)
        build_s = tracer.layer_seconds("cfg.build", passes)
        per_pass = {name: value / passes for name, value in counts.items()}
        outcome.layers = {
            "cfg.parse_s": parse_s,
            "cfg.build_s": build_s,
            "cfg.lines_per_s": per_pass["lines"] / (parse_s + build_s),
            "cfg.nodes": per_pass["nodes"],
            "modelcheck.solve_s": tracer.layer_seconds("modelcheck.solve", passes),
            "modelcheck.constraints": per_pass["constraints"],
            "modelcheck.query_s": tracer.layer_seconds("modelcheck.query", passes),
            "modelcheck.violations": per_pass["violations"],
            "core.fact_count_s": tracer.layer_seconds("core.fact_count", passes),
            "core.facts": per_pass["facts"],
            "core.compositions": per_pass["compositions"],
            "core.compositions_per_fact": counts["compositions"] / counts["facts"],
            "core.vars_merged": per_pass["vars_merged"],
            "mops.pda_s": tracer.layer_seconds("mops.pda", passes),
            "mops.poststar_s": tracer.layer_seconds("mops.poststar", passes),
            "mops.transitions": per_pass["transitions"],
        }
    return outcome
