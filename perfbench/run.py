"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced and prints every end-to-end
metric named in ``BENCHMARK.json``.  ``--trace 1`` measures it twice,
untraced and then with spans around each call into a layer, writes the
spans to ``.bench_out/trace-<workload>-<seed>.json``, prints the
per-layer self times next to the end-to-end time, and reports every
per-layer metric.  A layer the workload does not enter reports 0.

End-to-end timings are wall-clock times scaled to a reference host
speed, measured while they run (``hostspeed.py``); per-layer timings
are wall-clock.

``trace.overhead_pct`` is the traced phase's ``verdict_s`` minus the
untraced phase's, as a share of the untraced one.  The two phases are
separate measurements, so the figure holds their run-to-run drift as
well as the cost of the spans; on ``edit_loop`` it also holds the
engine's own bookkeeping, which the traced replay does not run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from the
root of a checkout; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1", "edit_loop", "service_mix")


def _fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds normally, so the server it started stops.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program sources at {ROOT / 'src' / 'repro'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    workload = importlib.import_module(args.workload)
    from spans import Tracer

    untraced = workload.measure(args.seed, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}")
    for note in untraced.notes:
        print(f"  {note}")
    print(f"  fail_rate: {untraced.failed}/{untraced.attempted}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"  {name:18} {untraced.e2e[name]:14.6f} {metric['unit']}")

    attempted, failed = untraced.attempted, untraced.failed
    if args.trace:
        tracer = Tracer()
        traced = workload.measure(args.seed, args.seconds, tracer)
        attempted += traced.attempted
        failed += traced.failed
        path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path)
        units = len(traced.unit_s)
        print(f"traced run: {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
        for note in traced.notes:
            print(f"  {note}")
        print(
            f"  end-to-end per unit: untraced mean "
            f"{sum(untraced.unit_s) / len(untraced.unit_s):.4f} s, traced mean "
            f"{sum(traced.unit_s) / units:.4f} s over {units} units"
        )
        for line in tracer.report(units):
            print(line)
        before, after = untraced.e2e["verdict_s"], traced.e2e["verdict_s"]
        overhead = 100.0 * (after - before) / before
        print(
            f"  traced minus untraced verdict_s: {after - before:+.4f} s "
            f"({overhead:+.2f}%, traced {after:.4f} s vs untraced {before:.4f} s); "
            "separate phases, so this includes run-to-run drift"
        )
        layers = {**untraced.layers, **traced.layers, "trace.overhead_pct": overhead}
        metrics = spec["per_layer"]
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in metrics}
        for metric in metrics:
            print(f"  {metric['name']:28} {values[metric['name']]:14.6f} {metric['unit']}")
    else:
        metrics = spec["end_to_end"]
        values = {m["name"]: float(untraced.e2e[m["name"]]) for m in metrics}

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics
                },
            }
        )
    )


if __name__ == "__main__":
    main()
