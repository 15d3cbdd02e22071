"""Workload ``service_mix``: the served system under a closed-loop mix.

Starts ``python -m repro serve --tcp 127.0.0.1:0`` with default flags
(port 0 lets the server pick a free port, which it prints).  Two client
threads, each on its own ``ServiceClient`` connection, run a closed loop
over one seeded request list:

* 40% ``check`` of a freshly generated 1500-line package (cache miss);
* 30% ``check`` of one of 4 hot packages (a hit after its first request);
* 15% ``dataflow`` on a fresh 1500-line package;
* 15% ``flow`` on a fresh wide flow program.

Every check and dataflow program is a seeded variant of one fixed
1500-line package (``_base``), and the order of request kinds is the
same for every seed; ``--seed`` picks the variants and flow programs.

This is the only workload that exercises protocol, transport, server
loop, engine caches, dataflow and flow.  Per-layer numbers join the
client's per-request records with the server's ``stats`` counters,
taken once after set-up and once after the loop.

End-to-end timings are scaled to the reference speed by
``hostspeed.HostSpeed``, sampling each CPU in turn while the server and
the clients run, and the CPU of the oracle while it runs.
"""

from __future__ import annotations

import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import PROPERTY, Outcome, median, mops_verdict, peak_rss_mb, tail, variant
from hostspeed import HostSpeed
from spans import span

from repro.cfg import build_cfg
from repro.dataflow.classic import FunctionalBitVectorAnalysis
from repro.dataflow.problems import call_tracking_problem
from repro.modelcheck import full_privilege_property
from repro.service import ServiceClient, ServiceError
from repro.synth import PackageSpec, generate_package

CLIENTS = 2
HOT_PACKAGES = 4
VARIANT_STATEMENTS = 4
#: Server starts timed before the request loop and after it; ``setup_s``
#: is the median of all of them, so its samples span the run.
SETUP_BEFORE, SETUP_AFTER = 3, 2
PACKAGE_LINES = 1500
TRACK = ["seteuid", "setuid", "setreuid", "system", "execl"]
FLOW_FUNCTIONS = 32
#: The checkout the benchmark runs in; ``repro serve`` runs from its sources.
ROOT = Path(__file__).resolve().parent.parent


def wide_flow_program(rng: random.Random, n_functions: int = FLOW_FUNCTIONS) -> str:
    """A chain of single-pair functions ending in ``Seed`` flowing to ``V``.

    The shape of ``benchmarks/bench_core.wide_flow_program``, with seeded
    constants so each request is a distinct program; it lives here so the
    benchmark's inputs do not move when that script changes.
    """
    lines = [
        f"f{i}(y : int) : b{i} = (y@In{i}, {rng.randrange(1000)})@P{i};"
        for i in range(n_functions)
    ]
    body = f"{rng.randrange(1000)}@Seed"
    for i in range(n_functions):
        body = f"(f{i}^s{i}({body})).1"
    lines.append(f"main() : int = {body}@V;")
    return "\n".join(lines)


def _base() -> str:
    """The package every check and dataflow program is a variant of.

    One fixed shape (seed 100, as the first ``saturation_*`` row of
    ``BENCH_solver.json``): the cost of a generated 1500-line package
    varies several-fold with its seed, and a mix of shapes would put the
    latency percentiles on the boundary between them.  ``--seed``
    varies the programs through ``common.variant``.
    """
    return generate_package(PackageSpec("service-1500", PACKAGE_LINES, 20, seed=100))


#: One shuffled block of the request list: 8 fresh checks, 6 hot checks,
#: 3 dataflow and 3 flow requests.  A run serves whole blocks, so the mix
#: is at its nominal shares in every run; the share of slow requests
#: moves the latency percentiles more than anything the program does.
BLOCK = ["fresh"] * 8 + ["hot"] * 6 + ["dataflow"] * 3 + ["flow"] * 3


class _Requests:
    """The seeded request list, drawn in order by the client threads."""

    def __init__(self, seed: int, base: str, hot: list[str], deadline: float):
        self._rng = random.Random(seed)
        # The order of request kinds is the same for every seed: which
        # requests overlap on the server moves their latencies as much
        # as the seed's programs do.
        self._order = random.Random(0)
        self._lock = threading.Lock()
        self._base = base
        self._hot = hot
        self._deadline = deadline
        self._block: list[str] = []
        self._index = 0

    def next(self) -> tuple[int, str, str, dict] | None:
        """The next request, or None once time is up and the block is done."""
        with self._lock:
            if not self._block:
                if time.perf_counter() >= self._deadline:
                    return None
                self._block = self._order.sample(BLOCK, len(BLOCK))
            index = self._index
            self._index += 1
            kind = self._block.pop()
            which = self._order.randrange(len(self._hot))
            draw = self._rng.randrange(2**31)
        if kind == "hot":
            params = {"program": self._hot[which], "property": PROPERTY}
            return index, "check", f"hot{which}", params
        if kind == "flow":
            program = wide_flow_program(random.Random(draw))
            return index, "flow", "fresh", {"program": program, "query": ["Seed", "V"]}
        source = variant(self._base, random.Random(draw), VARIANT_STATEMENTS)
        if kind == "fresh":
            return index, "check", "fresh", {"program": source, "property": PROPERTY}
        return index, "dataflow", "fresh", {"program": source, "track": TRACK}


class _Server:
    """One ``repro serve`` process, its log file and its bound port."""

    def __init__(self, root: Path, log_path: Path):
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "w")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0"],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        deadline = time.monotonic() + 60.0
        while True:
            found = re.search(r"listening on ([\d.]+):(\d+)", log_path.read_text())
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start; see {log_path}")
            time.sleep(0.002)

    def client(self) -> ServiceClient:
        # No transport retries: a dropped connection counts as a failure.
        return ServiceClient(self.host, self.port, timeout=120.0, retries=0)

    def stop(self) -> None:
        # The server keeps no durable state in its default configuration,
        # and a graceful exit frees its whole heap object by object, which
        # takes seconds after a run and measures nothing.
        self.proc.kill()
        self.proc.wait()
        self._log.close()


def _start(root: Path, log_path: Path) -> tuple[_Server, float, float]:
    """Start a server, ping it, warm each op once.

    Returns the server and the times the start began and ended.

    The warm-up inputs are small and the same for every seed: they load
    the code and the compiled property machine, and leave the request
    list's caches cold.
    """
    rng = random.Random(0)
    warm = generate_package(PackageSpec("warm-up", 300, 6, seed=0))
    warm_flow = wide_flow_program(rng, 8)
    start = time.perf_counter()
    server = _Server(root, log_path)
    try:
        with server.client() as client:
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    client.ping()
                    break
                except ServiceError:
                    if server.proc.poll() is not None or time.monotonic() > deadline:
                        raise
                    time.sleep(0.002)
            client.check(warm, PROPERTY)
            client.dataflow(warm, TRACK)
            client.flow(warm_flow, query=["Seed", "V"])
    except BaseException:
        server.stop()
        raise
    return server, start, time.perf_counter()


def _delta(after: dict, before: dict, section: str, name: str):
    new = after.get(section, {}).get(name, 0)
    old = before.get(section, {}).get(name, 0)
    if isinstance(new, dict):
        return (
            new.get("count", 0) - (old or {}).get("count", 0),
            new.get("seconds", 0.0) - (old or {}).get("seconds", 0.0),
        )
    return new - old


def _dataflow_expected(source: str) -> list:
    cfg = build_cfg(source)
    problem = call_tracking_problem(cfg, TRACK)
    analysis = FunctionalBitVectorAnalysis(cfg, problem)
    facts = list(problem.facts)
    return [
        [node.describe(), node.line, sorted(facts[i] for i in analysis.may_hold(node))]
        for node in cfg.all_nodes()
        if node.call is not None
    ]


def _serve(
    seed: int, seconds: float, tracer, base: str, hot: list[str], speed: HostSpeed
):
    """Set-ups, and the request loop on the last server started before it.

    Returns the scaled set-up seconds, the request records, the loop's
    start and end, the server's ``stats`` before and after the loop and
    its peak memory.
    """
    out = ROOT / ".bench_out"
    setups = []
    for attempt in range(SETUP_BEFORE):
        server, start, end = _start(ROOT, out / f"serve-{seed}-{attempt}.log")
        setups.append(speed.normalize(start, end))
        if attempt < SETUP_BEFORE - 1:
            server.stop()

    try:
        with server.client() as client:
            before = client.stats()
        records: list[tuple] = []  # (index, op, kind, start, end, params, result)
        records_lock = threading.Lock()
        start = time.perf_counter()
        requests = _Requests(seed, base, hot, start + seconds)
        errors: list[BaseException] = []

        def loop() -> None:
            try:
                with server.client() as client:
                    while (request := requests.next()) is not None:
                        index, op, kind, params = request
                        rid = f"req{index}"
                        t0 = time.perf_counter()
                        try:
                            with span(tracer, f"client.{op}", rid):
                                result = client.request(op, **params)
                        except ServiceError:
                            result = None
                        t1 = time.perf_counter()
                        with records_lock:
                            records.append((index, op, kind, t0, t1, params, result))
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        end = max(r[4] for r in records)
        with server.client() as client:
            after = client.stats()
        rss = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    for attempt in range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER):
        server, began, ended = _start(ROOT, out / f"serve-{seed}-{attempt}.log")
        setups.append(speed.normalize(began, ended))
        server.stop()
    return setups, records, start, end, before, after, rss


def measure(seed: int, seconds: float, tracer=None) -> Outcome:
    base = _base()
    hot = [
        variant(base, random.Random(seed * 7919 + k), VARIANT_STATEMENTS)
        for k in range(HOT_PACKAGES)
    ]
    # The server's threads and the clients run on every CPU, so the
    # probe takes each CPU in turn while they run; the oracle runs on
    # this thread, and is sampled where it runs.
    with HostSpeed(cpus=sorted(os.sched_getaffinity(0))) as speed:
        speed.wait_for_samples()
        setups, records, start, end, before, after, rss = _serve(
            seed, seconds, tracer, base, hot, speed
        )
        records.sort()
        wall_ms = [(r[4] - r[3]) * 1000.0 for r in records]
        all_ms = [speed.normalize(r[3], r[4]) * 1000.0 for r in records]
        loop_s = speed.normalize(start, end)
    with HostSpeed() as oracle_speed:
        oracle_speed.wait_for_samples()
        return _check(
            records, all_ms, wall_ms, setups, loop_s, before, after, rss, oracle_speed
        )


def _check(records, all_ms, wall_ms, setups, loop_s, before, after, rss, speed):
    """Run the oracles over the records and gather the metrics.

    ``all_ms`` and ``wall_ms`` are each record's scaled and wall-clock
    latency.  End-to-end timings are scaled; the per-layer ones stay
    wall-clock, as the server's own timers are.
    """
    prop = full_privilege_property()
    baseline: dict[str, tuple] = {}
    failed = 0
    seen_hot: set[str] = set()
    kinds = []
    for index, op, kind, t0, t1, params, result in records:
        if op == "check":
            first = kind == "fresh" or kind not in seen_hot
            seen_hot.add(kind)
            kinds.append("miss" if first else "hit")
        else:
            kinds.append(op)
        if result is None:
            failed += 1
        elif op == "check":
            program = params["program"]
            if program not in baseline:
                baseline[program] = mops_verdict(program, prop, speed)
            has_violation, lines, _ = baseline[program]
            got = {v["line"] for v in result["violations"]}
            failed += (result["has_violation"], got) != (has_violation, lines)
        elif op == "dataflow":
            expected = _dataflow_expected(params["program"])
            got = [[n["where"], n["line"], n["may_hold"]] for n in result["nodes"]]
            failed += got != expected
        else:
            failed += result.get("flows") is not True

    def of(kind: str, values: list[float]) -> list[float]:
        return [v for k, v in zip(kinds, values) if k == kind]

    attempted = len(records)
    tail_ms, tail_label = tail(all_ms)
    handled, handler_s = _delta(after, before, "timers", "request")
    solves, solve_s = _delta(after, before, "timers", "solve")
    hits = _delta(after, before, "counters", "cache.solve.hits")
    misses = _delta(after, before, "counters", "cache.solve.misses")
    handler_ms = 1000.0 * handler_s / max(1, handled)
    counts = {op: sum(1 for r in records if r[1] == op) for op in ("check", "dataflow", "flow")}
    return Outcome(
        e2e={
            "setup_s": median(setups),
            "verdict_s": statistics.fmean(of("miss", all_ms)) / 1000.0,
            "poststar_s": median([b[2] for b in baseline.values()]),
            "latency_p50_ms": median(all_ms),
            "latency_tail_ms": tail_ms,
            "throughput_rps": (attempted - failed) / loop_s,
            "peak_rss_mb": rss,
            "ok_rate": 1.0 - failed / attempted,
        },
        attempted=attempted,
        failed=failed,
        layers={
            "service.handler_ms": handler_ms,
            "service.solve_ms": 1000.0 * solve_s / max(1, solves),
            "service.wire_ms": statistics.fmean(wall_ms) - handler_ms,
            "service.cache_hit_ratio": hits / max(1, hits + misses),
            "service.check_miss_p50_ms": median(of("miss", wall_ms)),
            "service.check_hit_p50_ms": median(of("hit", wall_ms)),
            "service.requests_failed": _delta(
                after, before, "counters", "requests.failed"
            ),
            "dataflow.p50_ms": median(of("dataflow", wall_ms)),
            "flow.p50_ms": median(of("flow", wall_ms)),
        },
        unit_s=[ms / 1000.0 for ms in wall_ms],
        notes=[
            f"requests: {attempted} ({', '.join(f'{op} {n}' for op, n in counts.items())}), "
            f"check misses {kinds.count('miss')}, hits {kinds.count('hit')}",
            f"latency: per request, send to reply, {CLIENTS} closed-loop clients; "
            f"tail = {tail_label}",
            "verdict_s: mean cache-miss check seconds; poststar_s: median MOPS "
            "verdict seconds on the checked sources (the oracle run); "
            "peak_rss_mb: server VmHWM",
            f"wall-clock: latency p50 {median(wall_ms):.1f} ms, mean cache-miss check "
            f"{statistics.fmean(of('miss', wall_ms)) / 1000.0:.4f} s; scaled by a mean "
            f"host-speed factor of {sum(all_ms) / sum(wall_ms):.3f}",
        ],
    )
