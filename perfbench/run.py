"""Run one benchmark workload, or repeat sets of runs.

One run, from the root of a checkout::

    python3 perfbench/run.py --workload flights --seed 1 --seconds 30 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (see
``BENCHMARK.json``); with ``--trace 1`` they are the per-layer ones.

Repeat mode runs N sets and prints, per workload and metric, the
median and quartiles over the sets, plus the operations attempted and
failed::

    python3 perfbench/run.py --workload all --repeat 10 --seed 1

``--workload all`` without ``--repeat`` runs each workload once.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flights", "reach", "serve")
OUT_DIR = ".bench_out"


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _ms(seconds: float, count: float) -> float:
    return 1000.0 * seconds / count if count else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(phase, setup_s: float) -> dict:
    from perfbench.workloads import MIN_QUERIES

    queries = [r.latency * 1000 for r in phase.records if r.op.kind != "load"]
    loads = [r.latency * 1000 for r in phase.records if r.op.kind == "load"]
    if len(queries) < MIN_QUERIES or not loads:
        _fail(f"too few operations: {len(queries)} queries, {len(loads)} loads")
    return {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (statistics.median(queries), "ms"),
        "query_p90_ms": (statistics.quantiles(queries, n=10)[8], "ms"),
        "ops_per_s": (len(phase.records) / phase.seconds, "1/s"),
        "load_p50_ms": (statistics.median(loads), "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }


def per_layer(phase, untraced_ops_per_s: float, regret_x: float) -> dict:
    """Per-layer metrics of a traced phase.

    Per-operation figures cover the measured phase; per-compile,
    checkpoint and recovery figures cover everything since the trace
    was installed, because serve compiles and recovers during set-up.
    """
    whole = phase.trace_end
    d = phase.trace
    own, counters, calls, totals = (
        d["self_s"], d["counters"], d["calls"], d["total_s"]
    )
    ops = len(phase.records)
    latency = sum(r.latency for r in phase.records)
    compiles = whole["calls"].get("compile", 0) + whole["calls"].get(
        "service.compile", 0
    )
    requests = counters.get("service.requests", 0)
    # Time a serve request spent queued before a worker took it.
    queued = latency - totals.get("serve.worker", 0.0) if requests else 0.0
    hits = counters.get("constraint.cache_hits", 0)
    checkpoints = calls.get("checkpoint", 0)
    checkpoint_s = totals.get("checkpoint", 0.0)
    if not checkpoints:
        checkpoints = whole["calls"].get("checkpoint", 0)
        checkpoint_s = whole["total_s"].get("checkpoint", 0.0)
    return {
        "lang.parse_ms": (_ms(own.get("lang", 0), ops), "ms/op"),
        "core.rewrite_ms": (
            _ms(whole["self_s"].get("core", 0), compiles), "ms/compile"
        ),
        "core.rewrite_iterations": (_ratio(
            whole["counters"].get("rewrite.pred.iterations", 0)
            + whole["counters"].get("rewrite.qrp.iterations", 0), compiles
        ), "count/compile"),
        "magic.rewrite_ms": (
            _ms(whole["self_s"].get("magic", 0), compiles), "ms/compile"
        ),
        "planner.plan_ms": (_ms(own.get("planner", 0), ops), "ms/op"),
        "planner.regret_x": (regret_x, "ratio"),
        "engine.fixpoint_ms": (_ms(own.get("engine.fixpoint", 0), ops), "ms/op"),
        "engine.resume_ms": (_ms(own.get("engine.resume", 0), ops), "ms/op"),
        "engine.probe_ms": (_ms(own.get("engine.probe", 0), ops), "ms/op"),
        "engine.range_admits": (
            _ratio(calls.get("range_admits", 0), ops), "count/op"
        ),
        "engine.insert_ms": (_ms(own.get("engine.insert", 0), ops), "ms/op"),
        "engine.subsumes_calls": (
            _ratio(calls.get("subsumes", 0), ops), "count/op"
        ),
        "engine.join_ms": (_ms(own.get("engine.join", 0), ops), "ms/op"),
        "engine.derivations": (
            _ratio(counters.get("engine.derivations", 0), ops), "count/op"
        ),
        "engine.facts_per_answer": (_ratio(
            counters.get("engine.facts.new", 0), phase.answers_returned
        ), "ratio"),
        "constraints.solver_ms": (
            _ms(own.get("constraints", 0), ops), "ms/op"
        ),
        "constraints.cache_hit_ratio": (_ratio(
            hits, hits + counters.get("constraint.cache_misses", 0)
        ), "ratio"),
        "service.session_ms": (
            _ms(own.get("service.session", 0), requests), "ms/request"
        ),
        "service.compile_ms": (_ms(
            whole["total_s"].get("service.compile", 0),
            whole["calls"].get("service.compile", 0),
        ), "ms/compile"),
        "service.warm_hit_ratio": (
            _ratio(counters.get("service.warm_hits", 0), requests), "ratio"
        ),
        "serve.wait_ms": (
            _ms(own.get("serve.wait", 0) + queued, requests), "ms/request"
        ),
        "serve.wal_append_ms": (
            _ms(totals.get("wal", 0), calls.get("wal", 0)), "ms/load"
        ),
        "serve.checkpoint_ms": (_ms(checkpoint_s, checkpoints), "ms/checkpoint"),
        "serve.recover_ms": (_ms(
            whole["total_s"].get("recover", 0), whole["calls"].get("recover", 0)
        ), "ms"),
        "trace.overhead_x": (
            _ratio(untraced_ops_per_s, ops / phase.seconds), "ratio"
        ),
        # The share of operation time the layers above account for.
        "trace.layer_coverage": (
            _ratio(sum(own.values()) + queued, latency), "ratio"
        ),
    }


def _trace_path(workload: str, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")


def run_cli(name: str, seed: int, seconds: float, traced: bool):
    from perfbench import workloads

    workload = workloads.cli_workload(name, seed)
    if not traced:
        setup_s = workloads.cli_setup_seconds(workload.pool[0].program)
        phase = workloads.run_cli_phase(workload, seed, seconds)
        return [phase], end_to_end(phase, setup_s)
    from repro import obs
    from perfbench.trace import LayerTrace

    plain = workloads.run_cli_phase(workload, seed, seconds / 2)
    trace = LayerTrace()
    trace.install()
    try:
        with obs.recording(trace):
            phase = workloads.run_cli_phase(workload, seed, seconds / 2, trace)
    finally:
        trace.uninstall()
    trace.write_spans(_trace_path(name, seed))
    regret_x = workloads.regret(
        workload.pool[0].program, workloads.cli_regret_queries(workload, seed)
    )
    ops_per_s = len(plain.records) / plain.seconds
    return [plain, phase], per_layer(phase, ops_per_s, regret_x)


def run_serve(seed: int, seconds: float, traced: bool):
    from perfbench import workloads

    workdir = os.path.join(OUT_DIR, f"serve-{os.getpid()}")
    harness = workloads.ServeHarness(seed, workdir)
    try:
        if not traced:
            setup_s = harness.setup()
            phase = harness.run(seconds)
            return [phase], end_to_end(phase, setup_s)
        harness.setup()
        plain = harness.run(seconds / 2)
    finally:
        harness.close()
    from repro import obs
    from perfbench.trace import LayerTrace

    harness = workloads.ServeHarness(seed, workdir)
    trace = LayerTrace()
    trace.install()
    try:
        with obs.recording(trace):
            harness.setup()
            phase = harness.run(seconds / 2, trace)
    finally:
        trace.uninstall()
        harness.close()
    trace.write_spans(_trace_path("serve", seed))
    regret_x = workloads.regret(*harness.regret_inputs())
    ops_per_s = len(plain.records) / plain.seconds
    return [plain, phase], per_layer(phase, ops_per_s, regret_x)


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if workload == "serve":
        phases, metrics = run_serve(seed, seconds, traced)
    else:
        phases, metrics = run_cli(workload, seed, seconds, traced)
    failures = [f for phase in phases for f in phase.failures]
    for failure in failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    attempted = sum(len(phase.records) for phase in phases)
    failed = sum(
        1 for phase in phases for record in phase.records if record.error
    )
    wrong = sum(phase.wrong_answers for phase in phases)
    return {
        # A wrong answer makes the run incorrect, and so does a failure
        # outside any one operation (a client that raised, a restart that lost
        # acked facts).
        "correct": wrong == 0 and len(failures) == failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


# -- repeat mode -----------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat(names, first_seed: int, sets: int, seconds: int, traced: bool):
    """Run ``sets`` sets of runs (one per workload and seed); summarize."""
    summary = {}
    for name in names:
        runs = []
        for seed in range(first_seed, first_seed + sets):
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1" if traced else "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                _fail(f"{name} seed {seed} exited {done.returncode}")
            result = json.loads(lines[-1])
            runs.append(result)
            print(
                f"{name} seed {seed}: {time.perf_counter() - started:.1f}s "
                f"correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']}",
                file=sys.stderr,
            )
        metrics = {}
        for metric, entry in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = _quartiles(values)
            metrics[metric] = {
                "unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "values": values,
            }
        summary[name] = {
            "seeds": [first_seed, first_seed + sets - 1],
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        }
        print(f"\n{name}: attempted {summary[name]['attempted']}, "
              f"failed {summary[name]['failed']}, "
              f"correct {summary[name]['correct']}")
        print(f"  {'metric':28s} {'unit':14s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s}")
        for metric, entry in metrics.items():
            print(f"  {metric:28s} {entry['unit']:14s} {entry['median']:12.4f} "
                  f"{entry['q1']:12.4f} {entry['q3']:12.4f} "
                  f"{entry['spread']:7.1%}")
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many sets and summarize them")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        _fail("run from the root of a checkout: src/repro is missing")
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    if args.workload == "all" or args.repeat:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        repeat(names, args.seed, max(args.repeat, 1), args.seconds,
               bool(args.trace))
        return 0
    sys.path[:0] = [os.path.abspath("src"), ROOT]
    if hasattr(os, "sched_setaffinity"):
        # One CPU per run: serve's client and worker threads hand each
        # request to each other, and on a virtual machine a hand-off to
        # a second CPU waits until the host runs that CPU again, which
        # made serve latencies follow the host's load.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
