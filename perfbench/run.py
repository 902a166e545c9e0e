#!/usr/bin/env python3
"""The repository benchmark: four workloads through the public API.

Usage, from the repository root::

    python3 perfbench/run.py --workload ecf-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with span-recording wrappers around each layer and prints the
per-layer metrics instead.  Every run checks its outputs, prints a machine
record, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A failed output check prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed the benchmark is tuned and reported on.
DEFAULT_SEED = 1
#: A seed kept out of tuning: a performance claim must also hold on it.
HELD_OUT_SEED = 7919


def machine_record(seed: int) -> dict:
    """Where and on what inputs the numbers were measured."""
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_ticks() -> tuple:
    """``(steal, total)`` clock ticks of all CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    return (fields[7] if len(fields) > 7 else 0, sum(fields[:8]))


def end_to_end(run) -> dict:
    from repro.analysis.stats import percentile

    return {
        "setup_s": (statistics.median(run.setup_seconds), "s"),
        "throughput_qps": (run.served / run.measured_seconds, "1/s"),
        "latency_p50_s": (percentile(run.latencies, 0.50), "s"),
        "latency_p90_s": (percentile(run.latencies, 0.90), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


#: Span names and the per-layer metric each one's self time reports.
LAYER_TIMES = {
    "core.filters.build": "core.filters.build_s",
    "core.filters.patch": "core.filters.patch_s",
    "core.filters.compile_hosting": "core.filters.compile_hosting_s",
    "core.plan.lookup": "core.plan.lookup_s",
    "core.ordering.order": "core.ordering.order_s",
    "core.search.execute": "core.search.execute_s",
    "server.protocol.encode": "server.protocol.encode_s",
    "server.protocol.decode": "server.protocol.decode_s",
    "server.app.dispatch": "server.app.dispatch_s",
    "service.submit": "service.submit_s",
    "service.reservation.reserve": "service.reservation.reserve_s",
    "service.reservation.release": "service.reservation.release_s",
    "graphs.churn_tick": "graphs.churn_tick_s",
}
LAYER_COUNTS = ("core.filters.entries", "core.filters.constraint_evaluations",
                "core.search.nodes_expanded", "core.search.mappings",
                "server.protocol.bytes_out")


def per_layer(run, tracer, span_cost: float) -> dict:
    """Self time and counts per request, plus plan, admission and slip
    figures, the unattributed remainder and the tracing overhead."""
    from repro.analysis.stats import percentile

    requests = max(run.attempted, 1)
    self_times = tracer.self_times(run.window)
    unknown = sorted(set(self_times) - set(LAYER_TIMES))
    if unknown:
        raise RuntimeError(f"spans without a metric: {unknown}")
    metrics = {}
    for span, metric in LAYER_TIMES.items():
        metrics[metric] = (self_times.get(span, 0.0) / requests, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0.0) / requests, "count/req")
    plan = run.plan_stats
    lookups = plan["hits"] + plan["misses"]
    metrics["core.plan.hit_ratio"] = (plan["hits"] / lookups if lookups else 0.0,
                                      "ratio")
    for name in ("invalidations", "patched", "recompiled"):
        metrics[f"core.plan.{name}"] = (plan[name] / requests, "count/req")
    metrics["server.admission.wait_p50_s"] = (
        percentile(run.queue_waits, 0.50) or 0.0, "s")
    metrics["server.admission.wait_p90_s"] = (
        percentile(run.queue_waits, 0.90) or 0.0, "s")
    if run.slips:                       # open loop only: a closed loop has no schedule
        metrics["harness.slip_p90_s"] = (percentile(run.slips, 0.90), "s")
    attributed = sum(self_times.values()) + sum(run.queue_waits)
    metrics["unattributed_s"] = ((run.busy_seconds - attributed) / requests, "s")
    spans = tracer.span_count(run.window)
    metrics["trace.overhead_frac"] = (span_cost * spans / run.busy_seconds,
                                      "frac")
    return metrics


def run_once(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from speed import SpeedClock, WallClock
    from tracing import Tracer, install_layers, wrapper_cost
    import workloads

    tracer = Tracer()
    span_cost = 0.0
    clock = SpeedClock()
    if args.trace:
        span_cost = wrapper_cost()
        install_layers(tracer)
        clock = WallClock()
    scale = workloads.TINY if args.tiny else workloads.FULL
    print(json.dumps({"machine": machine_record(args.seed),
                      "workload": args.workload, "trace": args.trace,
                      "tiny": args.tiny}), flush=True)
    started = time.perf_counter()
    steal_before, total_before = cpu_ticks()
    clock.start()
    try:
        run = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                 scale, tracer, clock)
    finally:
        clock.stop()
    steal_after, total_after = cpu_ticks()
    for line in run.lines:
        print(line)
    # CPU time the hypervisor gave to other guests while this run was
    # waiting for it: on a shared virtual machine, the first thing to look
    # at when a run reads slower than its neighbours.
    steal = (steal_after - steal_before) / max(total_after - total_before, 1)
    print(f"{args.workload} host cpu steal {100 * steal:.1f}% during the run")
    print(f"{args.workload} {clock.summary()}")
    print(f"{args.workload} wall clock: {run.served / run.wall_seconds:.3f} "
          f"req/s over {run.wall_seconds:.2f} timed seconds")
    metrics = (per_layer(run, tracer, span_cost) if args.trace
               else end_to_end(run))
    tracer.uninstall()
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    failures = run.checker.failures
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    missing = [name for name, (value, _) in metrics.items() if value is None]
    for name in missing:
        print(f"CHECK FAILED: {name} has no samples", file=sys.stderr)
    correct = not failures and not missing and run.served > 0
    print(f"{args.workload}: {run.attempted} requests, "
          f"{run.checker.mappings_checked} mappings checked, "
          f"{'all checks passed' if correct else 'CHECKS FAILED'}, "
          f"{time.perf_counter() - started:.1f}s wall", flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.shed + run.errors + run.timed_out,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def self_test() -> int:
    """Every workload at tiny size, traced and untraced, each in a fresh
    process; all must finish and pass their output checks."""
    import workloads

    failures = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(DEFAULT_SEED),
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=170)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = done.returncode == 0 and result.get("correct") is True
            failures += not ok
            print(f"self-test {name} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"({result.get('attempted', 0)} requests)")
            if not ok:
                print(done.stderr, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ecf-cold", "serve-steady",
                                               "serve-saturate", "serve-churn"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; the "
                             f"held-out seed is {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test input sizes")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny size and check it")
    args = parser.parse_args(argv)
    if args.self_test:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            print("perfbench: no program sources", file=sys.stderr)
            return 2
        sys.path.insert(0, str(ROOT / "src"))
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    raise SystemExit(main())
