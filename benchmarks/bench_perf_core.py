#!/usr/bin/env python
"""Core-engine perf trajectory: bitset ECF vs. the set-semantics reference.

Unlike the ``bench_fig*.py`` figure reproductions (pytest-benchmark), this is
a plain script: it builds a PlanetLab-style subgraph-query workload, runs the
full ECF enumeration (filter build + exhaustive search) under both engines,
verifies the mapping streams and every search counter are byte-identical,
checks seeded RWB streams against the recursive ``ReferenceRWB`` walk, and
writes the timings and parity verdicts as machine-readable
``BENCH_core.json`` via :mod:`repro.analysis.perf`.  The parity flags
(``parity.*``, ``rwb.streams_identical``) are exact-gated by
``compare_bench.py`` — an engine that is fast but wrong fails the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_core.py \
        [--scale smoke|small|planetlab] [--seed N] [--timeout SECONDS] \
        [--output PATH] [--skip-reference]

Scales:

* ``smoke`` — seconds; the CI perf-smoke job runs this on every push.
* ``small`` — the fig-8 benchmark scale (48-site host).
* ``planetlab`` — a PlanetLab-scale host (296 sites, all-pairs mesh); this is
  the workload behind the speedup numbers recorded in the PR descriptions.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.perf import (
    PerfSample,
    build_report,
    speedup,
    write_bench_json,
)
from repro.api import Budget, SearchRequest
from repro.core import ECF, RWB, clear_hosting_compile
from repro.core.reference import ReferenceECF, ReferenceRWB
from repro.utils.rng import as_rng
from repro.workloads import SUITES, Workload, build_subgraph_suite, planetlab_host
from repro.workloads.suites import SuiteScale

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_core.json"

#: Workload per --scale: suite sizes plus the delay-window slack.  The
#: planetlab scale tightens the windows to ±10% — at the fig-8 default of
#: ±25% a size-8 query on the 296-site all-pairs mesh has ~10^7 embeddings
#: and the *full* enumeration cannot terminate; at ±10% the filters pin each
#: query near its identity embedding while still forcing a few thousand
#: search-tree expansions per query.
SCALES: Dict[str, Tuple[SuiteScale, float]] = {
    "smoke": (SuiteScale(hosting_nodes=24, query_sizes=(4, 6, 8),
                         queries_per_size=2), 0.25),
    "small": (SUITES["fig8"].benchmark, 0.25),
    "planetlab": (SuiteScale(hosting_nodes=296,
                             query_sizes=(8, 12, 16, 20, 24),
                             queries_per_size=2), 0.10),
}


#: RWB stream check: one seeded single-result run per workload.
RWB_SEED = 0xC0FFEE


@dataclass
class EngineRun:
    """One engine's results plus the observables for the parity check."""

    sample: PerfSample
    streams: List[List[Tuple]]
    counters: List[Tuple[int, int, int, int]]


def build_workload(scale_name: str, seed: int):
    """The hosting network and query suite for a named scale."""
    scale, slack = SCALES[scale_name]
    rng = as_rng(seed)
    hosting = planetlab_host(scale.hosting_nodes, rng=rng)
    workloads = build_subgraph_suite(hosting, scale, slack=slack, rng=rng)
    return hosting, workloads


def run_engine(name: str, factory, hosting, workloads: Sequence[Workload],
               timeout: Optional[float]) -> EngineRun:
    """Run *factory*'s algorithm over every workload, full enumeration.

    The hosting-compile memo is cleared before every request so the bitset
    engine is timed at its historical per-call cost and the trajectory
    stays comparable with the PR 2 baseline numbers; cross-request
    amortisation is measured by ``bench_plan_cache.py`` instead.
    """
    results = []
    streams: List[List[Tuple]] = []
    counters: List[Tuple[int, int, int, int]] = []
    for workload in workloads:
        clear_hosting_compile(hosting)
        algorithm = factory()
        result = algorithm.request(SearchRequest.build(
            workload.query, hosting, constraint=workload.constraint,
            timeout=timeout))
        results.append(result)
        streams.append([tuple(m.as_dict().items()) for m in result.mappings])
        counters.append((result.stats.nodes_expanded,
                         result.stats.candidates_considered,
                         result.stats.backtracks,
                         result.stats.constraint_evaluations))
    return EngineRun(sample=PerfSample.from_results(name, results),
                     streams=streams, counters=counters)


def run_rwb(factory, hosting, workloads: Sequence[Workload],
            timeout: Optional[float]) -> List[List[Tuple]]:
    """Seeded single-result RWB streams, one per workload."""
    streams = []
    for i, workload in enumerate(workloads):
        clear_hosting_compile(hosting)
        result = factory().prepare(SearchRequest.build(
            workload.query, hosting, constraint=workload.constraint,
            budget=Budget(timeout=timeout, max_results=1),
        )).execute(rng=RWB_SEED + i)
        streams.append([tuple(m.as_dict().items()) for m in result.mappings])
    return streams


def check_parity(reference: EngineRun, candidate: EngineRun) -> None:
    """The two engines must produce identical mapping streams (key order
    included) and identical search counters, workload by workload."""
    for i, (ref, cand) in enumerate(zip(reference.streams, candidate.streams)):
        if ref != cand:
            raise AssertionError(
                f"mapping stream diverged on workload #{i}: "
                f"reference found {len(ref)}, bitset found {len(cand)}")
    for i, (ref, cand) in enumerate(zip(reference.counters,
                                        candidate.counters)):
        if ref != cand:
            raise AssertionError(
                f"search counters diverged on workload #{i}: "
                f"reference {ref}, bitset {cand}")


def format_sample(sample: PerfSample) -> str:
    return (f"{sample.engine:>14}: total {sample.total_seconds:8.3f}s "
            f"(filters {sample.filter_build_seconds:7.3f}s, "
            f"search {sample.search_seconds:7.3f}s)  "
            f"{sample.mappings_found} mappings, "
            f"{sample.nodes_per_second:12.0f} nodes/s, "
            f"{sample.filter_entries} filter entries")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="workload size (default: smoke)")
    parser.add_argument("--seed", type=int, default=8,
                        help="workload RNG seed (default: 8)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-query wall-clock budget in seconds")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write BENCH_core.json "
                             f"(default: {DEFAULT_OUTPUT})")
    parser.add_argument("--skip-reference", action="store_true",
                        help="time only the bitset engine (no baseline, "
                             "no speedup section)")
    args = parser.parse_args(argv)

    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    hosting, workloads = build_workload(args.scale, args.seed)
    print(f"workload: scale={args.scale} seed={args.seed} "
          f"host={hosting.num_nodes} nodes / {hosting.num_edges} edges, "
          f"{len(workloads)} queries "
          f"(sizes {sorted({w.num_nodes for w in workloads})})")

    samples: List[PerfSample] = []
    comparison = None
    parity = None

    candidate = run_engine("ECF", ECF, hosting, workloads, args.timeout)
    print(format_sample(candidate.sample))

    if not args.skip_reference:
        reference = run_engine("ECF-reference", ReferenceECF, hosting,
                               workloads, args.timeout)
        print(format_sample(reference.sample))
        check_parity(reference, candidate)
        print("parity: ECF mapping streams and counters identical "
              "across all queries")
        rwb_streams = run_rwb(RWB, hosting, workloads, args.timeout)
        if rwb_streams != run_rwb(ReferenceRWB, hosting, workloads,
                                  args.timeout):
            raise AssertionError("seeded RWB streams diverged from "
                                 "ReferenceRWB")
        print("parity: seeded RWB streams identical")
        parity = {
            "parity": {"streams_identical": True,
                       "counters_identical": True},
            "rwb": {"streams_identical": True, "seed": RWB_SEED,
                    "queries": len(rwb_streams)},
        }
        comparison = speedup(reference.sample, candidate.sample)
        print(f"speedup: total {comparison['speedup_total']:.2f}x "
              f"(filters {comparison['speedup_filter_build']:.2f}x, "
              f"search {comparison['speedup_search']:.2f}x)")
        samples.append(reference.sample)

    samples.append(candidate.sample)

    report = build_report(
        samples,
        workload={
            "scale": args.scale,
            "slack": SCALES[args.scale][1],
            "seed": args.seed,
            "timeout_seconds": args.timeout,
            "hosting_nodes": hosting.num_nodes,
            "hosting_edges": hosting.num_edges,
            "queries": len(workloads),
            "query_sizes": sorted({w.num_nodes for w in workloads}),
            "started": started,
        },
        comparison=comparison,
    )
    if parity is not None:
        report.update(parity)
    path = write_bench_json(args.output, report)
    print(f"wrote {path}")
    return 0


try:                         # pytest is absent in script-only environments
    from _smoke_marker import smoke as _smoke
except ImportError:          # pragma: no cover - running outside benchmarks/
    def _smoke(func):
        return func


@_smoke
def test_smoke(tmp_path):
    """Tiny-scale end-to-end run (parity-checked) for pytest/CI."""
    assert main(["--scale", "smoke",
                 "--output", str(tmp_path / "BENCH_core.json")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
