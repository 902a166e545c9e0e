"""Command-line interface to the NETEMBED service.

The subcommands cover the common workflows::

    python -m repro embed --hosting host.graphml --query query.graphml \
        --constraint "rEdge.avgDelay <= vEdge.maxDelay" --algorithm ECF

    python -m repro batch --hosting host.graphml --specs batch.json --json

    python -m repro plan --hosting host.graphml --query query.graphml \
        --repeat 3 --tick 1

    python -m repro churn --sites 60 --queries 4 --ticks 10

    python -m repro loadtest --scenario steady --scenario overload \
        --record trace.jsonl --output-dir results/harness

    python -m repro serve --hosting host.graphml --port 7478

    python -m repro list-algorithms

    python -m repro generate planetlab --sites 120 --seed 7 --output pl.graphml

    python -m repro partition --hosting host.graphml --attribute region \
        --query query.graphml --constraint "..."

    python -m repro experiment fig8 --seed 1 --timeout 5 --csv fig8.csv

``embed`` reads both networks from GraphML, runs the requested algorithm and
prints the embeddings (optionally as JSON); ``batch`` feeds a JSON file of
query specs through :meth:`NetEmbedService.submit_batch`; ``plan`` compiles
an :class:`~repro.core.plan.EmbeddingPlan`, runs it repeatedly through the
service's version-aware plan cache and explains the cache state (hits,
misses, per-entry statistics, invalidation after monitor ticks);
``churn`` drives an embed→tick→repair loop under sparse network churn and
reports repair-vs-reembed cost;
``loadtest`` replays recorded arrival traces open-loop against a live
serving tier across a scenario matrix (steady/overload/burst/diurnal/churn)
and reports honest latency percentiles — measured from each request's
*scheduled* offset, ``null`` on an empty sample (see :mod:`repro.harness`);
``serve`` runs the asyncio serving tier — admission control, per-tenant
QoS, deadline-aware shedding, and a ``metrics`` endpoint — over a
registered hosting model (see :mod:`repro.server`);
``list-algorithms`` prints the capability registry; ``generate`` materialises
the synthetic hosting networks used throughout the evaluation; ``partition``
shards a hosting network for the cluster tier (see :mod:`repro.cluster`) and
optionally answers a query through the two-level coarse/fine search;
``experiment``
runs one of the figure drivers from :mod:`repro.analysis` and prints the same
series the paper plots.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import repro.baselines  # noqa: F401 — registers the baselines for by-name use
from repro.analysis import EXPERIMENTS, aggregate_series, format_figure, format_table, write_csv
from repro.api import Capability, SearchRequest, default_registry
from repro.constraints import ConstraintExpression
from repro.graphs import HostingNetwork, QueryNetwork, read_graphml, write_graphml
from repro.topology import barabasi_albert, synthetic_planetlab_trace, transit_stub


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NETEMBED: map virtual network requests onto a hosting network.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    algorithm_names = default_registry().names()

    embed = subparsers.add_parser(
        "embed", help="embed a GraphML query network into a GraphML hosting network")
    embed.add_argument("--hosting", required=True, type=Path,
                       help="GraphML file describing the hosting (real) network")
    embed.add_argument("--query", required=True, type=Path,
                       help="GraphML file describing the query (virtual) network")
    embed.add_argument("--constraint", default=None,
                       help="edge constraint expression (NETEMBED constraint language)")
    embed.add_argument("--node-constraint", default=None,
                       help="node constraint expression over vNode/rNode")
    embed.add_argument("--algorithm", default="ECF", choices=algorithm_names,
                       help="which registered algorithm to run (default: ECF)")
    embed.add_argument("--timeout", type=float, default=30.0,
                       help="search budget in seconds (default: 30)")
    embed.add_argument("--max-results", type=int, default=None,
                       help="stop after this many embeddings (default: all)")
    embed.add_argument("--seed", type=int, default=None,
                       help="random seed (only used by seedable algorithms)")
    embed.add_argument("--json", action="store_true",
                       help="print the result as JSON instead of plain text")

    batch = subparsers.add_parser(
        "batch", help="run a JSON file of query specs through the batch service")
    batch.add_argument("--hosting", required=True, type=Path,
                       help="GraphML file registered as the batch's hosting network")
    batch.add_argument("--specs", required=True, type=Path,
                       help="JSON file: a list of spec objects with a 'query' "
                            "GraphML path and optional constraint/algorithm/"
                            "timeout/max_results/seed fields")
    batch.add_argument("--workers", type=int, default=None,
                       help="thread-pool size (default: executor default)")
    batch.add_argument("--timeout", type=float, default=30.0,
                       help="default per-query budget in seconds (default: 30)")
    batch.add_argument("--json", action="store_true",
                       help="print the responses as JSON instead of plain text")

    list_algorithms = subparsers.add_parser(
        "list-algorithms", help="list the registered algorithms and their capabilities")
    list_algorithms.add_argument("--json", action="store_true",
                                 help="print the registry as JSON")
    list_algorithms.add_argument("--capability", action="append", default=None,
                                 metavar="CAP",
                                 choices=sorted(c.value for c in Capability),
                                 help="only show algorithms declaring this "
                                      "capability (repeatable)")

    plan = subparsers.add_parser(
        "plan", help="compile an embedding plan, exercise the plan cache and "
                     "explain its state")
    plan.add_argument("--hosting", required=True, type=Path,
                      help="GraphML file describing the hosting (real) network")
    plan.add_argument("--query", required=True, type=Path,
                      help="GraphML file describing the query (virtual) network")
    plan.add_argument("--constraint", default=None,
                      help="edge constraint expression")
    plan.add_argument("--node-constraint", default=None,
                      help="node constraint expression over vNode/rNode")
    plan.add_argument("--algorithm", default="ECF", choices=algorithm_names,
                      help="which registered algorithm to plan for (default: ECF)")
    plan.add_argument("--repeat", type=int, default=3,
                      help="how many times to run the query against the "
                           "cache (default: 3; first run compiles, the rest hit)")
    plan.add_argument("--tick", type=int, default=0,
                      help="monitor refreshes applied after the repeats, "
                           "followed by one more run, to demonstrate "
                           "version-based invalidation (default: 0)")
    plan.add_argument("--timeout", type=float, default=30.0,
                      help="per-run search budget in seconds (default: 30)")
    plan.add_argument("--max-results", type=int, default=None,
                      help="per-run result cap (default: all)")
    plan.add_argument("--seed", type=int, default=None,
                      help="per-run seed for seedable algorithms and the monitor")
    plan.add_argument("--json", action="store_true",
                      help="print the cache explanation as JSON")

    churn = subparsers.add_parser(
        "churn", help="run an embed→tick→repair loop under sparse network "
                      "churn and report repair-vs-reembed cost")
    churn.add_argument("--hosting", type=Path, default=None,
                       help="GraphML hosting network (default: synthetic "
                            "PlanetLab trace with --sites sites)")
    churn.add_argument("--sites", type=int, default=60,
                       help="synthetic PlanetLab size when no --hosting "
                            "file is given (default: 60)")
    churn.add_argument("--queries", type=int, default=4,
                       help="reserved embeddings to keep healthy (default: 4)")
    churn.add_argument("--query-size", type=int, default=8,
                       help="nodes per query (default: 8)")
    churn.add_argument("--slack", type=float, default=0.35,
                       help="delay-window slack of the generated queries "
                            "(default: 0.35)")
    churn.add_argument("--ticks", type=int, default=10,
                       help="churn ticks to apply (default: 10)")
    churn.add_argument("--link-fraction", type=float, default=0.05,
                       help="fraction of links jittered per tick (default: 0.05)")
    churn.add_argument("--node-fraction", type=float, default=0.05,
                       help="fraction of nodes perturbed per tick (default: 0.05)")
    churn.add_argument("--capacity", type=float, default=4.0,
                       help="per-host reservation capacity (default: 4)")
    churn.add_argument("--timeout", type=float, default=30.0,
                       help="per-operation budget in seconds (default: 30)")
    churn.add_argument("--seed", type=int, default=0,
                       help="workload + churn RNG seed (default: 0)")
    churn.add_argument("--json", action="store_true",
                       help="print the scenario report as JSON")

    loadtest = subparsers.add_parser(
        "loadtest", help="replay trace-driven load scenarios against a live "
                         "serving tier and report honest latency/shed numbers")
    loadtest.add_argument("--scenario", action="append", default=None,
                          metavar="NAME|CONFIG.json",
                          help="named scenario or JSON config file "
                               "(repeatable; default: the core matrix "
                               "steady, overload, burst, diurnal)")
    loadtest.add_argument("--seed", type=int, default=9,
                          help="scene + trace RNG seed (default: 9)")
    loadtest.add_argument("--record", type=Path, default=None,
                          help="write the scenario's trace to this JSONL "
                               "artifact (requires exactly one scenario)")
    loadtest.add_argument("--replay", type=Path, default=None,
                          help="replay this recorded JSONL trace instead of "
                               "regenerating one (requires exactly one "
                               "scenario; the scene is verified against the "
                               "trace's workload fingerprints)")
    loadtest.add_argument("--output-dir", type=Path,
                          default=Path("benchmarks") / "results" / "harness",
                          help="where per-scenario requests.csv/summary.json "
                               "and the combined loadtest.json are written "
                               "(default: benchmarks/results/harness)")
    loadtest.add_argument("--partitions", type=int, default=None,
                          help="serve every scenario through the partitioned "
                               "cluster tier with this many balanced "
                               "partitions (see repro.cluster)")
    loadtest.add_argument("--list", action="store_true",
                          help="list the named scenarios and exit")
    loadtest.add_argument("--json", action="store_true",
                          help="print the combined summary document as JSON")

    serve = subparsers.add_parser(
        "serve", help="run the asyncio serving tier over a hosting network")
    serve.add_argument("--hosting", required=True, type=Path,
                       help="GraphML file registered as the served hosting "
                            "network (the server's default model)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: 0 = pick a free port; the "
                            "chosen port is announced on stdout)")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="default per-request search budget in seconds "
                            "(default: 30)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent engine executions (default: 2)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue bound; arrivals beyond it are "
                            "shed (default: 64)")
    serve.add_argument("--qos", type=Path, default=None,
                       help="JSON file of tenant QoS policies: "
                            '{"default": {...}, "tenants": {name: {...}}} '
                            "with rate/burst/max_queued/max_inflight/"
                            "max_plans fields")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for this many seconds then exit "
                            "(default: run until interrupted)")
    serve.add_argument("--wal", type=Path, default=None,
                       help="journal reservations to this write-ahead log; "
                            "an existing log is replayed on startup so the "
                            "server resumes with its pre-crash reservations")
    serve.add_argument("--fault-plan", type=Path, default=None,
                       help="JSON fault plan installed for the server's "
                            "lifetime (deterministic fault injection; see "
                            "repro.faults.FaultPlan)")
    serve.add_argument("--partitions", type=int, default=None,
                       help="serve through the partitioned cluster tier "
                            "with this many balanced partitions "
                            "(see repro.cluster)")
    serve.add_argument("--partition-attribute", default=None,
                       help="serve through the cluster tier, partitioning "
                            "by this categorical node attribute "
                            "(overrides --partitions)")
    serve.add_argument("--json", action="store_true",
                       help="print the final stats snapshot as JSON on exit")

    recover = subparsers.add_parser(
        "recover", help="replay a reservation write-ahead log and report "
                        "the recovered state")
    recover.add_argument("--wal", required=True, type=Path,
                         help="write-ahead log to replay")
    recover.add_argument("--hosting", required=True, type=Path,
                         help="GraphML hosting network the reservations "
                              "were granted against")
    recover.add_argument("--compact", action="store_true",
                         help="after replay, rewrite the log keeping only "
                              "records for still-active reservations")
    recover.add_argument("--json", action="store_true",
                         help="print the recovery report as JSON")

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic hosting network as GraphML")
    generate.add_argument("kind", choices=["planetlab", "brite", "transit-stub"],
                          help="which topology family to generate")
    generate.add_argument("--sites", type=int, default=296,
                          help="number of nodes/sites (default: 296)")
    generate.add_argument("--seed", type=int, default=None, help="random seed")
    generate.add_argument("--output", type=Path, required=True,
                          help="output GraphML path")

    partition = subparsers.add_parser(
        "partition", help="shard a hosting network for the cluster tier and "
                          "optionally answer a query through the two-level "
                          "search")
    partition.add_argument("--hosting", required=True, type=Path,
                           help="GraphML file describing the hosting network")
    partition.add_argument("--partitions", type=int, default=None,
                           help="balanced-connected partition count "
                                "(default: 8 unless --attribute is given)")
    partition.add_argument("--attribute", default=None,
                           help="partition by this categorical node attribute "
                                "(e.g. 'region' or 'zone') instead of "
                                "balanced slicing")
    partition.add_argument("--query", type=Path, default=None,
                           help="optional GraphML query to embed through the "
                                "cluster coordinator")
    partition.add_argument("--constraint", default=None,
                           help="edge constraint expression")
    partition.add_argument("--node-constraint", default=None,
                           help="node constraint expression over vNode/rNode")
    partition.add_argument("--algorithm", default="ECF", choices=algorithm_names,
                           help="intra-partition algorithm (default: ECF)")
    partition.add_argument("--timeout", type=float, default=30.0,
                           help="search budget in seconds (default: 30)")
    partition.add_argument("--max-results", type=int, default=1,
                           help="stop after this many embeddings (default: 1)")
    partition.add_argument("--seed", type=int, default=None,
                           help="seed for the per-partition searches")
    partition.add_argument("--no-cross-partition", action="store_true",
                           help="disable the cross-partition split-and-stitch "
                                "stage (single-partition placement only)")
    partition.add_argument("--json", action="store_true",
                           help="print the partition/search report as JSON")

    experiment = subparsers.add_parser(
        "experiment", help="run one of the paper's evaluation experiments")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS),
                            help="experiment id (figure number or ablation name)")
    experiment.add_argument("--seed", type=int, default=0, help="random seed")
    experiment.add_argument("--timeout", type=float, default=5.0,
                            help="per-query timeout in seconds (default: 5)")
    experiment.add_argument("--paper-scale", action="store_true",
                            help="use the paper's instance sizes instead of the "
                                 "scaled-down benchmark sizes (slow)")
    experiment.add_argument("--csv", type=Path, default=None,
                            help="also write the raw per-query rows to this CSV file")

    return parser


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #

def _run_embed(args: argparse.Namespace) -> int:
    hosting = read_graphml(args.hosting, cls=HostingNetwork)
    query = read_graphml(args.query, cls=QueryNetwork)
    info = default_registry().get(args.algorithm)
    kwargs = {}
    if args.seed is not None and info.has(Capability.SEEDABLE):
        kwargs["rng"] = args.seed
    algorithm = info.create(**kwargs)
    constraint = ConstraintExpression(args.constraint) if args.constraint else None
    node_constraint = (ConstraintExpression(args.node_constraint)
                       if args.node_constraint else None)

    result = algorithm.request(SearchRequest.build(
        query, hosting, constraint=constraint, node_constraint=node_constraint,
        timeout=args.timeout, max_results=args.max_results))

    if args.json:
        print(json.dumps(_result_payload(result), indent=2))
    else:
        print(f"{result.algorithm}: {result.status.value}, {result.count} embedding(s) "
              f"in {result.elapsed_seconds * 1000:.1f} ms")
        for index, mapping in enumerate(result.mappings):
            rendered = ", ".join(f"{q}->{r}" for q, r in sorted(mapping.items(), key=str))
            print(f"  [{index}] {rendered}")
    return 0 if result.found or result.status.value == "complete" else 1


def _result_payload(result) -> dict:
    return {
        "algorithm": result.algorithm,
        "status": result.status.value,
        "elapsed_seconds": result.elapsed_seconds,
        "time_to_first_seconds": result.time_to_first_seconds,
        "mappings": [{str(q): str(r) for q, r in m.items()} for m in result.mappings],
    }


def _run_batch(args: argparse.Namespace) -> int:
    from repro.service import NetEmbedService, QuerySpec

    raw = json.loads(Path(args.specs).read_text())
    if not isinstance(raw, list):
        print("error: the specs file must contain a JSON list of spec objects",
              file=sys.stderr)
        return 2

    base_dir = Path(args.specs).parent
    with NetEmbedService(default_timeout=args.timeout,
                         max_workers=args.workers) as service:
        service.register_network_from_graphml(args.hosting)
        specs = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict) or "query" not in entry:
                print(f"error: spec #{index} must be an object with a 'query' path",
                      file=sys.stderr)
                return 2
            query_path = Path(entry["query"])
            if not query_path.is_absolute():
                query_path = base_dir / query_path
            specs.append(QuerySpec(
                query=read_graphml(query_path, cls=QueryNetwork),
                constraint=entry.get("constraint"),
                node_constraint=entry.get("node_constraint"),
                algorithm=entry.get("algorithm", "auto"),
                timeout=entry.get("timeout"),
                max_results=entry.get("max_results"),
                seed=entry.get("seed"),
            ))
        responses = service.submit_batch(specs)

    if args.json:
        payload = [{
            "index": index,
            "query": response.spec.query.name,
            "network": response.network_name,
            "algorithm": response.algorithm_used,
            **_result_payload(response.result),
        } for index, response in enumerate(responses)]
        print(json.dumps(payload, indent=2))
    else:
        for index, response in enumerate(responses):
            result = response.result
            print(f"[{index}] {response.spec.query.name}: {response.algorithm_used} "
                  f"{result.status.value}, {result.count} embedding(s) in "
                  f"{result.elapsed_seconds * 1000:.1f} ms")
    return 0 if all(r.found or r.status.value == "complete" for r in responses) else 1


def _run_plan(args: argparse.Namespace) -> int:
    """Warm the plan cache with repeated runs and explain the resulting state."""
    from repro.service import NetEmbedService, QuerySpec

    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2

    query = read_graphml(args.query, cls=QueryNetwork)
    service = NetEmbedService(default_timeout=args.timeout)
    network_name = service.register_network_from_graphml(args.hosting)

    spec = QuerySpec(query=query, constraint=args.constraint,
                     node_constraint=args.node_constraint,
                     algorithm=args.algorithm, timeout=args.timeout,
                     max_results=args.max_results, seed=args.seed)

    def cache_label(before, after):
        # "bypass" = the cache was never consulted (non-preparable algorithm).
        if after["hits"] > before["hits"]:
            return "hit"
        if after["misses"] > before["misses"]:
            return "miss"
        return "bypass"

    runs = []
    for _ in range(args.repeat):
        before = service.plans.stats()
        response = service.submit(spec)
        after = service.plans.stats()
        runs.append({
            "cache": cache_label(before, after),
            "status": response.status.value,
            "mappings": len(response.mappings),
            "elapsed_ms": response.elapsed_seconds * 1000,
        })

    invalidation = None
    if args.tick > 0:
        monitor = service.attach_monitor(network_name, rng=args.seed)
        version = monitor.run(args.tick)
        before = service.plans.stats()
        response = service.submit(spec)
        after = service.plans.stats()
        invalidation = {
            "ticks": args.tick,
            "model_version": version,
            "cache": cache_label(before, after),
            "mappings": len(response.mappings),
        }

    service_stats = service.stats()
    stats = service_stats["plan_cache"]
    entries = [{
        "network": entry.key[0],
        "model_version": entry.key[1],
        "signature": list(entry.key[2]),
        "fingerprint": entry.key[3],
        "hits": entry.hits,
        **entry.plan.describe(),
    } for entry in service.plans.entries()]

    if args.json:
        # "cache" stays for compatibility; "service" is the same
        # consolidated snapshot the serving tier's metrics endpoint returns.
        print(json.dumps({"cache": stats, "service": service_stats,
                          "entries": entries, "runs": runs,
                          "invalidation": invalidation}, indent=2))
        return 0

    print(f"plan cache: {stats['size']}/{stats['capacity']} entries, "
          f"{stats['hits']} hits / {stats['misses']} misses "
          f"({stats['evictions']} evictions, "
          f"{stats['invalidations']} stale invalidations)")
    for index, entry in enumerate(entries):
        print(f"  [{index}] {entry['algorithm']} on {entry['network']!r} "
              f"v{entry['model_version']} fingerprint={entry['fingerprint']}")
        print(f"      hits={entry['hits']} executions={entry['executions']} "
              f"filter_cells={entry['filter_cells']} "
              f"filter_entries={entry['filter_entries']} "
              f"prepare={entry['prepare_seconds'] * 1000:.1f}ms "
              f"stale={'yes' if entry['stale'] else 'no'}")
    for index, run in enumerate(runs):
        print(f"  run {index}: cache {run['cache']:<6} {run['status']}, "
              f"{run['mappings']} mapping(s) in {run['elapsed_ms']:.1f} ms")
    if invalidation is not None:
        label = invalidation["cache"]
        if label == "miss":
            label = "miss (plan invalidated)"
        print(f"  after {invalidation['ticks']} monitor tick(s) -> model "
              f"v{invalidation['model_version']}: cache {label}, "
              f"{invalidation['mappings']} mapping(s)")
    return 0


def _run_churn(args: argparse.Namespace) -> int:
    """The embed→tick→repair scenario: keep reservations healthy under churn.

    Embeds and reserves a suite of feasible queries, then applies sparse
    attribute churn tick by tick.  After every tick each reservation is
    repaired in place (only violated assignments move) and, for comparison,
    the same query is answered from scratch — the cost the service would pay
    by re-embedding instead.  One cache-routed traffic query per tick also
    demonstrates the plan cache's patched-vs-recompiled refresh path.
    """
    import time as _time

    from repro.service import NetEmbedService
    from repro.workloads import ChurnConfig, ChurnProcess, churn_embedding_suite
    from repro.utils.rng import as_rng

    if args.ticks < 1:
        print("error: --ticks must be >= 1", file=sys.stderr)
        return 2
    rng = as_rng(args.seed)
    if args.hosting is not None:
        hosting = read_graphml(args.hosting, cls=HostingNetwork)
    else:
        from repro.topology import synthetic_planetlab_trace as _planetlab
        hosting = _planetlab(num_sites=args.sites, rng=rng)
    for node in hosting.nodes():
        hosting.set_capacity(node, args.capacity)

    service = NetEmbedService(default_timeout=args.timeout)
    network_name = service.register_network(hosting, name=hosting.name)
    workloads = churn_embedding_suite(hosting, num_queries=args.queries,
                                      query_size=args.query_size,
                                      slack=args.slack, rng=rng)

    from repro.service import QuerySpec

    reservations = []
    for workload in workloads:
        response = service.submit(QuerySpec(
            query=workload.query, constraint=workload.constraint,
            algorithm="ECF", max_results=1, reserve=True,
            timeout=args.timeout))
        if response.reservation_id is None:
            print(f"error: query {workload.query.name!r} found no embedding "
                  f"to reserve", file=sys.stderr)
            return 1
        reservations.append((response.reservation_id, workload))
    traffic_spec = QuerySpec(query=workloads[0].query,
                             constraint=workloads[0].constraint,
                             algorithm="ECF", max_results=1,
                             timeout=args.timeout)

    churn = ChurnProcess(hosting, ChurnConfig(
        link_fraction=args.link_fraction,
        node_fraction=args.node_fraction), rng=rng)

    totals = {"intact": 0, "repaired": 0, "failed": 0, "timeout": 0,
              "moved_nodes": 0}
    repair_seconds = 0.0
    reembed_seconds = 0.0
    ticks = []
    for _ in range(args.ticks):
        tick = churn.tick()
        service.registry.touch(network_name)
        tick_row = {"tick": tick.index,
                    "touched_edges": len(tick.touched_edges),
                    "touched_nodes": len(tick.touched_nodes),
                    "repairs": []}
        for reservation_id, workload in reservations:
            repair = service.repair(reservation_id, timeout=args.timeout)
            repair_seconds += repair.result.elapsed_seconds
            started = _time.perf_counter()
            fresh = service.submit(QuerySpec(
                query=workload.query, constraint=workload.constraint,
                algorithm="ECF", max_results=1, timeout=args.timeout))
            reembed_seconds += _time.perf_counter() - started
            totals[repair.status] = totals.get(repair.status, 0) + 1
            totals["moved_nodes"] += len(repair.moved)
            tick_row["repairs"].append({
                "reservation": reservation_id,
                "status": repair.status,
                "moved": len(repair.moved),
                "repair_ms": repair.result.elapsed_seconds * 1000,
                "reembed_found": fresh.found,
            })
        service.submit(traffic_spec)   # exercise the plan cache under churn
        ticks.append(tick_row)

    cache = service.plans.stats()
    ratio = reembed_seconds / repair_seconds if repair_seconds > 0 else float("inf")
    report = {
        "network": {"name": network_name, "nodes": hosting.num_nodes,
                    "edges": hosting.num_edges},
        "scenario": {"queries": len(reservations), "ticks": args.ticks,
                     "link_fraction": args.link_fraction,
                     "node_fraction": args.node_fraction, "seed": args.seed},
        "repair": dict(totals),
        "cost": {"repair_seconds": repair_seconds,
                 "reembed_seconds": reembed_seconds,
                 "reembed_over_repair": ratio},
        "plan_cache": cache,
        "ticks": ticks,
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0

    print(f"churn scenario on {network_name!r}: {hosting.num_nodes} nodes / "
          f"{hosting.num_edges} edges, {len(reservations)} reserved "
          f"embeddings, {args.ticks} ticks "
          f"(link fraction {args.link_fraction}, node fraction "
          f"{args.node_fraction})")
    checks = sum(totals.get(k, 0) for k in ("intact", "repaired", "failed",
                                            "timeout"))
    print(f"repairs: {checks} checks -> {totals['intact']} intact, "
          f"{totals['repaired']} repaired ({totals['moved_nodes']} node "
          f"moves), {totals['failed']} failed, {totals['timeout']} timed out")
    print(f"cost:    repair {repair_seconds * 1000:8.1f} ms total vs "
          f"re-embed {reembed_seconds * 1000:8.1f} ms total "
          f"({ratio:.1f}x in favour of repair)")
    print(f"plan cache: {cache['hits']} hits / {cache['misses']} misses, "
          f"{cache['patched']} patched vs {cache['recompiled']} recompiled "
          f"refreshes")
    return 0 if totals["failed"] == 0 and totals["timeout"] == 0 else 1


def _run_loadtest(args: argparse.Namespace) -> int:
    """Replay trace-driven scenarios against a live server and report."""
    import dataclasses

    from repro.analysis import environment_info
    from repro.harness import (
        DEFAULT_MATRIX,
        SCENARIOS,
        load_scenario,
        run_scenario,
        scenario_summary,
        write_scenario_artifacts,
    )
    from repro.workloads import read_trace, write_trace

    if args.list:
        for name in sorted(SCENARIOS):
            config = SCENARIOS[name]
            print(f"{name}: {config.arrival} arrivals, "
                  f"horizon {config.horizon:g}s")
        return 0

    sources = list(args.scenario) if args.scenario else list(DEFAULT_MATRIX)
    if (args.record or args.replay) and len(sources) != 1:
        print("error: --record/--replay require exactly one --scenario",
              file=sys.stderr)
        return 2
    try:
        configs = [load_scenario(source) for source in sources]
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.partitions is not None:
        configs = [dataclasses.replace(config, partitions=args.partitions)
                   for config in configs]

    replay_trace = None
    if args.replay is not None:
        try:
            replay_trace = read_trace(args.replay)
        except (ValueError, OSError) as exc:
            print(f"error: cannot read trace {args.replay}: {exc}",
                  file=sys.stderr)
            return 2

    summaries = {}
    exit_code = 0
    for config in configs:
        try:
            run = run_scenario(config, seed=args.seed, trace=replay_trace)
        except ValueError as exc:
            print(f"error: scenario {config.name!r}: {exc}", file=sys.stderr)
            return 2
        if args.record is not None:
            write_trace(run.trace, args.record)
            print(f"recorded {len(run.trace.arrivals)} arrival(s) / "
                  f"{len(run.trace.departures)} departure(s) to {args.record}")
        write_scenario_artifacts(run, args.output_dir)
        summary = scenario_summary(run)
        summaries[config.name] = summary

        latency = summary["latency"]
        outcomes = summary["outcomes"]
        slip = summary["schedule_slip"]
        healthy = (summary["accounting"]["consistent"]
                   and outcomes["errors"] == 0
                   and summary["server"]["protocol_errors"] == 0
                   and summary["reservations"]["release_failures"] == 0)
        if not healthy:
            exit_code = 1

        def _ms(value):
            return "n/a" if value is None else f"{value * 1000:.1f}ms"

        print(f"{config.name}: {outcomes['offered']} offered -> "
              f"{outcomes['served']} served / {outcomes['shed']} shed / "
              f"{outcomes['errors']} error(s); "
              f"p50 {_ms(latency['p50_seconds'])} "
              f"p99 {_ms(latency['p99_seconds'])}, "
              f"slip max {_ms(slip['max_seconds'])}; "
              f"accounting {'ok' if summary['accounting']['consistent'] else 'INCONSISTENT'}")

    combined = {
        "schema_version": 1,
        "seed": args.seed,
        "scenarios": summaries,
        "environment": environment_info(),
    }
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    combined_path = output_dir / "loadtest.json"
    combined_path.write_text(
        json.dumps(combined, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    if args.json:
        print(json.dumps(combined, indent=2, sort_keys=True))
    else:
        print(f"wrote per-scenario artifacts and {combined_path}")
    return exit_code


def _run_serve(args: argparse.Namespace) -> int:
    """Run the asyncio serving tier until interrupted (or for --duration)."""
    import asyncio

    from repro.server import (
        AdmissionConfig,
        EmbeddingServer,
        ServerConfig,
        ServiceRegistry,
        TenantPolicy,
    )

    admission_kwargs = {"max_queue_depth": args.queue_depth}
    if args.qos is not None:
        try:
            qos = json.loads(args.qos.read_text())
            if "default" in qos:
                admission_kwargs["default_policy"] = TenantPolicy(**qos["default"])
            admission_kwargs["tenants"] = {
                name: TenantPolicy(**policy)
                for name, policy in qos.get("tenants", {}).items()}
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: cannot load QoS policies from {args.qos}: {exc}",
                  file=sys.stderr)
            return 2
    config = ServerConfig(default_timeout=args.timeout,
                          engine_workers=args.workers,
                          admission=AdmissionConfig(**admission_kwargs))
    service = None
    if args.partitions is not None or args.partition_attribute is not None:
        from repro.cluster import ClusterService
        service = ClusterService(
            default_timeout=config.default_timeout,
            plan_cache_size=config.plan_cache_size,
            num_partitions=args.partitions if args.partitions else 8,
            attribute=args.partition_attribute)
    registry = ServiceRegistry(config, service=service)
    name = registry.service.register_network_from_graphml(args.hosting,
                                                          default=True)
    hosting = registry.models.get(name)

    if args.wal is not None:
        from repro.service.wal import WALError
        try:
            report = registry.service.attach_wal(args.wal)
        except (WALError, OSError, ValueError) as exc:
            print(f"error: cannot recover WAL {args.wal}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wal: replayed {report['records']} record(s) from "
              f"{args.wal} ({report['active']} active reservation(s), "
              f"{report['skipped']} torn line(s) skipped)", flush=True)

    fault_plan = None
    if args.fault_plan is not None:
        from repro import faults
        try:
            fault_plan = faults.FaultPlan.from_json(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load fault plan from {args.fault_plan}: "
                  f"{exc}", file=sys.stderr)
            return 2

    async def run() -> dict:
        server = EmbeddingServer(registry, host=args.host, port=args.port)
        await server.start()
        print(f"serving {name!r} ({hosting.num_nodes} nodes, "
              f"{hosting.num_edges} links) on {server.host}:{server.port}",
              flush=True)
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
        return server.stats()

    try:
        if fault_plan is not None:
            from repro import faults
            with faults.injecting(fault_plan):
                stats = asyncio.run(run())
                fault_stats = faults.active()
                fired = fault_stats.stats() if fault_stats else None
            if fired is not None:
                print(f"faults: fired {fired['total_fired']} "
                      f"({json.dumps(fired['fired_counts'])})", flush=True)
        else:
            stats = asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
        return 0
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        admission = stats["admission"]
        cache = stats["service"]["plan_cache"]
        print(f"served {admission['completed']} request(s), "
              f"shed {admission['shed_total']} "
              f"({json.dumps(admission['shed'])}), "
              f"plan cache {cache['hits']} hit(s) / {cache['misses']} miss(es)")
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    """Replay a reservation WAL against a hosting network and report."""
    from repro.service import NetEmbedService
    from repro.service.wal import WALError

    service = NetEmbedService()
    name = service.register_network_from_graphml(args.hosting, default=True)
    try:
        report = service.attach_wal(args.wal)
    except (WALError, OSError, ValueError) as exc:
        print(f"error: cannot recover WAL {args.wal}: {exc}", file=sys.stderr)
        return 2
    report["network"] = name
    report["reservations"] = service.reservations.snapshot()
    if args.compact:
        report["compacted_records"] = service.reservations.compact_wal()
    service.shutdown()
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    applied = report["applied"]
    print(f"replayed {report['records']} record(s) from {args.wal}: "
          f"{applied['reserve']} reserve / {applied['rebind']} rebind / "
          f"{applied['release']} release, {report['active']} active "
          f"reservation(s), {report['skipped']} torn line(s) skipped")
    for entry in report["reservations"]:
        print(f"  {entry['id']}: {len(entry['mapping'])} node(s) on "
              f"{entry['network']} ({entry['rebinds']} rebind(s))")
    if args.compact:
        print(f"compacted log to {report['compacted_records']} record(s)")
    return 0


def _run_list_algorithms(args: argparse.Namespace) -> int:
    registry = default_registry()
    infos = (registry.with_capabilities(*args.capability)
             if args.capability else registry.infos())
    if args.json:
        payload = [{
            "name": info.name,
            "capabilities": sorted(c.value for c in info.capabilities),
            "tags": sorted(info.tags),
            "summary": info.summary,
        } for info in infos]
        print(json.dumps(payload, indent=2))
        return 0
    if not infos:
        print("no registered algorithms match")
        return 1
    width = max(len(info.name) for info in infos)
    for info in infos:
        caps = ", ".join(sorted(c.value for c in info.capabilities))
        print(f"{info.name:<{width}}  {info.summary}")
        print(f"{'':<{width}}  capabilities: {caps or '(none declared)'}")
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    if args.kind == "planetlab":
        network = synthetic_planetlab_trace(num_sites=args.sites, rng=args.seed)
    elif args.kind == "brite":
        network = barabasi_albert(args.sites, edges_per_node=2, rng=args.seed)
    else:
        network = transit_stub(rng=args.seed)
    write_graphml(network, args.output)
    print(f"wrote {network.num_nodes} nodes / {network.num_edges} edges to {args.output}")
    return 0


def _run_partition(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterCoordinator

    hosting = read_graphml(args.hosting, cls=HostingNetwork)
    info = default_registry().get(args.algorithm)
    coordinator = ClusterCoordinator(
        hosting, attribute=args.attribute,
        num_partitions=args.partitions, algorithm=info.create())
    stats = coordinator.stats()
    report = {"partition": stats}

    if args.query is not None:
        query = read_graphml(args.query, cls=QueryNetwork)
        result = coordinator.embed(
            query, constraint=args.constraint,
            node_constraint=args.node_constraint, timeout=args.timeout,
            max_results=args.max_results, seed=args.seed,
            cross_partition=not args.no_cross_partition)
        report["search"] = {
            "verdict": result.verdict,
            "found": result.found,
            "partition": result.partition,
            "used_cross_partition": result.used_cross_partition,
            "fragment_assignment": result.fragment_assignment,
            "partitions_pruned": result.partitions_pruned,
            "partitions_searched": result.partitions_searched,
            "coarse_placements_tried": result.coarse_placements_tried,
            "stitch_checks": result.stitch_checks,
            "elapsed_seconds": result.elapsed_seconds,
            "mappings": [{str(q): str(r) for q, r in m.items()}
                         for m in result.mappings],
        }

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{hosting.name}: {stats['partitions']} partitions over "
              f"{stats['primary_nodes']} nodes "
              f"(largest {stats['max_partition_nodes']} nodes, "
              f"boundary {stats['boundary_edges']} edges, "
              f"quotient {stats['quotient_edges']} super-edges)")
        for name, size in sorted(stats["partition_nodes"].items()):
            print(f"  {name}: {size} nodes")
        if args.query is not None:
            search = report["search"]
            where = (" + ".join(sorted(set(search["fragment_assignment"].values())))
                     if search["fragment_assignment"] else search["partition"])
            print(f"search: {search['verdict']} via {where or 'n/a'} "
                  f"({'cross-partition' if search['used_cross_partition'] else 'single partition'}, "
                  f"{search['partitions_pruned']} pruned, "
                  f"{search['elapsed_seconds'] * 1000:.1f} ms)")
            for index, mapping in enumerate(search["mappings"]):
                rendered = ", ".join(f"{q}->{r}"
                                     for q, r in sorted(mapping.items()))
                print(f"  [{index}] {rendered}")
    if args.query is None:
        return 0
    return 0 if report["search"]["verdict"] != "infeasible" else 1


def _run_experiment(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS[args.name]
    rows = driver(seed=args.seed, scaled=not args.paper_scale, timeout=args.timeout)
    if args.csv is not None:
        write_csv(rows, args.csv)
        print(f"raw rows written to {args.csv}")
    value_field = "total_ms"
    series = aggregate_series(rows, value_field=value_field)
    if series:
        print(format_figure(series, title=f"experiment {args.name}",
                            value_field="mean"))
    else:
        print(format_table(rows, title=f"experiment {args.name} (raw rows)"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "embed":
        return _run_embed(args)
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "plan":
        return _run_plan(args)
    if args.command == "churn":
        return _run_churn(args)
    if args.command == "loadtest":
        return _run_loadtest(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "recover":
        return _run_recover(args)
    if args.command == "list-algorithms":
        return _run_list_algorithms(args)
    if args.command == "generate":
        return _run_generate(args)
    if args.command == "partition":
        return _run_partition(args)
    if args.command == "experiment":
        return _run_experiment(args)
    parser.error(f"unknown command {args.command!r}")   # pragma: no cover
    return 2


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
