"""The four workloads, each a set-up step plus a timed run.

Every workload drives the public API only: ``NetEmbedService.submit`` on
the library path, and ``EmbeddingServer`` with ``AsyncNetEmbedClient`` on
the server's default ``ServerConfig`` (2 engine workers, queue depth 64) on
the serving path.  The scene is a fixed dataset and the traffic over it
comes from the seed; see ``README.md`` for why each workload exists and
which layers it is meant to load.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import compile_hosting
from repro.harness import ScenarioConfig, build_scene, build_trace, replay_open_loop
from repro.harness.driver import NETWORK_NAME
from repro.server import AsyncNetEmbedClient, EmbeddingServer, ServerConfig, ServiceRegistry
from repro.service import NetEmbedService, QuerySpec
from repro.utils.rng import as_rng
from repro.workloads import SuiteScale, build_subgraph_suite, planetlab_host
from repro.workloads.churn import ChurnProcess

from checks import MappingChecker, decode_assignment, host_lookup, stream_digest

#: Set-up is repeated this many times per run and its median reported, so a
#: single slow build does not decide ``setup_s``.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    hosting_nodes: int
    cold_sizes: Tuple[int, ...]
    serve_queries: int
    serve_size: int
    steady_rate: float
    churn_capacity: float = 4.0


#: The serving scene has an odd number of queries.  Requests cycle through
#: them evenly, so with eight the median fell exactly between the fourth
#: and fifth cheapest query, and serve-steady's p50 jumped between their
#: latencies (4.1-7.1 ms over ten seeds); with seven it sits inside one.
#: serve-steady offers 30 req/s: at 60 req/s two requests overlapped often
#: enough that the engine threads' contention for the interpreter lock
#: decided the tail (p90 14.5-18.1 ms over three runs of one seed, against
#: 14.5-15.4 ms at 30 req/s).
FULL = Scale(hosting_nodes=296, cold_sizes=(8, 12, 16, 20, 24),
             serve_queries=7, serve_size=8, steady_rate=30.0)
TINY = Scale(hosting_nodes=24, cold_sizes=(4, 5, 6), serve_queries=3,
             serve_size=4, steady_rate=20.0)

#: ecf-cold: the PlanetLab-296 full-enumeration suite (±10 % windows).
COLD_SLACK = 0.10
#: The hosting network and the queries are a fixed dataset, as the paper's
#: PlanetLab trace is; ``--seed`` varies the traffic over it (query order
#: and arrival times).  Drawing a new scene per seed moved
#: serve-saturate's throughput between 12.8 and 26.9 req/s over seeds 1-5,
#: far beyond any regression bound.  ecf-cold runs bench_perf_core.py's
#: PlanetLab-296 suite (its default seed, 8); the serving workloads run the
#: harness scene of seed 1, and its churn ticks are drawn from seed 3 (the
#: harness draws churn from scene seed + 2).
COLD_DATASET_SEED, SERVE_DATASET_SEED, CHURN_DATASET_SEED = 8, 1, 3
#: serve-steady / serve-churn: ±30 % windows, 16 results per answer.
STEADY_SLACK, STEADY_RESULTS = 0.30, 16
#: serve-saturate: ±10 % windows, 256 results per answer, 2 callers.
SATURATE_SLACK, SATURATE_RESULTS, SATURATE_CALLERS = 0.10, 256, 2
#: serve-churn: every RESERVE_EVERY-th request reserves capacity, released
#: RELEASE_AFTER requests later; a churn tick runs after every TICK_BLOCKS
#: shuffled blocks of the queries (56 requests on the full scene).  A tick
#: period is then a multiple of RESERVE_EVERY, so every period holds the same
#: writes, and the slow requests right after a tick are one whole block,
#: each query once, whatever the seed.  The run is whole tick periods.
RESERVE_EVERY, RELEASE_AFTER, TICK_BLOCKS = 4, 8, 8
#: serve-churn's resident set grows with every tick period (by about 15 MB
#: each on the full scene), so a peak taken at the end of the run would
#: depend on how many periods the machine's speed fitted into the timed
#: seconds.  Its ``peak_rss_mb`` is taken after this many tick periods.
RSS_TICK_PERIODS = 4
#: Per-request deadline on the serving path (seconds); never reached.
DEADLINE = 30.0


@dataclass
class Run:
    """What one timed run produced, before it is turned into metrics."""

    setup_seconds: List[float]
    checker: MappingChecker = field(default_factory=MappingChecker)
    attempted: int = 0
    served: int = 0
    shed: int = 0
    errors: int = 0
    timed_out: int = 0
    #: Per served request, from its (scheduled, for open loop) send time.
    latencies: List[float] = field(default_factory=list)
    #: Timed seconds that throughput divides by, in the clock's seconds
    #: (reference seconds in an untraced run; see ``speed.py``).
    measured_seconds: float = 0.0
    #: The same timed region in wall-clock seconds.
    wall_seconds: float = 0.0
    #: Seconds the workload's callers spent inside requests and writes,
    #: summed over callers (what the layer self times must add up to).
    busy_seconds: float = 0.0
    #: perf_counter bounds of the timed region (filters traced spans).
    window: Tuple[float, float] = (0.0, 0.0)
    queue_waits: List[float] = field(default_factory=list)
    slips: List[float] = field(default_factory=list)
    plan_stats: Dict[str, int] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    #: Peak resident set (MB) at the end of the run, or earlier for
    #: serve-churn (see ``RSS_TICK_PERIODS``).
    peak_rss_mb: Optional[float] = None

    def mark_peak_rss(self) -> None:
        if self.peak_rss_mb is None:
            self.peak_rss_mb = peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setups(build: Callable[[], object], clock):
    """Run *build* SETUP_REPEATS times; keep the last scene and all times."""
    times: List[float] = []
    scene = None
    for _ in range(SETUP_REPEATS):
        scene = None
        gc.collect()
        started = time.perf_counter()
        scene = build()
        times.append(clock.seconds(started, time.perf_counter()))
    return scene, times


PLAN_COUNTERS = ("hits", "misses", "invalidations", "patched", "recompiled")


def _plan_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in PLAN_COUNTERS}


def shuffled_blocks(rng, count: int) -> Iterator[int]:
    """Indices ``0..count-1`` in a fresh seeded shuffle, block after block:
    the order is random, the mix balanced."""
    while True:
        block = list(range(count))
        rng.shuffle(block)
        yield from block


# --------------------------------------------------------------------------- #
# ecf-cold
# --------------------------------------------------------------------------- #

def ecf_cold(seed: int, seconds: float, scale: Scale, tracer, clock) -> Run:
    """Closed loop, one caller, full enumeration of the PlanetLab suite.

    Every ``submit`` goes to a fresh service over the same registered model,
    so it misses the plan cache while the hosting compile stays warm.  An
    untimed warm-up pass in suite order comes first; the timed run is then
    whole passes over the suite, each in a seeded order, repeated until the
    timed wall-clock seconds are used up.
    """

    def build():
        rng = as_rng(COLD_DATASET_SEED)
        hosting = planetlab_host(scale.hosting_nodes, rng=rng)
        suite = build_subgraph_suite(
            hosting, SuiteScale(hosting_nodes=scale.hosting_nodes,
                                query_sizes=scale.cold_sizes,
                                queries_per_size=2),
            slack=COLD_SLACK, rng=rng)
        compile_hosting(hosting)
        return hosting, suite, fresh_service(hosting)

    def fresh_service(hosting) -> NetEmbedService:
        service = NetEmbedService()
        service.register_network(hosting, name="planetlab")
        return service

    (hosting, suite, service), setup_times = _timed_setups(build, clock)
    service.shutdown()
    run = Run(setup_seconds=setup_times)
    order_rng = as_rng(seed)
    digests: Dict[int, str] = {}
    latencies: Dict[int, List[float]] = {}
    stats_total = {key: 0 for key in PLAN_COUNTERS}

    def submit(index: int, timed: bool):
        """One request on a fresh service, checked; a timed one is counted."""
        # The last request's service holds its plan in reference cycles;
        # collecting them here, untimed, keeps one plan resident at a time
        # and keeps the collector's pauses out of the timed requests.
        gc.collect()
        service = fresh_service(hosting)
        workload = suite[index]
        spec = QuerySpec(query=workload.query,
                         constraint=workload.constraint, algorithm="ECF")
        stats_before = service.plans.stats()
        tracer.recording = timed
        started = time.perf_counter()
        response = service.submit(spec)
        ended = time.perf_counter()
        tracer.recording = False
        elapsed = clock.seconds(started, ended)
        if timed:
            run.measured_seconds += elapsed
            run.wall_seconds += ended - started
            run.attempted += 1
            for key, value in _plan_delta(stats_before,
                                          service.plans.stats()).items():
                stats_total[key] += value
        _check_cold_answer(run, response, elapsed if timed else None, index,
                           workload, hosting, digests, latencies)
        service.shutdown()

    # Warm-up: the first pass pays for allocating the process's memory and
    # for validating every stream (checks reuse verdicts afterwards); both
    # would otherwise make runs with fewer passes read slower.
    for index in range(len(suite)):
        submit(index, timed=False)
    passes = 0
    run.window = (time.perf_counter(), 0.0)
    while run.wall_seconds < seconds:
        order = list(range(len(suite)))
        order_rng.shuffle(order)
        for index in order:
            submit(index, timed=True)
        passes += 1
    run.window = (run.window[0], time.perf_counter())
    run.busy_seconds = run.measured_seconds
    run.plan_stats = stats_total
    # Latency percentiles are taken over the suite's queries, each at its
    # median over the passes.  Over all requests, with an even suite, the
    # nearest-rank p50 and p90 are each the slowest of one query's samples,
    # so a single slow pass would move them.
    run.latencies = [statistics.median(samples)
                     for samples in latencies.values()]
    for index, workload in enumerate(suite):
        run.lines.append(f"ecf-cold query {index} size {workload.num_nodes} "
                         f"mappings {digests[index][0]} "
                         f"digest {digests[index][1]}")
    run.lines.append(f"ecf-cold passes {passes} after one warm-up pass")
    run.mark_peak_rss()
    return run


def _check_cold_answer(run: Run, response, elapsed: Optional[float],
                       index: int, workload, hosting, digests: Dict,
                       latencies: Dict[int, List[float]]) -> None:
    """A complete, non-empty, valid enumeration, the same in every pass.

    A stream whose digest matches the first pass's is the stream already
    validated, so each distinct stream is validated once.  An answer with
    no *elapsed* is a warm-up answer: checked, but not counted.
    """
    label = f"ecf-cold query {index} (size {workload.num_nodes})"
    if response.status.value != "complete":
        if elapsed is not None:
            run.timed_out += 1
        run.checker.fail(f"{label}: status {response.status.value}, "
                         f"expected a complete enumeration")
        return
    if elapsed is not None:
        run.served += 1
        latencies.setdefault(index, []).append(elapsed)
    assignments = [m.as_dict() for m in response.mappings]
    seen = (len(assignments), stream_digest(assignments))
    if index in digests:
        if digests[index] != seen:
            run.checker.fail(f"{label}: stream {seen} differs from the first "
                             f"pass's {digests[index]}")
        return
    digests[index] = seen
    if not assignments:
        run.checker.fail(f"{label}: no mapping, but the query is feasible "
                         f"by construction")
    for assignment in assignments:
        if not run.checker.check(assignment, workload.query, hosting,
                                 workload.constraint, label):
            break


# --------------------------------------------------------------------------- #
# The serving workloads
# --------------------------------------------------------------------------- #

def _serve_config(name: str, rate: float, seconds: float, scale: Scale,
                  slack: float, max_results: int,
                  capacity: Optional[float] = None) -> ScenarioConfig:
    defaults = ServerConfig()
    return ScenarioConfig(
        name=name, rate=rate, horizon=seconds,
        hosting_nodes=scale.hosting_nodes, num_workloads=scale.serve_queries,
        query_size=scale.serve_size, slack=slack, max_results=max_results,
        engine_workers=defaults.engine_workers,
        queue_depth=defaults.admission.max_queue_depth,
        deadline=DEADLINE, capacity=capacity)


def _serve_setup(config: ScenarioConfig, clock):
    """Scene, registration, hosting compile and a warm plan per query."""

    def build():
        hosting, workloads = build_scene(config, SERVE_DATASET_SEED)
        registry = ServiceRegistry(ServerConfig())
        registry.service.register_network(hosting, name=NETWORK_NAME)
        compile_hosting(hosting)
        for workload in workloads:
            registry.service.prepare(QuerySpec(
                query=workload.query, constraint=workload.constraint,
                algorithm="ECF", max_results=config.max_results))
        return hosting, workloads, registry

    return _timed_setups(build, clock)


def _record_answer(run: Run, response: Dict, max_results: int,
                   latency: float) -> None:
    """Classify one answer: served, shed, error or timed out."""
    run.attempted += 1
    kind = response.get("kind")
    if kind == "shed":
        run.shed += 1
        return
    if kind != "result":
        run.errors += 1
        return
    status = response.get("status")
    found = len(response.get("mappings") or ())
    if status == "inconclusive" or (status == "partial" and found < max_results):
        run.timed_out += 1
        return
    run.served += 1
    run.latencies.append(latency)
    if response.get("queue_seconds") is not None:
        run.queue_waits.append(response["queue_seconds"])


def _check_answers(run: Run, answers, workloads, registry, hosting,
                   max_results: int, compare_stream: bool) -> None:
    """Validate every returned mapping against the (unchanged) model.

    With *compare_stream*, each answer must also equal, mapping for mapping,
    what a direct ``NetEmbedService.submit`` of the same spec returns.
    """
    hosts = host_lookup(hosting)
    expected: Dict[int, List[Dict]] = {}
    for index, response in answers:
        if response.get("kind") != "result":
            continue
        workload = workloads[index]
        query_nodes = {str(n): n for n in workload.query.nodes()}
        label = f"answer for query {index}"
        payloads = response.get("mappings") or []
        for payload in payloads:
            if not run.checker.check(decode_assignment(payload, hosts, query_nodes),
                                     workload.query, hosting,
                                     workload.constraint, label):
                break
        if compare_stream:
            if index not in expected:
                direct = registry.service.submit(QuerySpec(
                    query=workload.query, constraint=workload.constraint,
                    algorithm="ECF", max_results=max_results))
                expected[index] = [{str(q): str(r) for q, r in m.items()}
                                   for m in direct.mappings]
            if payloads != expected[index]:
                run.checker.fail(f"{label}: served stream differs from a "
                                 f"direct submit of the same spec")


def _check_accounting(run: Run, metrics: Dict) -> None:
    accounted = run.served + run.shed + run.errors + run.timed_out
    if accounted != run.attempted:
        run.checker.fail(f"accounting: attempted {run.attempted} != served "
                         f"+ shed + errors + timed out ({accounted})")
    admission = metrics.get("admission", {})
    offered, admitted = admission.get("offered"), admission.get("admitted")
    shed_total = admission.get("shed_total")
    if None not in (offered, admitted, shed_total) and offered != admitted + shed_total:
        run.checker.fail(f"server accounting: offered {offered} != admitted "
                         f"{admitted} + shed {shed_total}")


def serve_steady(seed: int, seconds: float, scale: Scale, tracer, clock) -> Run:
    """Open loop: seeded Poisson arrivals below capacity, one connection.

    The harness times the requests, so set-up time is in the clock's
    seconds but latencies and throughput are wall-clock figures.
    """
    config = _serve_config("serve-steady", scale.steady_rate, seconds, scale,
                           STEADY_SLACK, STEADY_RESULTS)
    (hosting, workloads, registry), setup_times = _serve_setup(config, clock)
    run = Run(setup_seconds=setup_times)
    trace = build_trace(config, seed, workloads=workloads)
    stats_before = registry.plans.stats()
    started = time.perf_counter()
    tracer.recording = True
    replay = asyncio.run(replay_open_loop(trace, workloads, registry, config,
                                          hosting=hosting, seed=seed))
    tracer.recording = False
    run.mark_peak_rss()
    run.window = (started, started + replay.wall_seconds)
    run.plan_stats = _plan_delta(stats_before, registry.plans.stats())
    run.measured_seconds = run.wall_seconds = replay.wall_seconds
    for outcome in replay.outcomes:
        _record_answer(run, outcome.response, config.max_results,
                       outcome.latency_seconds)
        run.slips.append(outcome.slip_seconds)
        run.busy_seconds += outcome.done_offset - outcome.send_offset
    if run.attempted != len(trace.arrivals):
        run.checker.fail(f"{len(trace.arrivals)} arrivals scheduled but "
                         f"{run.attempted} answered")
    _check_answers(run, [(o.workload, o.response) for o in replay.outcomes],
                   workloads, registry, hosting, config.max_results,
                   compare_stream=True)
    _check_accounting(run, replay.metrics)
    registry.service.shutdown()
    return run


async def _closed_loop(registry, workloads, run: Run, seconds: float,
                       seed: int, callers: int, max_results: int, tracer,
                       clock, cycle: int, writes: Optional[Callable] = None,
                       after_answer: Optional[Callable] = None,
                       rss_after: Optional[int] = None):
    """*callers* connections, each sending its next request on an answer.

    Each caller stops once its timed wall-clock seconds are used up and its
    request count is a whole number of *cycle*\ s, so every run is made of
    the same repeating mix whatever the machine's speed.  With *writes*, the
    (single) caller runs ``writes(step, response)`` between requests inside
    the timed region; *after_answer* runs outside it.  The peak resident set
    is taken after *rss_after* requests of a caller, if given.  Returns the
    answers and the server's metrics document.
    """
    answers: List[Tuple[int, Dict]] = []
    async with EmbeddingServer(registry) as server:
        clients = [await AsyncNetEmbedClient.connect(server.host, server.port)
                   for _ in range(callers)]
        try:
            async def caller(number: int, client) -> None:
                indices = shuffled_blocks(as_rng(seed * 1000 + number),
                                          len(workloads))
                step = 0
                timed = wall = 0.0
                while wall < seconds or step % cycle:
                    index = next(indices)
                    workload = workloads[index]
                    reserve = writes is not None and step % RESERVE_EVERY == RESERVE_EVERY - 1
                    started = time.perf_counter()
                    response = await client.embed(
                        workload.query, constraint=workload.constraint,
                        algorithm="ECF", max_results=max_results,
                        deadline=DEADLINE, reserve=reserve)
                    ended = time.perf_counter()
                    latency = clock.seconds(started, ended)
                    _record_answer(run, response, max_results, latency)
                    answers.append((index, response))
                    timed += latency
                    wall += ended - started
                    if after_answer is not None:
                        recording, tracer.recording = tracer.recording, False
                        after_answer(index, response)
                        tracer.recording = recording
                    if writes is not None:
                        started = time.perf_counter()
                        writes(step, response)
                        ended = time.perf_counter()
                        timed += clock.seconds(started, ended)
                        wall += ended - started
                    step += 1
                    if step == rss_after:
                        run.mark_peak_rss()
                run.busy_seconds += timed
                run.measured_seconds = max(run.measured_seconds, timed)
                run.wall_seconds = max(run.wall_seconds, wall)

            started = time.perf_counter()
            tracer.recording = True
            await asyncio.gather(*(caller(n, c) for n, c in enumerate(clients)))
            tracer.recording = False
            run.window = (started, time.perf_counter())
            metrics = await clients[0].metrics()
        finally:
            for client in clients:
                await client.close()
    return answers, metrics


def serve_saturate(seed: int, seconds: float, scale: Scale, tracer, clock) -> Run:
    """Closed loop, two callers on two connections, CPU-bound answers."""
    config = _serve_config("serve-saturate", scale.steady_rate, seconds, scale,
                           SATURATE_SLACK, SATURATE_RESULTS)
    (hosting, workloads, registry), setup_times = _serve_setup(config, clock)
    run = Run(setup_seconds=setup_times)
    stats_before = registry.plans.stats()
    answers, metrics = asyncio.run(_closed_loop(
        registry, workloads, run, seconds, seed, SATURATE_CALLERS,
        config.max_results, tracer, clock, cycle=len(workloads)))
    run.mark_peak_rss()
    run.plan_stats = _plan_delta(stats_before, registry.plans.stats())
    _check_answers(run, answers, workloads, registry, hosting,
                   config.max_results, compare_stream=True)
    _check_accounting(run, metrics)
    registry.service.shutdown()
    return run


def serve_churn(seed: int, seconds: float, scale: Scale, tracer, clock) -> Run:
    """serve-steady's scene in a closed loop, plus reservations and churn."""
    config = _serve_config("serve-churn", scale.steady_rate, seconds, scale,
                           STEADY_SLACK, STEADY_RESULTS,
                           capacity=scale.churn_capacity)
    (hosting, workloads, registry), setup_times = _serve_setup(config, clock)
    run = Run(setup_seconds=setup_times)
    churn = ChurnProcess(hosting, rng=as_rng(CHURN_DATASET_SEED))
    hosts = host_lookup(hosting)
    releases: Dict[int, List[str]] = {}
    tick_every = TICK_BLOCKS * len(workloads)
    ticks = 0

    def validate(index: int, response: Dict) -> None:
        # The model is the one the answer was computed on: writes happen
        # only between this caller's requests.
        if response.get("kind") != "result":
            return
        workload = workloads[index]
        query_nodes = {str(n): n for n in workload.query.nodes()}
        for payload in response.get("mappings") or []:
            if not run.checker.check(decode_assignment(payload, hosts, query_nodes),
                                     workload.query, hosting,
                                     workload.constraint, f"answer for query {index}"):
                break

    def writes(step: int, response: Dict) -> None:
        nonlocal ticks
        reservation = response.get("reservation_id")
        if reservation is not None:
            releases.setdefault(step + RELEASE_AFTER, []).append(reservation)
        for reservation in releases.pop(step, ()):
            registry.service.release(reservation)
        if step % tick_every == tick_every - 1:
            churn.tick()
            registry.models.touch(NETWORK_NAME)
            ticks += 1

    stats_before = registry.plans.stats()
    _, metrics = asyncio.run(_closed_loop(
        registry, workloads, run, seconds, seed, 1, config.max_results,
        tracer, clock, cycle=tick_every, writes=writes, after_answer=validate,
        rss_after=RSS_TICK_PERIODS * tick_every))
    run.mark_peak_rss()
    run.plan_stats = _plan_delta(stats_before, registry.plans.stats())
    _check_accounting(run, metrics)
    run.lines.append(f"serve-churn churn ticks {ticks} "
                     f"reservations open at end "
                     f"{sum(len(ids) for ids in releases.values())}")
    registry.service.shutdown()
    return run


WORKLOADS = {
    "ecf-cold": ecf_cold,
    "serve-steady": serve_steady,
    "serve-saturate": serve_saturate,
    "serve-churn": serve_churn,
}
