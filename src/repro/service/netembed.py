"""The NETEMBED service facade (§III component 2).

:class:`NetEmbedService` ties the pieces together: the network model registry
(fed by monitors), the algorithm registry and its selection policy, the
version-aware plan cache (compiled :class:`~repro.core.plan.EmbeddingPlan`
artifacts reused across requests hitting the same model version), the
timeout / result classification policy, and the optional reservation system.
Applications interact with it through :class:`~repro.service.spec.QuerySpec`
/ :class:`~repro.service.spec.EmbeddingResponse`, the convenience
:meth:`NetEmbedService.embed` keyword interface, the streaming
:meth:`NetEmbedService.stream`, or — for many queries at once —
:meth:`NetEmbedService.submit_batch`, which fans specs out over a reusable
thread pool with independent per-request deadlines.

Algorithm auto-selection is delegated to a pluggable
:class:`~repro.api.selection.SelectionPolicy`; the default
:class:`~repro.api.selection.PaperSelectionPolicy` encodes the paper's own
guidance (§VII-E, §VIII) over the capabilities algorithms declare in the
:mod:`repro.api` registry, instead of an isinstance/if-chain.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Iterable, Iterator, List, Optional, Union

import repro.baselines  # noqa: F401 — registers the baselines for by-name use
from repro import faults
from repro.api.registry import AlgorithmInfo, AlgorithmRegistry, Capability, default_registry
from repro.api.request import SearchRequest
from repro.api.selection import PaperSelectionPolicy, SelectionPolicy
from repro.constraints import ConstraintExpression
from repro.core import EmbeddingAlgorithm
from repro.core.mapping import Mapping
from repro.core.plan import EmbeddingPlan, PlanCache, PlanInvalidatedError
from repro.core.repair import repair_mapping
from repro.graphs.graphml import read_graphml
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork
from repro.service.model import NetworkModelRegistry
from repro.service.monitor import MonitorConfig, SimulatedMonitor
from repro.service.reservation import ReservationError, ReservationManager
from repro.service.spec import EmbeddingResponse, QuerySpec, RepairResponse
from repro.utils.rng import RandomSource
from repro.utils.timing import Deadline, TimeoutExpired


class NetEmbedService:
    """A complete, in-process NETEMBED service instance.

    Parameters
    ----------
    default_timeout:
        Timeout (seconds) applied to queries that do not set their own; the
        paper's service always bounds searches so it can classify results as
        complete / partial / inconclusive.
    rng:
        Randomness source handed to seedable algorithms created by the
        service when a spec carries no per-request seed.
    selection_policy:
        How ``algorithm="auto"`` requests pick an algorithm; defaults to
        :class:`~repro.api.selection.PaperSelectionPolicy`.
    algorithms:
        The algorithm registry to resolve names against; defaults to the
        process-wide registry with all seven built-in algorithms.
    max_workers:
        Thread-pool size for :meth:`submit_batch` (``None`` = the
        :class:`~concurrent.futures.ThreadPoolExecutor` default).  The pool
        is created lazily on the first batch and reused afterwards.
    plan_cache_size:
        Capacity of the LRU :class:`~repro.core.plan.PlanCache` that
        :meth:`embed`/:meth:`submit`/:meth:`submit_batch`/:meth:`stream`
        route preparable algorithms through, keyed by (network name, model
        version, algorithm signature, request fingerprint).  Repeated
        queries against an unchanged model skip the whole compile stage; a
        monitor refresh (version bump) or any network mutation invalidates
        the affected plans automatically.
    """

    def __init__(self, default_timeout: float = 30.0, rng: RandomSource = None,
                 selection_policy: Optional[SelectionPolicy] = None,
                 algorithms: Optional[AlgorithmRegistry] = None,
                 max_workers: Optional[int] = None,
                 plan_cache_size: int = 128) -> None:
        if default_timeout <= 0:
            raise ValueError(f"default_timeout must be positive, got {default_timeout}")
        self.registry = NetworkModelRegistry()
        self.reservations = ReservationManager()
        self.algorithms = algorithms if algorithms is not None else default_registry()
        self.selection_policy = (selection_policy if selection_policy is not None
                                 else PaperSelectionPolicy())
        self.plans = PlanCache(capacity=plan_cache_size)
        self._default_timeout = default_timeout
        self._rng = rng
        self._monitors: Dict[str, SimulatedMonitor] = {}
        self._max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        #: Default-configured instance per algorithm name, shared by the plan
        #: path (prepared artifacts are config- and seed-independent, and the
        #: search stage keeps all mutable state per run) — avoids building a
        #: throwaway instance on every warm-cache submit.
        self._plan_algorithms: Dict[str, EmbeddingAlgorithm] = {}

    # ------------------------------------------------------------------ #
    # Model management
    # ------------------------------------------------------------------ #

    def register_network(self, network: HostingNetwork, name: Optional[str] = None,
                         description: str = "", default: bool = False) -> str:
        """Register a hosting network model; returns the name it is stored under."""
        return self.registry.register(network, name=name, description=description,
                                      default=default)

    def register_network_from_graphml(self, path, name: Optional[str] = None,
                                      default: bool = False) -> str:
        """Load a hosting network from a GraphML file and register it."""
        network = read_graphml(path, cls=HostingNetwork, name=name)
        return self.register_network(network, name=name, default=default)

    def attach_monitor(self, network_name: Optional[str] = None,
                       config: Optional[MonitorConfig] = None,
                       rng: RandomSource = None) -> SimulatedMonitor:
        """Attach a simulated monitoring service to a registered network."""
        key = network_name or self.registry.default_name
        if key is None:
            raise ValueError("no hosting network registered yet")
        monitor = SimulatedMonitor(self.registry, network_name=key, config=config,
                                   rng=rng if rng is not None else self._rng)
        self._monitors[key] = monitor
        return monitor

    def monitor(self, network_name: Optional[str] = None) -> Optional[SimulatedMonitor]:
        """The monitor attached to a network, if any."""
        key = network_name or self.registry.default_name
        return self._monitors.get(key) if key else None

    def attach_wal(self, path, recover: bool = True,
                   fsync_batch: int = 1) -> Dict[str, object]:
        """Journal reservations to a WAL at *path*, replaying it first.

        When *recover* is true and the file already holds records, the
        ledger is rebuilt from them (the referenced hosting networks must
        already be registered) before journalling resumes — this is the
        server-startup replay path.  Returns the recovery report:
        ``{"path", "records", "applied", "active", "skipped"}`` (zeros for
        a fresh log).
        """
        from pathlib import Path

        from repro.service.wal import ReservationWAL

        report: Dict[str, object] = {
            "path": str(path), "records": 0,
            "applied": {"reserve": 0, "rebind": 0, "release": 0},
            "active": 0, "skipped": 0,
        }
        wal_path = Path(path)
        if recover and wal_path.exists() and wal_path.stat().st_size > 0:
            records, skipped = ReservationWAL.read(wal_path)
            replay = self.reservations.replay(records, self.registry.get)
            report.update(replay)
            report["skipped"] = skipped
        self.reservations.attach_wal(
            ReservationWAL(wal_path, fsync_batch=fsync_batch))
        return report

    # ------------------------------------------------------------------ #
    # Embedding
    # ------------------------------------------------------------------ #

    def submit(self, spec: QuerySpec) -> EmbeddingResponse:
        """Process a full :class:`QuerySpec` and return the response.

        Preparable algorithms (ECF/RWB/LNS) route through the plan cache:
        the compiled plan for this (network version, query, constraints) is
        fetched or built, then executed under the spec's own budget — a warm
        hit skips filter construction entirely.  Per-request seeds still
        apply; they are threaded into the execute stage, not baked into the
        cached plan.
        """
        faults.fire("service.submit")
        network_name, hosting, version = self._resolve_network(spec.network)
        info = self._algorithm_info(spec, hosting)
        request = spec.to_request(hosting, default_timeout=self._default_timeout)

        plan = (self._cached_plan(network_name, version, info, request)
                if spec.cache else None)
        result = None
        if plan is not None:
            try:
                result = plan.execute(budget=request.budget,
                                      rng=self._execution_rng(info, spec))
                algorithm_used = plan.algorithm.name
            except PlanInvalidatedError:
                # A monitor tick landed between the cache fetch and the
                # execute; degrade to the one-shot path against the live
                # model instead of surfacing the internal staleness signal.
                plan = None
        if plan is None:
            algorithm = self._instantiate(info, spec)
            result = algorithm.request(request)
            algorithm_used = algorithm.name

        reservation_id = None
        if spec.reserve and result.found:
            # The ticket carries the embedding problem (coerced constraint
            # objects from the request), so it can be re-validated and
            # repaired against the drifting model later.
            reservation = self.reservations.reserve(
                hosting, network_name, result.first,
                query=spec.query, constraint=request.constraint,
                node_constraint=request.node_constraint)
            reservation_id = reservation.reservation_id

        return EmbeddingResponse(
            spec=spec,
            result=result,
            network_name=network_name,
            algorithm_used=algorithm_used,
            reservation_id=reservation_id,
        )

    def prepare(self, spec: QuerySpec) -> EmbeddingPlan:
        """Compile (or fetch from the plan cache) the plan for *spec*.

        Lets callers warm the cache ahead of traffic, or hold a plan and
        drive :meth:`~repro.core.plan.EmbeddingPlan.execute` themselves with
        per-run budgets.  Algorithms without a separable prepare stage still
        return a working plan — it just re-runs the full search per execute
        and is not cached.  A spec carrying a seed gets a private plan bound
        to a seeded instance (not cached — cached plans are seed-agnostic;
        their per-request seeds arrive via ``execute(rng=...)``), so
        ``prepare(spec).execute()`` reproduces ``submit(spec)``.
        """
        network_name, hosting, version = self._resolve_network(spec.network)
        info = self._algorithm_info(spec, hosting)
        request = spec.to_request(hosting, default_timeout=self._default_timeout)
        if spec.seed is None or not info.has(Capability.SEEDABLE):
            plan = self._cached_plan(network_name, version, info, request,
                                     bounded=False)
            if plan is not None:
                return plan
        return self._instantiate(info, spec).prepare(request)

    def embed(self, query: QueryNetwork,
              constraint: Optional[Union[str, ConstraintExpression]] = None,
              node_constraint: Optional[Union[str, ConstraintExpression]] = None,
              algorithm: str = "auto", timeout: Optional[float] = None,
              max_results: Optional[int] = None, network: Optional[str] = None,
              reserve: bool = False, seed: Optional[int] = None) -> EmbeddingResponse:
        """Keyword-style convenience wrapper around :meth:`submit`."""
        spec = QuerySpec(query=query, constraint=constraint,
                         node_constraint=node_constraint, algorithm=algorithm,
                         timeout=timeout, max_results=max_results,
                         network=network, reserve=reserve, seed=seed)
        return self.submit(spec)

    def stream(self, spec: QuerySpec, buffer_size: int = 1) -> Iterator[Mapping]:
        """Lazily yield the embeddings for *spec* as the search finds them.

        Unlike :meth:`submit` this never materialises the full result list;
        closing the generator aborts the underlying search.  Reservations are
        not supported in streaming mode (there is no "final" result to
        reserve against).
        """
        if spec.reserve:
            raise ValueError("streaming does not support reserve=True; "
                             "use submit() and reserve the response instead")
        network_name, hosting, version = self._resolve_network(spec.network)
        info = self._algorithm_info(spec, hosting)
        request = spec.to_request(hosting, default_timeout=self._default_timeout)
        plan = (self._cached_plan(network_name, version, info, request)
                if spec.cache else None)
        if plan is not None:
            return self._stream_plan_with_fallback(plan, request, info, spec,
                                                   buffer_size)
        algorithm = self._instantiate(info, spec)
        return algorithm.stream(request, buffer_size=buffer_size)

    def _stream_plan_with_fallback(self, plan: EmbeddingPlan,
                                   request: SearchRequest, info: AlgorithmInfo,
                                   spec: QuerySpec, buffer_size: int
                                   ) -> Iterator[Mapping]:
        """Stream from *plan*, degrading to the one-shot path on staleness.

        The staleness check runs when the lazily-started search begins, which
        may be long after the generator was created — a monitor tick in that
        window must not surface :class:`PlanInvalidatedError` to the
        consumer.  The check fires before any mapping is produced, so the
        fallback never duplicates output.
        """
        try:
            yield from plan.stream(budget=request.budget,
                                   buffer_size=buffer_size,
                                   rng=self._execution_rng(info, spec))
            return
        except PlanInvalidatedError:
            pass    # raced a mutation: stream one-shot against the live model
        algorithm = self._instantiate(info, spec)
        yield from algorithm.stream(request, buffer_size=buffer_size)

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #

    def submit_batch(self, specs: Iterable[QuerySpec],
                     return_exceptions: bool = False
                     ) -> List[Union[EmbeddingResponse, BaseException]]:
        """Process many specs concurrently; responses come back in input order.

        Each spec keeps its own deadline (its ``timeout`` or the service
        default, counted from when its search *starts*), so one
        slow or infeasible request cannot eat the budget of the others.

        Parameters
        ----------
        specs:
            The query specs to process.
        return_exceptions:
            ``False`` (default): the first failing spec re-raises after all
            submitted work finishes.  ``True``: failures are returned in
            their spec's slot instead (like ``asyncio.gather``), so one bad
            spec — e.g. naming an unregistered network — cannot void the
            whole batch.
        """
        specs = list(specs)
        futures: List[Future] = [self._ensure_executor().submit(self.submit, spec)
                                 for spec in specs]
        results: List[Union[EmbeddingResponse, BaseException]] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:        # noqa: BLE001 — collected per-slot
                if not return_exceptions and first_error is None:
                    first_error = exc
                results.append(exc)
        if first_error is not None and not return_exceptions:
            raise first_error
        return results

    @property
    def executor(self) -> Optional[ThreadPoolExecutor]:
        """The batch thread pool, if one has been created yet."""
        return self._executor

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="netembed-batch")
            return self._executor

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the batch thread pool and close the WAL, if any."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
        wal = self.reservations.wal
        if wal is not None:
            wal.close()

    def __enter__(self) -> "NetEmbedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """One JSON-serialisable snapshot of every service-level counter.

        Folds together the statistics that previously had to be collected
        from four places — the plan cache, the reservation ledger, each
        registered model's mutation journal, and the batch thread pool — so a
        metrics endpoint (or ``repro plan --json``) can serve a single
        consistent document.  Values are plain ints/strings/bools; the
        snapshot never holds references into live service state.
        """
        networks = {}
        for name in self.registry.names():
            entry = self.registry.entry(name)
            network = entry.network
            journal = network.mutation_journal
            monitor = self._monitors.get(name)
            networks[name] = {
                "version": entry.version,
                "nodes": network.num_nodes,
                "edges": network.num_edges,
                "mutation_epoch": network.mutation_count,
                "journal": {
                    "entries": len(journal),
                    "capacity": journal.capacity,
                    "floor_epoch": journal.floor_epoch,
                },
                "monitor_ticks": monitor.ticks if monitor is not None else None,
            }
        executor = self._executor
        wal = self.reservations.wal
        injector = faults.active()
        return {
            "default_timeout": self._default_timeout,
            "plan_cache": self.plans.stats(),
            "reservations": self.reservations.stats(),
            "networks": networks,
            "pools": {
                "batch_threads": {
                    "created": executor is not None,
                    "max_workers": getattr(executor, "_max_workers", None),
                },
            },
            "wal": ({"path": str(wal.path), "fsync_batch": wal.fsync_batch}
                    if wal is not None else None),
            "faults": injector.stats() if injector is not None else None,
        }

    # ------------------------------------------------------------------ #

    def release(self, reservation_id: str) -> None:
        """Release a reservation made by an earlier embed(reserve=True) call."""
        reservation = self.reservations.get(reservation_id)
        network = self.registry.get(reservation.network_name)
        self.reservations.release(reservation_id, network)

    def repair(self, reservation_id: str,
               timeout: Optional[float] = None) -> RepairResponse:
        """Re-validate a reserved embedding and heal it against the live model.

        The self-healing counterpart to monitor churn: the reservation's
        mapping is checked against the *current* network attributes, and if
        anything broke — a link left its delay window, a host went down or
        failed the node constraint — only the violated assignments are
        released and re-placed by the LNS-style local search of
        :mod:`repro.core.repair`, with every still-valid placement pinned.
        On success the reservation is atomically rebound: capacity moves
        from the abandoned hosts to the newly acquired ones (hosts the
        repair keeps transfer nothing).

        New hosts are only considered while they have spare reservation
        capacity for the moving node's demand, so concurrent reservations
        stay consistent.

        Parameters
        ----------
        reservation_id:
            A ticket from an earlier ``submit(reserve=True)``.  Tickets
            reserved without their query context (direct
            :meth:`ReservationManager.reserve` calls) cannot be repaired.
        timeout:
            Wall-clock budget in seconds for the repair search (``None`` =
            the service default).

        Returns
        -------
        RepairResponse
            ``status`` is ``intact`` / ``repaired`` / ``failed`` /
            ``timeout``; on ``repaired`` the reservation already holds the
            new mapping.
        """
        reservation = self.reservations.get(reservation_id)
        if not reservation.active:
            raise ReservationError(
                f"reservation {reservation_id!r} is no longer active")
        if reservation.query is None:
            raise ReservationError(
                f"reservation {reservation_id!r} carries no query context; "
                f"reserve through NetEmbedService.submit to enable repair")
        network = self.registry.get(reservation.network_name)
        demands = reservation.demands
        attribute = reservation.capacity_attribute
        #: Demand currently charged on each held host by this reservation;
        #: a rebind frees it if the occupant moves away, so it counts toward
        #: what another query node could net out on that host.
        charged = {}
        for query_node, host in reservation.mapping.items():
            charged[host] = charged.get(host, 0.0) + demands.get(query_node, 1.0)

        def has_spare_capacity(query_node, host) -> bool:
            demand = demands.get(query_node, 1.0)
            # An active reservation implies every held host declared
            # capacity (reserve() enforces it), so a newly acquired host
            # must declare — and have — enough spare to be chargeable.
            available = network.available_capacity(host, attribute)
            if available is None:
                return False
            # Optimistic upper bound for held hosts (their occupant may or
            # may not move); rebind's exact net check is the backstop.
            return available + charged.get(host, 0.0) + 1e-12 >= demand

        result = repair_mapping(
            reservation.query, network, reservation.mapping,
            constraint=reservation.constraint,
            node_constraint=reservation.node_constraint,
            timeout=timeout if timeout is not None else self._default_timeout,
            candidate_ok=has_spare_capacity)

        error = None
        if result.status == "repaired" and result.moved:
            try:
                self.reservations.rebind(reservation_id, network, result.mapping)
            except ReservationError as exc:
                # Lost a capacity race between the search and the rebind;
                # the reservation keeps its original (broken) mapping and
                # the caller sees why.
                error = str(exc)
        return RepairResponse(reservation_id=reservation_id,
                              network_name=reservation.network_name,
                              result=result, error=error)

    # ------------------------------------------------------------------ #
    # Resolution helpers
    # ------------------------------------------------------------------ #

    def _resolve_network(self, name: Optional[str]) -> tuple:
        """Resolve a spec's network name to ``(name, HostingNetwork, version)``.

        Raises :class:`UnknownNetworkError` (a LookupError, never a bare
        KeyError) whose message lists the registered names.

        The version is read *before* the network object, from one registry
        entry.  If a concurrent re-register replaces the entry between the
        two reads, the new network pairs with the old version — the plan
        compiled from it lands under a key no future lookup uses (they read
        the bumped version) and is merely recompiled, instead of the reverse
        anomaly where the *old* network's plan is cached under the *new*
        version key and served forever.
        """
        network_name = name or self.registry.default_name
        if network_name is None:
            raise ValueError("no hosting network registered; call register_network first")
        entry = self.registry.entry(network_name)
        version = entry.version
        return network_name, entry.network, version

    def _algorithm_info(self, spec: QuerySpec, hosting: HostingNetwork
                        ) -> AlgorithmInfo:
        """The registry entry for *spec* (auto-selection or by name)."""
        if spec.algorithm.lower() == "auto":
            return self.selection_policy.select(
                spec.query, hosting, max_results=spec.max_results,
                registry=self.algorithms)
        return self.algorithms.get(spec.algorithm)

    def _instantiate(self, info: AlgorithmInfo, spec: QuerySpec
                     ) -> EmbeddingAlgorithm:
        """Build an algorithm instance for the direct (non-plan) path."""
        kwargs = {}
        if info.has(Capability.SEEDABLE):
            kwargs["rng"] = spec.seed if spec.seed is not None else self._rng
        return info.create(**kwargs)

    def _execution_rng(self, info: AlgorithmInfo, spec: QuerySpec):
        """The per-run randomness source threaded into a plan execute."""
        if not info.has(Capability.SEEDABLE):
            return None
        return spec.seed if spec.seed is not None else self._rng

    def _cached_plan(self, network_name: str, version: int,
                     info: AlgorithmInfo, request: SearchRequest,
                     bounded: bool = True) -> Optional[EmbeddingPlan]:
        """The cached (or freshly compiled and cached) plan for *request*.

        Returns ``None`` for algorithms without a separable prepare stage —
        caching their plans would only pin memory without amortising
        anything.  Seedable-but-preparable algorithms (RWB) are cached
        seedless: the plan's artifacts are seed-independent and the random
        stream arrives per execute.

        With *bounded* (the submit/stream path) a cold compile runs under
        the request's own timeout; if it expires, ``None`` is returned and
        the caller falls back to the one-shot ``request()`` path, which
        re-runs under a fresh deadline and classifies the timeout properly
        (worst case one spec costs two timeout budgets, never unbounded).
        ``bounded=False`` (explicit cache warming) compiles to completion.

        On a miss caused by model churn (a monitor tick bumped the version,
        stranding the previous plan under the old key), the superseded plan
        is pulled back via :meth:`~repro.core.plan.PlanCache.pop_predecessor`
        and offered to the incremental patch path first: an attribute-only
        delta is replayed onto the compiled artifacts instead of recompiling
        them, and the cache counts the outcome under its ``patched`` /
        ``recompiled`` statistics.

        Two racing workers may both miss and compile the same plan; the
        second ``put`` simply replaces the first — both plans are valid for
        the key, so the race is benign.
        """
        algorithm = self._plan_algorithms.get(info.name)
        if algorithm is None:
            algorithm = self._plan_algorithms.setdefault(info.name,
                                                         info.create())
        if not algorithm.supports_prepare:
            return None
        key = (network_name, version,
               algorithm.plan_signature(), request.fingerprint())
        plan = self.plans.get(key)
        if plan is not None:
            return plan
        refresh_mode = None
        predecessor = self.plans.pop_predecessor(key)
        if predecessor is not None:
            refresh_mode = "recompiled"
            # A predecessor compiled from a *replaced* network object (a
            # re-register) must not be patched — its artifacts describe the
            # old infrastructure; only same-object (monitor-churn) plans are.
            if predecessor.request.hosting is request.hosting:
                patched = predecessor.try_patch()
                if patched is not None and not patched.stale:
                    self.plans.put(key, patched, refresh_mode="patched")
                    return patched
        try:
            plan = algorithm.prepare(
                request,
                deadline=Deadline(request.budget.timeout) if bounded
                else None)
        except TimeoutExpired:
            return None
        self.plans.put(key, plan, refresh_mode=refresh_mode)
        return plan
