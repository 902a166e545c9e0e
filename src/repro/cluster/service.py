"""A partitioned drop-in for :class:`~repro.service.netembed.NetEmbedService`.

:class:`ClusterService` speaks the same request/response surface —
:class:`~repro.service.spec.QuerySpec` in,
:class:`~repro.service.spec.EmbeddingResponse` out, plus the
``registry``/``plans``/``reservations`` attributes the serving tier's
:class:`~repro.server.registry.ServiceRegistry` reads — but answers every
query through a per-network :class:`~repro.cluster.coordinator
.ClusterCoordinator` instead of a monolithic search.  ``repro serve
--partitions N`` fronts exactly this object, so the async server, admission
control and fault plans all compose with the partitioned backend unchanged.

Monitors keep mutating the registered *primary* networks as before; the
service refreshes the affected coordinator (journal-delta replication) at
the top of every submit, which is the moment replicas, summaries and the
quotient graph catch up.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Iterable, Iterator, List, Optional, Union

import repro.baselines  # noqa: F401 — registers the baselines for by-name use
from repro import faults
from repro.api.registry import AlgorithmRegistry, default_registry
from repro.constraints import ConstraintExpression
from repro.core.mapping import Mapping
from repro.core.plan import PlanCache
from repro.graphs.graphml import read_graphml
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import PartitionMap
from repro.cluster.repair import repair_placement
from repro.service.model import NetworkModelRegistry
from repro.service.monitor import MonitorConfig, SimulatedMonitor
from repro.service.reservation import ReservationError, ReservationManager
from repro.service.spec import EmbeddingResponse, QuerySpec, RepairResponse
from repro.utils.rng import RandomSource


class ClusterService:
    """An in-process NETEMBED service over partitioned hosting networks.

    Parameters
    ----------
    default_timeout:
        Timeout (seconds) applied to queries that do not set their own.
    rng:
        Randomness source for attached monitors.
    num_partitions:
        Default balanced-partition count for networks registered without an
        explicit map or attribute.
    attribute:
        Default attribute-domain partitioning for registered networks
        (overrides *num_partitions* when set).
    algorithms:
        Registry the per-request ``algorithm`` names resolve against.
    plan_cache_size:
        Capacity of the one :class:`~repro.core.plan.PlanCache` shared by
        every partition worker of every coordinator.
    max_workers:
        Thread-pool size for :meth:`submit_batch`.
    auto_refresh:
        Replicate pending journal deltas to the target coordinator at the
        top of every submit (default).  ``False`` hands refresh timing to
        the caller (benchmarks measure the two costs separately).
    """

    def __init__(self, default_timeout: float = 30.0, rng: RandomSource = None,
                 num_partitions: int = 8, attribute: Optional[str] = None,
                 algorithms: Optional[AlgorithmRegistry] = None,
                 plan_cache_size: int = 128,
                 max_workers: Optional[int] = None,
                 auto_refresh: bool = True) -> None:
        if default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be positive, got {default_timeout}")
        self.registry = NetworkModelRegistry()
        self.reservations = ReservationManager()
        self.algorithms = (algorithms if algorithms is not None
                           else default_registry())
        self.plans = PlanCache(capacity=plan_cache_size)
        self._default_timeout = default_timeout
        self._rng = rng
        self._num_partitions = num_partitions
        self._attribute = attribute
        self._auto_refresh = auto_refresh
        self._coordinators: Dict[str, ClusterCoordinator] = {}
        self._monitors: Dict[str, SimulatedMonitor] = {}
        self._max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Model management
    # ------------------------------------------------------------------ #

    def register_network(self, network: HostingNetwork,
                         name: Optional[str] = None, description: str = "",
                         default: bool = False,
                         partition_map: Optional[Union[PartitionMap, Dict]] = None,
                         num_partitions: Optional[int] = None,
                         attribute: Optional[str] = None) -> str:
        """Register a hosting network and build its partition coordinator."""
        stored = self.registry.register(network, name=name,
                                        description=description,
                                        default=default)
        attr = attribute if attribute is not None else (
            self._attribute if partition_map is None and num_partitions is None
            else None)
        self._coordinators[stored] = ClusterCoordinator(
            network, partition_map=partition_map, attribute=attr,
            num_partitions=(num_partitions if num_partitions is not None
                            else self._num_partitions),
            plans=self.plans)
        return stored

    def register_network_from_graphml(self, path, name: Optional[str] = None,
                                      default: bool = False, **kwargs) -> str:
        """Load a hosting network from a GraphML file and register it."""
        network = read_graphml(path, cls=HostingNetwork, name=name)
        return self.register_network(network, name=name, default=default,
                                     **kwargs)

    def coordinator(self, network_name: Optional[str] = None
                    ) -> ClusterCoordinator:
        """The partition coordinator serving a registered network."""
        key = network_name or self.registry.default_name
        if key is None or key not in self._coordinators:
            raise ValueError(
                f"no coordinator for network {network_name!r}; registered: "
                f"{sorted(self._coordinators)}")
        return self._coordinators[key]

    def attach_monitor(self, network_name: Optional[str] = None,
                       config: Optional[MonitorConfig] = None,
                       rng: RandomSource = None) -> SimulatedMonitor:
        """Attach a simulated monitoring service to a registered network.

        The monitor mutates the *primary*; replicas converge through
        journal-delta replication on the next submit (or explicit
        ``coordinator(name).refresh()``).
        """
        key = network_name or self.registry.default_name
        if key is None:
            raise ValueError("no hosting network registered yet")
        monitor = SimulatedMonitor(self.registry, network_name=key,
                                   config=config,
                                   rng=rng if rng is not None else self._rng)
        self._monitors[key] = monitor
        return monitor

    def monitor(self, network_name: Optional[str] = None
                ) -> Optional[SimulatedMonitor]:
        """The monitor attached to a network, if any."""
        key = network_name or self.registry.default_name
        return self._monitors.get(key) if key else None

    def attach_wal(self, path, recover: bool = True,
                   fsync_batch: int = 1) -> Dict[str, object]:
        """Journal reservations to a WAL at *path*, replaying it first."""
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
        """Process one :class:`QuerySpec` through the two-level search."""
        faults.fire("service.submit")
        network_name, hosting = self._resolve_network(spec.network)
        coordinator = self._coordinators[network_name]
        if self._auto_refresh:
            coordinator.refresh()
        # Lowering through to_request coerces the constraints exactly as the
        # monolithic service does (and validates the spec against *hosting*).
        request = spec.to_request(hosting,
                                  default_timeout=self._default_timeout)
        algorithm = coordinator._resolve_algorithm(spec.algorithm)
        cluster = coordinator.embed(
            spec.query, constraint=request.constraint,
            node_constraint=request.node_constraint,
            timeout=request.budget.timeout,
            max_results=request.budget.max_results,
            algorithm=algorithm, seed=spec.seed)
        algorithm_used = f"cluster+{algorithm.name}"
        result = cluster.to_embedding_result(algorithm=algorithm_used)

        reservation_id = None
        if spec.reserve and result.found:
            reservation = self.reservations.reserve(
                hosting, network_name, result.first,
                query=spec.query, constraint=request.constraint,
                node_constraint=request.node_constraint)
            reservation_id = reservation.reservation_id

        return EmbeddingResponse(spec=spec, result=result,
                                 network_name=network_name,
                                 algorithm_used=algorithm_used,
                                 reservation_id=reservation_id)

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

    def stream(self, spec: QuerySpec, buffer_size: int = 1
               ) -> Iterator[Mapping]:
        """Yield the embeddings for *spec* (cluster searches do not stream
        incrementally; the mappings of the finished search are yielded)."""
        if spec.reserve:
            raise ValueError("streaming does not support reserve=True; "
                             "use submit() and reserve the response instead")
        response = self.submit(spec)
        return iter(response.mappings)

    def submit_batch(self, specs: Iterable[QuerySpec],
                     return_exceptions: bool = False
                     ) -> List[Union[EmbeddingResponse, BaseException]]:
        """Process many specs concurrently; responses in input order."""
        specs = list(specs)
        futures: List[Future] = [
            self._ensure_executor().submit(self.submit, spec)
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

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="cluster-batch")
            return self._executor

    # ------------------------------------------------------------------ #
    # Reservations / repair
    # ------------------------------------------------------------------ #

    def release(self, reservation_id: str) -> None:
        """Release a reservation made by an earlier embed(reserve=True)."""
        reservation = self.reservations.get(reservation_id)
        network = self.registry.get(reservation.network_name)
        self.reservations.release(reservation_id, network)

    def repair(self, reservation_id: str,
               timeout: Optional[float] = None) -> RepairResponse:
        """Heal a reserved embedding against the partitioned live model.

        Same contract as :meth:`NetEmbedService.repair`, routed through
        :func:`repro.cluster.repair.repair_placement`: stranded query nodes
        (hosts churned away *or* inside a lost partition) are re-placed into
        a healthy partition with every surviving placement pinned, then the
        reservation is atomically rebound.
        """
        reservation = self.reservations.get(reservation_id)
        if not reservation.active:
            raise ReservationError(
                f"reservation {reservation_id!r} is no longer active")
        if reservation.query is None:
            raise ReservationError(
                f"reservation {reservation_id!r} carries no query context; "
                f"reserve through ClusterService.submit to enable repair")
        network = self.registry.get(reservation.network_name)
        coordinator = self._coordinators[reservation.network_name]
        if self._auto_refresh:
            coordinator.refresh()
        demands = reservation.demands
        attribute = reservation.capacity_attribute
        charged: Dict[object, float] = {}
        for query_node, host in reservation.mapping.items():
            charged[host] = charged.get(host, 0.0) + demands.get(query_node, 1.0)

        def has_spare_capacity(query_node, host) -> bool:
            demand = demands.get(query_node, 1.0)
            available = network.available_capacity(host, attribute)
            if available is None:
                return False
            return available + charged.get(host, 0.0) + 1e-12 >= demand

        result = repair_placement(
            coordinator, reservation.query, reservation.mapping,
            constraint=reservation.constraint,
            node_constraint=reservation.node_constraint,
            timeout=timeout if timeout is not None else self._default_timeout,
            candidate_ok=has_spare_capacity)

        error = None
        if result.status == "repaired" and result.moved:
            try:
                self.reservations.rebind(reservation_id, network,
                                         result.mapping)
            except ReservationError as exc:
                error = str(exc)
        return RepairResponse(reservation_id=reservation_id,
                              network_name=reservation.network_name,
                              result=result, error=error)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """One JSON-serialisable snapshot (superset key: ``"cluster"``)."""
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
            "cluster": {name: coordinator.stats()
                        for name, coordinator in self._coordinators.items()},
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

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the batch thread pool and close the WAL, if any."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
        wal = self.reservations.wal
        if wal is not None:
            wal.close()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #

    def _resolve_network(self, name: Optional[str]) -> tuple:
        network_name = name or self.registry.default_name
        if network_name is None:
            raise ValueError(
                "no hosting network registered; call register_network first")
        entry = self.registry.entry(network_name)
        return network_name, entry.network
