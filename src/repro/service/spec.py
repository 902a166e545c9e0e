"""Request/response data types of the NETEMBED service interface.

The service model of §III is request/response: an application submits a
*query specification* — the virtual topology plus its constraints and
service-level knobs (timeout, how many embeddings it wants, which algorithm
to use) — and receives a *response* containing the embeddings found, the
result classification and timing/diagnostic information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.api.registry import AlgorithmRegistry, default_registry
from repro.api.request import Budget, SearchRequest
from repro.constraints import ConstraintExpression
from repro.core.mapping import Mapping
from repro.core.repair import RepairResult
from repro.core.result import EmbeddingResult, ResultStatus
from repro.graphs.network import Network
from repro.graphs.query import QueryNetwork


@dataclass
class QuerySpec:
    """A complete embedding request.

    Attributes
    ----------
    query:
        The virtual network to embed.
    constraint:
        Edge constraint expression (source text or parsed); ``None`` means
        topology-only.
    node_constraint:
        Optional node-level constraint expression over ``vNode``/``rNode``.
    algorithm:
        ``"auto"`` (the service's selection policy picks based on the query's
        characteristics, §VIII's guidance) or any name registered in the
        algorithm registry — the three NETEMBED algorithms and the four
        baselines by default.
    timeout:
        Wall-clock budget in seconds (``None`` = the service default).
    max_results:
        Stop after this many embeddings (``None`` = all the algorithm finds).
    reserve:
        Whether the service should immediately reserve the first returned
        embedding through its reservation manager.
    network:
        Name of the registered hosting network to embed into (``None`` = the
        service's default network).
    seed:
        Per-request random seed handed to seedable algorithms (RWB, the
        metaheuristic baselines) so batch runs are reproducible per request.
    registry:
        Algorithm registry the ``algorithm`` name is validated against
        (``None`` = the process-wide default registry).  Pass the same custom
        registry the target :class:`NetEmbedService` was built with when its
        algorithms are not in the default registry.
    cache:
        Whether this request may consult (and populate) the service's plan
        cache.  ``False`` forces the one-shot prepare-and-search path; the
        serving tier uses it to enforce per-tenant cache quotas without
        refusing the request outright.
    """

    query: QueryNetwork
    constraint: Optional[Union[str, ConstraintExpression]] = None
    node_constraint: Optional[Union[str, ConstraintExpression]] = None
    algorithm: str = "auto"
    timeout: Optional[float] = None
    max_results: Optional[int] = None
    reserve: bool = False
    network: Optional[str] = None
    seed: Optional[int] = None
    registry: Optional[AlgorithmRegistry] = None
    cache: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.query, QueryNetwork):
            raise TypeError(
                f"query must be a QueryNetwork, got {type(self.query).__name__}")
        if not isinstance(self.algorithm, str):
            raise TypeError(
                f"algorithm must be a string, got {type(self.algorithm).__name__}")
        registry = self.registry if self.registry is not None else default_registry()
        if self.algorithm.lower() != "auto" and self.algorithm not in registry:
            raise ValueError(
                f"algorithm must be 'auto' or one of {registry.names()}; "
                f"got {self.algorithm!r}")
        if self.seed is not None and (not isinstance(self.seed, int)
                                      or isinstance(self.seed, bool)):
            raise TypeError(f"seed must be an int or None, got {type(self.seed).__name__}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError(
                f"max_results must be >= 1 or None, got {self.max_results}")

    def to_request(self, hosting: Network,
                   default_timeout: Optional[float] = None) -> SearchRequest:
        """Lower this spec onto *hosting* as a validated :class:`SearchRequest`."""
        timeout = self.timeout if self.timeout is not None else default_timeout
        return SearchRequest.build(
            self.query, hosting, constraint=self.constraint,
            node_constraint=self.node_constraint,
            budget=Budget(timeout=timeout, max_results=self.max_results))


@dataclass
class EmbeddingResponse:
    """What the service returns for a :class:`QuerySpec`.

    Wraps the raw :class:`~repro.core.result.EmbeddingResult` with
    service-level context: which hosting network and algorithm were used, and
    the reservation ticket if one was made.
    """

    spec: QuerySpec
    result: EmbeddingResult
    network_name: str
    algorithm_used: str
    reservation_id: Optional[str] = None

    # -- pass-throughs for ergonomic access ------------------------------ #

    @property
    def status(self) -> ResultStatus:
        """The complete/partial/inconclusive classification."""
        return self.result.status

    @property
    def mappings(self) -> List[Mapping]:
        """The embeddings found."""
        return self.result.mappings

    @property
    def found(self) -> bool:
        """Whether at least one embedding was found."""
        return self.result.found

    @property
    def first(self) -> Optional[Mapping]:
        """The first embedding found, or ``None``."""
        return self.result.first

    @property
    def elapsed_seconds(self) -> float:
        """Total service-side search time."""
        return self.result.elapsed_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EmbeddingResponse {self.algorithm_used} on {self.network_name}: "
                f"{self.status.value}, {len(self.mappings)} mapping(s)>")


@dataclass
class RepairResponse:
    """What :meth:`NetEmbedService.repair` returns for a reservation.

    Wraps the :class:`~repro.core.repair.RepairResult` with service-level
    context: which reservation and network were involved, and whether the
    repaired mapping could actually be rebound (capacity transferred).
    """

    reservation_id: str
    network_name: str
    result: RepairResult
    #: Set when a repaired mapping could not hold its capacity at rebind
    #: time; the reservation then still holds its (broken) original mapping.
    error: Optional[str] = None

    # -- pass-throughs for ergonomic access ------------------------------ #

    @property
    def status(self) -> str:
        """intact / repaired / failed / timeout (see RepairResult)."""
        return self.result.status

    @property
    def ok(self) -> bool:
        """Whether the reservation now holds a valid mapping."""
        return self.error is None and self.result.ok

    @property
    def mapping(self) -> Optional[Mapping]:
        """The valid mapping in hand, if any."""
        return self.result.mapping

    @property
    def moved(self):
        """Query nodes whose host changed: ``{q: (old, new)}``."""
        return self.result.moved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RepairResponse {self.reservation_id} on {self.network_name}: "
                f"{self.status}, {len(self.moved)} moved>")
