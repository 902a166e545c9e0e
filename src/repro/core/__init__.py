"""The NETEMBED mapping algorithms (paper §V) and their shared machinery.

Public surface:

* :class:`ECF` — exhaustive search with constraint filtering (all embeddings);
* :class:`RWB` — random walk with backtracking (first embedding, randomised);
* :class:`LNS` — lazy neighborhood search (low memory, lazy constraint checks);
* :class:`EmbeddingResult` / :class:`ResultStatus` — what a search returns;
* :class:`Mapping` and :func:`validate_mapping` — embeddings and their
  independent correctness oracle;
* :func:`build_filters` / :class:`FilterMatrices` — the ECF/RWB filter stage,
  exposed for tests, ablations and diagnostics;
* :class:`EmbeddingPlan` / :class:`PlanCache` — the two-phase
  prepare/execute surface: compiled, reusable plans and the version-aware
  LRU cache the service routes repeated traffic through.

Every search runs serially on one thread: ECF and RWB on the explicit-stack
kernel of :mod:`repro.core.kernel`, LNS on its recursive extension.
"""

from repro.api.registry import UnknownAlgorithmError, default_registry
from repro.core.base import EmbeddingAlgorithm, SearchContext
from repro.core.ecf import ECF
from repro.core.filters import (
    FilterMatrices,
    HostingCompile,
    build_filters,
    clear_hosting_compile,
    compile_hosting,
    compute_node_candidates,
    patch_filters,
    patch_hosting_compile,
)
from repro.core.indexing import NodeIndexer
from repro.core.lns import LNS
from repro.core.plan import (
    EmbeddingPlan,
    PlanCache,
    PlanCacheEntry,
    PlanInvalidatedError,
    PreparedSearch,
)
from repro.core.mapping import Mapping, MappingViolation, is_valid_mapping, validate_mapping
from repro.core.repair import (
    RepairResult,
    RepairStats,
    repair_mapping,
    violated_query_nodes,
)
from repro.core.ordering import (
    ORDERINGS,
    candidate_count_order,
    connectivity_aware_order,
    lns_next_neighbor,
    lns_seed_node,
    natural_order,
    permutation_tree_size,
)
from repro.core.result import EmbeddingResult, ResultStatus, SearchStats, classify
from repro.core.rwb import RWB

#: All three NETEMBED algorithms keyed by their paper names.  Built from the
#: capability registry (the classes register themselves on import above);
#: kept as a plain dict for backward compatibility.
ALGORITHMS = {info.name: info.factory
              for info in default_registry().with_tag("core")}


def make_algorithm(name: str, **kwargs) -> EmbeddingAlgorithm:
    """Instantiate a registered algorithm by name (case-insensitive).

    Delegates to the :mod:`repro.api` registry, so baseline names work too
    once :mod:`repro.baselines` has been imported.
    """
    return default_registry().create(name, **kwargs)


__all__ = [
    "ECF",
    "RWB",
    "LNS",
    "ALGORITHMS",
    "make_algorithm",
    "EmbeddingAlgorithm",
    "SearchContext",
    "EmbeddingResult",
    "ResultStatus",
    "SearchStats",
    "classify",
    "Mapping",
    "MappingViolation",
    "validate_mapping",
    "is_valid_mapping",
    "RepairResult",
    "RepairStats",
    "repair_mapping",
    "violated_query_nodes",
    "FilterMatrices",
    "HostingCompile",
    "NodeIndexer",
    "build_filters",
    "clear_hosting_compile",
    "compile_hosting",
    "compute_node_candidates",
    "patch_filters",
    "patch_hosting_compile",
    "EmbeddingPlan",
    "PlanCache",
    "PlanCacheEntry",
    "PlanInvalidatedError",
    "PreparedSearch",
    "ORDERINGS",
    "candidate_count_order",
    "connectivity_aware_order",
    "natural_order",
    "lns_seed_node",
    "lns_next_neighbor",
    "permutation_tree_size",
]
