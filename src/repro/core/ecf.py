"""ECF — Exhaustive Search with Constraint Filtering (paper §V-A, Fig. 4).

ECF finds *every* feasible embedding.  It works in two stages:

1. **Filter construction.**  The constraint expression is evaluated for every
   (query edge, hosting edge) pair and the results are stored in the sparse
   filter matrices ``F`` / ``F̄`` (:mod:`repro.core.filters`).

2. **Ordered depth-first search.**  Query nodes are visited in ascending
   order of their candidate counts (Lemma 1), so the branching near the root
   of the permutations tree is as small as possible.  At each depth the
   candidate set for the next query node is the intersection of the filter
   cells indexed by its already-placed neighbours, minus hosting nodes already
   in use (expression (2)); a branch is pruned the moment that set becomes
   empty.  Every leaf reached at depth ``N_Q`` is a feasible embedding.

The search runs on the bitmask candidate engine: candidate sets are integer
masks over the dense hosting-node index, intersected with ``&`` and pruned of
consumed hosts with ``& ~used_mask``, and the depth-first expansion is the
explicit-stack loop of :mod:`repro.core.kernel` (one Python frame total)
instead of one interpreter frame per query node.  Candidates are tried in
ascending bit order, which is the ``sorted(key=str)`` order of the recursive
set-based oracle (:class:`repro.core.reference.ReferenceECF`), so the two
mapping streams are identical.  The search is serial: one execute walks the
whole permutations tree on the calling thread.

Because the search only prunes branches that provably contain no feasible
completion, ECF is complete (it finds every embedding, given enough time) and
correct (everything it reports is feasible).
"""

from __future__ import annotations

from typing import Optional

from repro.api.registry import Capability, register_algorithm
from repro.api.request import SearchRequest
from repro.core import kernel
from repro.core.base import EmbeddingAlgorithm, SearchContext, placed_neighbor_plan
from repro.core.filters import build_filters
from repro.core.ordering import ORDERINGS
from repro.core.plan import PreparedSearch
from repro.utils.timing import Deadline


@register_algorithm(
    "ECF",
    capabilities=[
        Capability.COMPLETE_ENUMERATION,
        Capability.DETERMINISTIC,
        Capability.PROVES_INFEASIBILITY,
        Capability.SUPPORTS_DIRECTED,
    ],
    summary="Exhaustive search with constraint filtering (all embeddings).",
    tags=["core"],
)
class ECF(EmbeddingAlgorithm):
    """Exhaustive Search with Constraint Filtering.

    Parameters
    ----------
    ordering:
        Which query-node ordering to use: ``"connectivity"`` (default —
        Lemma 1's ascending candidate counts refined to keep the visited
        prefix connected, so expression (2) always has placed neighbours to
        intersect), ``"candidate-count"`` (plain Lemma 1) or ``"natural"``
        (no heuristic; used by the ordering ablation).
    record_non_matches:
        Whether to populate the non-match filter ``F̄`` alongside ``F``.
        Candidate computation only needs ``F``; the flag exists to measure
        the memory/time cost of the second filter (§V-C discussion).
    """

    name = "ECF"
    supports_prepare = True

    def __init__(self, ordering: str = "connectivity",
                 record_non_matches: bool = True) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {sorted(ORDERINGS)}")
        self._ordering_name = ordering
        self._ordering = ORDERINGS[ordering]
        self._record_non_matches = bool(record_non_matches)

    @property
    def ordering(self) -> str:
        """Name of the node-ordering heuristic in use."""
        return self._ordering_name

    def plan_signature(self):
        return (self.name, self._ordering_name, self._record_non_matches)

    # ------------------------------------------------------------------ #

    def _prepare(self, request: SearchRequest,
                 deadline: Optional[Deadline] = None) -> PreparedSearch:
        """Stage 1: compile the filter matrices and the visiting order."""
        filters = build_filters(request.query, request.hosting,
                                request.constraint, request.node_constraint,
                                record_non_matches=self._record_non_matches,
                                deadline=deadline)
        prepared = PreparedSearch(
            filters=filters,
            constraint_evaluations=filters.constraint_evaluations,
            filter_entries=filters.entry_count,
            filter_build_seconds=filters.build_seconds)

        # If any query node has no candidate at all the query is infeasible
        # and every (empty) search against this plan is complete.
        if any(not filters.node_candidate_masks.get(node)
               for node in request.query.nodes()):
            prepared.infeasible = True
            return prepared

        prepared.order = self._ordering(request.query, filters)
        prepared.prior = placed_neighbor_plan(request.query, prepared.order)
        return prepared

    def _patch_prepared(self, request: SearchRequest,
                        prepared: PreparedSearch, delta) -> Optional[PreparedSearch]:
        return self._patch_filters_prepared(request, prepared, delta,
                                            self._ordering)

    def _run_prepared(self, context: SearchContext,
                      prepared: PreparedSearch) -> bool:
        """Depth-first expansion over bitmask candidates (see
        :func:`repro.core.kernel.ecf_search`); ``False`` iff the search
        stopped early on the result cap."""
        return kernel.ecf_search(context, kernel.plan_for(
            prepared.filters, prepared.order, prepared.prior))
