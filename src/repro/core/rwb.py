"""RWB — Random Walk Search with Backtracking (paper §V-B, Fig. 5).

RWB is the non-deterministic sibling of ECF for applications that only need
*one* feasible embedding (or a small random sample of them).  It uses exactly
the same filter matrices and candidate-set expressions as ECF, but:

* query nodes' candidates are tried in uniformly random order instead of a
  deterministic order, so repeated runs explore different regions of the
  solution space;
* the search stops as soon as the requested number of embeddings (one by
  default) has been found;
* dead ends are handled by backtracking to the previous query node, exactly
  as the paper's pseudocode keeps a per-node "discarded" list.

Because backtracking is systematic, an RWB run that exhausts the space
without finding an embedding is a proof of infeasibility, just like ECF.

**Random-stream discipline.**  The run's random source is consumed exactly
twice at the top level: once to shuffle the first query node's candidates
(the root trial order) and once to draw a 64-bit base seed.  Every root
candidate's subtree is then walked with its own :class:`random.Random`
derived from ``(base, root index)``, so a subtree's walk depends only on the
base seed and its root's position — and seeded runs reproduce across process
boundaries.

Each subtree walk is an explicit-stack loop over the row tables of
:mod:`repro.core.kernel`; the recursive walk it replays lives on as the
seeded-stream oracle :class:`repro.core.reference.ReferenceRWB`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.api.registry import Capability, register_algorithm
from repro.api.request import SearchRequest
from repro.core import kernel
from repro.core.base import EmbeddingAlgorithm, SearchContext, placed_neighbor_plan
from repro.core.filters import build_filters
from repro.core.ordering import ORDERINGS
from repro.core.plan import PreparedSearch
from repro.graphs.network import NodeId
from repro.utils.rng import RandomSource, as_rng
from repro.utils.timing import Deadline

#: Weyl-sequence constant decorrelating the per-root subtree streams.
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _subtree_seed(base: int, root_index: int) -> int:
    """The derived seed of root candidate *root_index*'s subtree walk."""
    return (base + _GOLDEN64 * (root_index + 1)) & _MASK64


@register_algorithm(
    "RWB",
    capabilities=[
        Capability.RANDOMIZED,
        Capability.FIRST_MATCH_ONLY,
        Capability.PROVES_INFEASIBILITY,
        Capability.SUPPORTS_DIRECTED,
        Capability.SEEDABLE,
    ],
    summary="Random walk with backtracking (first embedding, randomised).",
    tags=["core"],
)
class RWB(EmbeddingAlgorithm):
    """Random Walk Search with Backtracking.

    Parameters
    ----------
    rng:
        Seed or generator controlling the random candidate order; pass an
        integer for reproducible runs.
    ordering:
        Node-visit ordering; RWB defaults to the connectivity-aware Lemma-1
        ordering, like ECF (the randomness is in the candidate choice, not in
        which node is expanded next).
    seed:
        Convenience alias for ``rng`` taking an integer only, so call sites
        that thread per-request seeds (the batch service, JSON specs) read
        naturally.  Mutually exclusive with ``rng``.
    """

    name = "RWB"
    supports_prepare = True

    def __init__(self, rng: RandomSource = None,
                 ordering: str = "connectivity",
                 seed: Optional[int] = None) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {sorted(ORDERINGS)}")
        if seed is not None:
            if rng is not None:
                raise ValueError("pass either rng or seed, not both")
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise TypeError(f"seed must be an int, got {type(seed).__name__}")
            rng = seed
        self._rng_source = rng
        self._ordering_name = ordering
        self._ordering = ORDERINGS[ordering]

    def _effective_max_results(self, requested: Optional[int]) -> Optional[int]:
        # "By design it terminates as soon as it finds the first solution"
        # (paper footnote 7).  An explicit larger cap is honoured so callers
        # can sample several random embeddings.
        return 1 if requested is None else requested

    def plan_signature(self):
        # The rng source is deliberately absent: filters and visiting order
        # are seed-independent, so one cached plan serves requests carrying
        # different seeds (the per-run stream arrives via execute(rng=...)).
        return (self.name, self._ordering_name)

    # ------------------------------------------------------------------ #

    def _prepare(self, request: SearchRequest,
                 deadline: Optional[Deadline] = None) -> PreparedSearch:
        """Stage 1: same compile as ECF, minus the never-read ``F̄`` filter."""
        filters = build_filters(request.query, request.hosting,
                                request.constraint, request.node_constraint,
                                record_non_matches=False,
                                deadline=deadline)
        prepared = PreparedSearch(
            filters=filters,
            constraint_evaluations=filters.constraint_evaluations,
            filter_entries=filters.entry_count,
            filter_build_seconds=filters.build_seconds)

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

    def _root_plan(self, context: SearchContext, prepared: PreparedSearch
                   ) -> Tuple[List[NodeId], int]:
        """The shuffled root trial order plus the subtree-stream base seed.

        Consumes the run's random source exactly twice (one shuffle, one
        64-bit draw); everything below the root draws from the per-subtree
        streams of :func:`_subtree_seed`.  A per-run rng (a plan execute
        carrying a request seed) wins over the construction-time source;
        both normalise through as_rng, so a fresh search and a planned
        execute with the same seed walk the exact same random candidate
        order.
        """
        rng = context.rng if context.rng is not None else as_rng(self._rng_source)
        node = prepared.order[0]
        mask = prepared.filters.candidates_mask_unplaced(node)
        # Decoding yields ascending bit order == the canonical str-sorted
        # order, so the seeded shuffle below sees the same input it did under
        # the set engine and reproduces across processes.
        candidates = prepared.filters.host_indexer.decode(mask)
        rng.shuffle(candidates)
        return candidates, rng.getrandbits(64)

    def _run_prepared(self, context: SearchContext,
                      prepared: PreparedSearch) -> bool:
        """Expand the root, then walk the root candidates' subtrees.
        ``False`` iff stopped early (result cap)."""
        context.check_deadline()
        roots, base = self._root_plan(context, prepared)
        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += len(roots)
        if not roots:
            context.stats.backtracks += 1
            return True
        return self._walk_roots(context, prepared, roots, base)

    def _walk_roots(self, context: SearchContext, prepared: PreparedSearch,
                    roots: List[NodeId], base: int) -> bool:
        """Walk each root's subtree in shuffled order, root *i* with its own
        ``Random(_subtree_seed(base, i))``.  ``False`` iff stopped early."""
        plan = kernel.plan_for(prepared.filters, prepared.order, prepared.prior)
        index_of = prepared.filters.host_indexer.index_of
        for index, host in enumerate(roots):
            rng = random.Random(_subtree_seed(base, index))
            if not self._walk_kernel(context, plan, host, index_of(host), rng):
                return False
        return True

    def _walk_kernel(self, context: SearchContext, plan, root_host: NodeId,
                     root_index: int, rng) -> bool:
        """Randomised depth-first walk below one placed root candidate.
        Returns ``False`` iff stopped early (result cap).

        An explicit-stack replay of the recursive walk of
        :class:`repro.core.reference.ReferenceRWB`: deadline poll on every
        node entry (leaves included), expansion/backtrack counting, one
        ``rng.shuffle`` per non-leaf.  Shuffling the ascending *index* list
        yields the same permutation the recursion applies to the decoded
        node list, because ``random.shuffle`` depends only on the sequence
        length and the rng state, and ascending index order *is* the decode
        order.
        """
        order = plan.order
        host_nodes = plan.host_nodes
        n = plan.n
        stats = context.stats
        candidates_int = kernel.candidates_int
        used = 1 << root_index
        assign_idx = [-1] * n     # placed host index per depth
        assign_idx[0] = root_index
        candidate_lists: List[Optional[List[int]]] = [None] * n
        next_pos = [0] * n
        depth = 1
        entering = True
        while True:
            if entering:
                context.check_deadline()
                if depth == n:
                    mapping: Dict[NodeId, NodeId] = {order[0]: root_host}
                    for d in range(1, n):
                        mapping[order[d]] = host_nodes[assign_idx[d]]
                    if context.record_mapping(mapping):
                        return False
                    depth -= 1
                    entering = False
                    continue
                mask = candidates_int(plan, depth, assign_idx, used)
                candidates = []
                while mask:
                    low = mask & -mask
                    candidates.append(low.bit_length() - 1)
                    mask ^= low
                stats.nodes_expanded += 1
                stats.candidates_considered += len(candidates)
                if not candidates:
                    stats.backtracks += 1
                    depth -= 1
                    entering = False
                    continue
                # The random walk: candidates are tried in random order;
                # failed ones are implicitly "discarded" by the loop, which
                # is the paper's per-node discarded list.
                rng.shuffle(candidates)
                candidate_lists[depth] = candidates
                next_pos[depth] = 0
                entering = False
                continue
            if depth < 1:
                return True      # the root subtree is exhausted
            placed = assign_idx[depth]
            if placed >= 0:
                used ^= 1 << placed
                assign_idx[depth] = -1
            position = next_pos[depth]
            candidates = candidate_lists[depth]
            if candidates is None or position >= len(candidates):
                depth -= 1
                continue
            next_pos[depth] = position + 1
            host_index = candidates[position]
            used |= 1 << host_index
            assign_idx[depth] = host_index
            depth += 1
            entering = True
