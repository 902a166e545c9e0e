"""LNS — Lazy Neighborhood Search (paper §V-C, Figs. 6–7).

ECF and RWB pay an up-front cost that can be prohibitive for under-constrained
queries over dense hosting networks: the filter matrices are
``O(n · |E_Q| · |E_R|)`` in the worst case.  LNS avoids them entirely by
evaluating constraints lazily, only for the edges that connect the vertex
being placed to the vertices already placed.

The algorithm maintains three sets of *query* vertices:

* **Covered** — already matched (together they form a valid partial mapping);
* **Neighbors** — adjacent to at least one covered vertex;
* **External** — everything else.

It seeds Covered with the highest-degree query vertex (so the covered region
becomes highly connected quickly), then repeatedly:

1. picks from Neighbors the vertex with the most edges into Covered
   (maximising the conjunction of constraints the new placement must satisfy,
   which prunes dead ends as early as possible);
2. tries every hosting node that could host it — i.e. the hosting neighbours
   of the already-assigned images of its covered neighbours — checking the
   topology and the constraint expression for every connecting edge;
3. recurses; when the Neighbors set empties and no External vertices remain,
   the covered set is a complete feasible mapping.

Queries with several connected components are handled by re-seeding on the
highest-degree external vertex whenever Neighbors runs dry.

Correctness and completeness follow the argument of the paper's appendix:
every extension of a promising partial mapping is attempted, so if a feasible
mapping exists some branch of the recursion constructs it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.api.registry import Capability, register_algorithm
from repro.api.request import SearchRequest
from repro.core.base import EmbeddingAlgorithm, SearchContext
from repro.core.filters import compute_node_candidates
from repro.core.indexing import NodeIndexer
from repro.core.ordering import lns_next_neighbor
from repro.core.plan import PreparedSearch
from repro.graphs.network import Edge, NodeId
from repro.utils.timing import Deadline


@register_algorithm(
    "LNS",
    capabilities=[
        Capability.COMPLETE_ENUMERATION,
        Capability.DETERMINISTIC,
        Capability.PROVES_INFEASIBILITY,
        Capability.SUPPORTS_DIRECTED,
        Capability.LOW_MEMORY,
    ],
    summary="Lazy neighborhood search (low memory, lazy constraint checks).",
    tags=["core"],
)
class LNS(EmbeddingAlgorithm):
    """Lazy Neighborhood Search.

    Parameters
    ----------
    candidate_order:
        ``"sorted"`` (deterministic, default) or ``"degree"`` — how candidate
        hosting nodes are ordered when tried.  Ordering by descending hosting
        degree tends to find first matches sooner on sparse hosts; the default
        keeps runs deterministic and reproducible.
    """

    name = "LNS"
    supports_prepare = True

    def __init__(self, candidate_order: str = "sorted") -> None:
        if candidate_order not in ("sorted", "degree"):
            raise ValueError(
                f"candidate_order must be 'sorted' or 'degree', got {candidate_order!r}")
        self._candidate_order = candidate_order

    def plan_signature(self):
        return (self.name, self._candidate_order)

    # ------------------------------------------------------------------ #

    def _prepare(self, request: SearchRequest,
                 deadline: Optional[Deadline] = None) -> PreparedSearch:
        """Stage 1: node screening plus the dense host index.

        LNS has no filter matrices — edge constraints stay lazy — so its
        prepared artifacts are the node-constraint candidate masks and the
        indexer.  The hosting-adjacency memo is created here too and shared
        across executes: it is derived data, filled lazily for hosts a
        partial mapping actually touches, and monotone (safe to share even
        between concurrent executes of the same plan).
        """
        node_allowed = compute_node_candidates(request.query, request.hosting,
                                               request.node_constraint)
        if any(not node_allowed[node] for node in request.query.nodes()):
            return PreparedSearch(infeasible=True)

        # Same bitmask candidate algebra as ECF/RWB: allowed sets and hosting
        # adjacency become masks over the dense host index, so the pruning
        # intersection in the search is a chain of `&`.
        indexer = NodeIndexer(request.hosting.nodes())
        allowed_masks = {node: indexer.encode(hosts)
                         for node, hosts in node_allowed.items()}
        return PreparedSearch(indexer=indexer, allowed_masks=allowed_masks,
                              adjacency_masks={})

    def _patch_prepared(self, request: SearchRequest,
                        prepared: PreparedSearch, delta) -> Optional[PreparedSearch]:
        """Attr-only delta: the dense index and the hosting adjacency are
        untouched; only the node-screening masks can shift, and only on the
        touched hosting nodes.  Edge constraints stay lazy, so the patched
        plan evaluates them against the live attributes exactly as a fresh
        prepare would."""
        indexer = prepared.indexer
        if indexer is None:
            # The old prepare screened out early (infeasible) and kept no
            # artifacts to patch; a fresh LNS prepare is cheap anyway.
            return None
        node_constraint = request.node_constraint
        allowed_masks = dict(prepared.allowed_masks)
        if (node_constraint is not None and not node_constraint.is_trivial
                and delta.touched_nodes):
            query = request.query
            hosting = request.hosting
            touched_hosts = [(host, hosting.node_attrs(host), indexer.bit(host))
                             for host in sorted(delta.touched_nodes, key=str)
                             if hosting.has_node(host)]
            evaluate = node_constraint.evaluate
            for query_node in query.nodes():
                context = {"vNode": query.node_attrs(query_node), "rNode": None}
                mask = allowed_masks.get(query_node, 0)
                for host, attrs, bit in touched_hosts:
                    context["rNode"] = attrs
                    if evaluate(context):
                        mask |= bit
                    else:
                        mask &= ~bit
                allowed_masks[query_node] = mask
        if any(not allowed_masks.get(node) for node in request.query.nodes()):
            return PreparedSearch(infeasible=True)
        # The adjacency memo is purely structural and monotone: safe to keep
        # sharing between the old and the patched plan.
        return PreparedSearch(indexer=indexer, allowed_masks=allowed_masks,
                              adjacency_masks=prepared.adjacency_masks)

    def _run_prepared(self, context: SearchContext,
                      prepared: PreparedSearch) -> bool:
        assignment: Dict[NodeId, NodeId] = {}
        covered: List[NodeId] = []
        neighbors: Set[NodeId] = set()
        external: Set[NodeId] = set(context.query.nodes())
        return self._extend(context, prepared.indexer, prepared.allowed_masks,
                            prepared.adjacency_masks, assignment, 0, covered,
                            neighbors, external)

    # ------------------------------------------------------------------ #

    def _adjacency_mask(self, context: SearchContext, indexer: NodeIndexer,
                        adjacency_masks: Dict[NodeId, int], host: NodeId) -> int:
        """The (memoised) bitmask of *host*'s hosting-network neighbours."""
        mask = adjacency_masks.get(host)
        if mask is None:
            mask = indexer.encode(context.hosting.neighbors(host))
            adjacency_masks[host] = mask
        return mask

    def _extend(self, context: SearchContext, indexer: NodeIndexer,
                allowed_masks: Dict[NodeId, int],
                adjacency_masks: Dict[NodeId, int],
                assignment: Dict[NodeId, NodeId], used_mask: int,
                covered: List[NodeId], neighbors: Set[NodeId],
                external: Set[NodeId]) -> bool:
        """Recursive step 5–16 of Fig. 7.  Returns ``False`` iff stopped early."""
        context.check_deadline()

        if not neighbors:
            if not external:
                # All query vertices are covered: a complete feasible mapping.
                stop = context.record_mapping(dict(assignment))
                return not stop
            # Seed a new connected component with its highest-degree vertex.
            current = max(external,
                          key=lambda n: (context.query.degree(n), str(n)))
            candidates_mask = allowed_masks[current] & ~used_mask
            connecting: List[Tuple[NodeId, NodeId]] = []
        else:
            current = lns_next_neighbor(context.query, covered, neighbors)
            connecting = [(neighbor, assignment[neighbor])
                          for neighbor in context.query.neighbors(current)
                          if neighbor in assignment]
            # Any feasible host for `current` must be a hosting neighbour of
            # the image of each covered neighbour; intersecting adjacency
            # masks before any constraint evaluation is the "lazy" pruning
            # step.
            # Seeding with the bounded all-hosts mask (rather than -1) keeps
            # every intermediate value a non-negative, width-limited int.
            candidates_mask = indexer.full_mask
            for _, host in connecting:
                candidates_mask &= self._adjacency_mask(context, indexer,
                                                        adjacency_masks, host)
                if not candidates_mask:
                    break
            candidates_mask &= allowed_masks[current] & ~used_mask

        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += candidates_mask.bit_count()

        if not candidates_mask:
            context.stats.backtracks += 1
            return True

        query_edges = self._query_edges_to_covered(context, current, connecting)

        new_covered = covered + [current]
        new_neighbors = (neighbors | {n for n in context.query.neighbors(current)
                                      if n in external and n != current}) - {current}
        new_external = external - {current} - new_neighbors

        bit_of = indexer.bit
        for host in self._order_candidates(context, indexer, candidates_mask):
            if not self._connecting_edges_ok(context, query_edges, assignment,
                                             current, host):
                continue
            assignment[current] = host
            keep_going = self._extend(context, indexer, allowed_masks,
                                      adjacency_masks, assignment,
                                      used_mask | bit_of(host),
                                      new_covered, new_neighbors, new_external)
            del assignment[current]
            if not keep_going:
                return False
        return True

    # ------------------------------------------------------------------ #

    @staticmethod
    def _query_edges_to_covered(context: SearchContext, current: NodeId,
                                connecting: List[Tuple[NodeId, NodeId]]) -> List[Edge]:
        """The actual query edges between *current* and its covered neighbours.

        For undirected queries there is one edge per covered neighbour; for
        directed queries there may be one in each direction, and each must be
        checked in its own orientation.
        """
        query = context.query
        edges: List[Edge] = []
        for neighbor, _host in connecting:
            if query.has_edge(neighbor, current):
                edges.append((neighbor, current))
            if query.directed and query.has_edge(current, neighbor):
                edges.append((current, neighbor))
            if not query.directed and not query.has_edge(neighbor, current) \
                    and query.has_edge(current, neighbor):
                edges.append((current, neighbor))
        return edges

    @staticmethod
    def _connecting_edges_ok(context: SearchContext, query_edges: List[Edge],
                             assignment: Dict[NodeId, NodeId],
                             current: NodeId, host: NodeId) -> bool:
        """Step 7–8 of Fig. 7: every connecting edge must be supported and satisfied."""
        for q_source, q_target in query_edges:
            r_source = host if q_source == current else assignment[q_source]
            r_target = host if q_target == current else assignment[q_target]
            if not context.query_edge_supported(q_source, q_target, r_source, r_target):
                return False
        return True

    def _order_candidates(self, context: SearchContext, indexer: NodeIndexer,
                          candidates_mask: int) -> List[NodeId]:
        # Decoding already yields ascending str order, the "sorted" default.
        candidates = indexer.decode(candidates_mask)
        if self._candidate_order == "degree":
            candidates.sort(key=lambda n: (-context.hosting.degree(n), str(n)))
        return candidates
