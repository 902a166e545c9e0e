"""The recursive reference engines: the one oracle of the search kernel.

This module is the frozen "before" of the bitset refactor: dict-of-set filter
matrices built and queried exactly the way the original implementation did,
plus a recursive ECF on top of them, and the recursive RWB walk the kernel's
explicit-stack walk replays.  It exists for two reasons:

* **Parity.**  The test suite (``tests/test_core_bitset_parity.py``,
  ``tests/test_kernel_parity.py``, ``tests/test_kernel_words.py`` and the
  cross-layer differential suite) asserts that the production engines
  produce identical cells, candidate sets, entry counts, mapping streams,
  search counters and seeded RWB streams, with this module as the oracle.
* **Trajectory.**  ``benchmarks/bench_perf_core.py`` times this engine
  against the production engine on the same workload and records both
  numbers, plus the parity verdicts, in ``BENCH_core.json``.

Nothing here is registered with the algorithm registry: nothing in the
production path should ever pick it up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.constraints import ConstraintExpression
from repro.core.base import EmbeddingAlgorithm, SearchContext
from repro.core.filters import FilterKey, FilterMatrices, compute_node_candidates
from repro.core.plan import PreparedSearch
from repro.core.rwb import RWB, _subtree_seed
from repro.graphs.hosting import HostingNetwork
from repro.graphs.network import Edge, NodeId
from repro.graphs.query import QueryNetwork
from repro.utils.timing import Stopwatch

_EMPTY_SET: Set[NodeId] = set()


@dataclass
class ReferenceFilterMatrices:
    """Dict-of-set filter matrices with the original candidate algebra."""

    match: Dict[FilterKey, Set[NodeId]] = field(default_factory=dict)
    non_match: Dict[FilterKey, Set[NodeId]] = field(default_factory=dict)
    node_candidates: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    constraint_evaluations: int = 0
    build_seconds: float = 0.0

    @property
    def entry_count(self) -> int:
        return (sum(len(s) for s in self.match.values())
                + sum(len(s) for s in self.non_match.values()))

    @property
    def cell_count(self) -> int:
        return len(self.match)

    def candidate_count(self, query_node: NodeId) -> int:
        """Cardinality of expression (1)'s candidate set for *query_node*."""
        return len(self.node_candidates.get(query_node, _EMPTY_SET))

    def candidates_unplaced(self, query_node: NodeId) -> Set[NodeId]:
        return set(self.node_candidates.get(query_node, _EMPTY_SET))

    def candidates_given(self, query_node: NodeId,
                         placed_neighbors: Iterable[Tuple[NodeId, NodeId]],
                         used_hosts: Iterable[NodeId]) -> Set[NodeId]:
        placed = list(placed_neighbors)
        if not placed:
            result = self.candidates_unplaced(query_node)
        else:
            result: Optional[Set[NodeId]] = None
            for neighbor, host in placed:
                cell = self.match.get((neighbor, host, query_node), _EMPTY_SET)
                if result is None:
                    result = set(cell)
                else:
                    result &= cell
                if not result:
                    return set()
        result -= set(used_hosts)
        return result

    def cell(self, placed_query: NodeId, placed_host: NodeId,
             next_query: NodeId) -> FrozenSet[NodeId]:
        return frozenset(self.match.get((placed_query, placed_host, next_query),
                                        _EMPTY_SET))

    def non_match_cell(self, placed_query: NodeId, placed_host: NodeId,
                       next_query: NodeId) -> FrozenSet[NodeId]:
        return frozenset(self.non_match.get((placed_query, placed_host, next_query),
                                            _EMPTY_SET))


def build_filters_reference(query: QueryNetwork, hosting: HostingNetwork,
                            constraint: ConstraintExpression,
                            node_constraint: Optional[ConstraintExpression] = None,
                            record_non_matches: bool = True,
                            deadline=None) -> ReferenceFilterMatrices:
    """The original (pre-bitset) ``build_filters``, kept line-for-line."""
    stopwatch = Stopwatch().start()
    filters = ReferenceFilterMatrices()
    trivial = constraint.is_trivial

    node_allowed = compute_node_candidates(query, hosting, node_constraint)

    pair_edges: Dict[Tuple[NodeId, NodeId], List[Edge]] = {}
    for q_source, q_target in query.edges():
        qa, qb = sorted((q_source, q_target), key=str)
        pair_edges.setdefault((qa, qb), []).append((q_source, q_target))

    def arc_attrs(r_from: NodeId, r_to: NodeId):
        if hosting.has_edge(r_from, r_to):
            return hosting.edge_attrs(r_from, r_to)
        if not hosting.directed and hosting.has_edge(r_to, r_from):
            return hosting.edge_attrs(r_to, r_from)
        return None

    host_pair_info = []
    seen_pairs = set()
    for r1, r2 in hosting.edges():
        for ra, rb in ((r1, r2), (r2, r1)):
            if ra == rb or (ra, rb) in seen_pairs:
                continue
            seen_pairs.add((ra, rb))
            host_pair_info.append((ra, rb, arc_attrs(ra, rb), arc_attrs(rb, ra),
                                   hosting.node_attrs(ra), hosting.node_attrs(rb)))

    evaluate = constraint.evaluate
    evaluations = 0
    for (qa, qb), edges_between in pair_edges.items():
        if deadline is not None:
            deadline.check()
        allowed_a = node_allowed[qa]
        allowed_b = node_allowed[qb]
        edge_contexts = []
        for q_source, q_target in edges_between:
            edge_contexts.append((q_source == qa, {
                "vEdge": query.edge_attrs(q_source, q_target),
                "vSource": query.node_attrs(q_source),
                "vTarget": query.node_attrs(q_target),
                "rEdge": None, "rSource": None, "rTarget": None,
            }))
        for ra, rb, attrs_ab, attrs_ba, attrs_a, attrs_b in host_pair_info:
            matched = ra in allowed_a and rb in allowed_b
            if matched:
                for forward, context in edge_contexts:
                    r_edge_attrs = attrs_ab if forward else attrs_ba
                    if r_edge_attrs is None:
                        matched = False
                        break
                    if trivial:
                        continue
                    evaluations += 1
                    context["rEdge"] = r_edge_attrs
                    context["rSource"] = attrs_a if forward else attrs_b
                    context["rTarget"] = attrs_b if forward else attrs_a
                    if not evaluate(context):
                        matched = False
                        break
            if matched:
                filters.match.setdefault((qa, ra, qb), set()).add(rb)
                filters.match.setdefault((qb, rb, qa), set()).add(ra)
                filters.node_candidates.setdefault(qb, set()).add(rb)
                filters.node_candidates.setdefault(qa, set()).add(ra)
            elif record_non_matches:
                filters.non_match.setdefault((qa, ra, qb), set()).add(rb)
                filters.non_match.setdefault((qb, rb, qa), set()).add(ra)

    for node in query.nodes():
        if node not in filters.node_candidates:
            filters.node_candidates[node] = set(node_allowed[node])

    filters.constraint_evaluations = evaluations
    filters.build_seconds = stopwatch.stop()
    return filters


class ReferenceECF(EmbeddingAlgorithm):
    """The original recursive ECF over :class:`ReferenceFilterMatrices`.

    Same ordering heuristics, same candidate algebra, same
    ``sorted(candidates, key=str)`` trial order — so its mapping stream is
    the ground truth the bitset ECF must reproduce byte for byte.
    """

    name = "ECF-reference"

    def __init__(self, ordering: str = "connectivity",
                 record_non_matches: bool = True) -> None:
        from repro.core.ordering import ORDERINGS
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {sorted(ORDERINGS)}")
        self._ordering = ORDERINGS[ordering]
        self._record_non_matches = bool(record_non_matches)

    def _run(self, context: SearchContext) -> bool:
        filters = build_filters_reference(
            context.query, context.hosting, context.constraint,
            context.node_constraint,
            record_non_matches=self._record_non_matches,
            deadline=context.deadline)
        context.stats.constraint_evaluations += filters.constraint_evaluations
        context.stats.filter_entries = filters.entry_count
        context.stats.filter_build_seconds = filters.build_seconds

        if any(not filters.node_candidates.get(node)
               for node in context.query.nodes()):
            return True

        order = self._ordering(context.query, filters)
        assignment: Dict[NodeId, NodeId] = {}
        used: Set[NodeId] = set()
        return self._descend(context, filters, order, 0, assignment, used)

    def _descend(self, context: SearchContext, filters: ReferenceFilterMatrices,
                 order: List[NodeId], depth: int,
                 assignment: Dict[NodeId, NodeId], used: Set[NodeId]) -> bool:
        context.check_deadline()

        if depth == len(order):
            stop = context.record_mapping(dict(assignment))
            return not stop

        node = order[depth]
        placed_neighbors = [(neighbor, assignment[neighbor])
                            for neighbor in context.query.neighbors(node)
                            if neighbor in assignment]
        candidates = filters.candidates_given(node, placed_neighbors, used)

        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += len(candidates)

        if not candidates:
            context.stats.backtracks += 1
            return True

        for host in sorted(candidates, key=str):
            assignment[node] = host
            used.add(host)
            keep_going = self._descend(context, filters, order, depth + 1,
                                       assignment, used)
            del assignment[node]
            used.discard(host)
            if not keep_going:
                return False
        return True


class ReferenceRWB(RWB):
    """RWB with the original recursive walk over the filter accessors.

    Inherits RWB's prepare stage and its root plan (the shuffled root order
    and the per-subtree seeds), and walks each subtree recursively through
    :meth:`FilterMatrices.candidates_mask_given` and the indexer's decode —
    no kernel row tables.  Its seeded mapping stream and counters are the
    ground truth the kernel walk must reproduce byte for byte.
    """

    name = "RWB-reference"

    def _walk_roots(self, context: SearchContext, prepared: PreparedSearch,
                    roots: List[NodeId], base: int) -> bool:
        filters = prepared.filters
        order = prepared.order
        node = order[0]
        bit_of = filters.host_indexer.bit
        assignment: Dict[NodeId, NodeId] = {}
        for index, host in enumerate(roots):
            rng = random.Random(_subtree_seed(base, index))
            assignment[node] = host
            keep_going = self._walk(context, filters, order, prepared.prior,
                                    1, assignment, bit_of(host), rng)
            del assignment[node]
            if not keep_going:
                return False
        return True

    def _walk(self, context: SearchContext, filters: FilterMatrices,
              order: List[NodeId], prior: Sequence[Tuple[NodeId, ...]],
              depth: int, assignment: Dict[NodeId, NodeId],
              used_mask: int, rng) -> bool:
        """Randomised depth-first walk.  Returns ``False`` iff stopped early."""
        context.check_deadline()

        if depth == len(order):
            stop = context.record_mapping(dict(assignment))
            return not stop

        node = order[depth]
        placed_neighbors = [(neighbor, assignment[neighbor])
                            for neighbor in prior[depth]]
        mask = filters.candidates_mask_given(node, placed_neighbors, used_mask)
        candidates = filters.host_indexer.decode(mask)

        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += len(candidates)

        if not candidates:
            context.stats.backtracks += 1
            return True

        rng.shuffle(candidates)
        bit_of = filters.host_indexer.bit
        for host in candidates:
            assignment[node] = host
            keep_going = self._walk(context, filters, order, prior, depth + 1,
                                    assignment, used_mask | bit_of(host), rng)
            del assignment[node]
            if not keep_going:
                return False
        return True
