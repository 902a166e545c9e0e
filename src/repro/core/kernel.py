"""The ECF/RWB search kernel: an explicit-stack loop over precomputed rows.

A :class:`KernelPlan` turns one ``(filters, order, prior)`` triple into
dense row tables — for every depth and placed neighbour, host index to
filter row — so the inner loop is list indexing and ``int`` algebra with no
per-expansion filter-key hashing.  It is the one search engine behind
:class:`~repro.core.ecf.ECF` and :class:`~repro.core.rwb.RWB`; the recursive
set-semantics engines in :mod:`repro.core.reference` are the oracle it is
tested against.  Each search runs start to finish on the calling thread.

**Byte-identity contract.**  The mapping stream and the evaluation counters
(``nodes_expanded`` / ``candidates_considered`` / ``backtracks``) are
identical to the reference engines: candidates are tried lowest-bit-first
(the canonical ``sorted(key=str)`` order), expansions are counted before
the emptiness test, and a result cap stops the loop at exactly the capping
leaf.  The one sanctioned divergence is deadline granularity: the loop
polls the deadline on entry and then every :data:`CHUNK_STEPS` expansions,
so a *timed-out* run may stop a few thousand expansions later than a
per-node poll would — a completed run never differs.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "CHUNK_STEPS",
    "KernelPlan",
    "plan_for",
    "candidates_int",
    "ecf_search",
]

#: Expansions between deadline/cancellation polls.  Small enough that a
#: cancel lands within milliseconds, large enough that the poll is
#: invisible in profiles.
CHUNK_STEPS = 2048


# ---------------------------------------------------------------------- #
# Kernel plans: the search-ready view of one (filters, order) pair
# ---------------------------------------------------------------------- #

class KernelPlan:
    """Precomputed row tables for one ``(filters, order, prior)`` triple.

    For every depth and every prior neighbour the plan materialises a dense
    ``host index -> filter row`` table once, so the inner loop never hashes
    a filter key.  Rows index into :attr:`masks_int`, which enumerates
    ``filters.match_masks`` in dict order.

    Plans are derived caches, rebuilt on demand.
    """

    __slots__ = ("order", "prior", "indexer", "host_nodes", "depth_of", "n",
                 "node_ints", "cell_tables", "masks_int")

    def __init__(self, filters, order: Sequence, prior: Sequence) -> None:
        self.order = tuple(order)
        self.prior = tuple(tuple(p) for p in prior)
        self.indexer = filters.host_indexer
        self.host_nodes = self.indexer.nodes
        self.depth_of = {node: d for d, node in enumerate(self.order)}
        self.n = len(self.order)
        match_masks = filters.match_masks
        row_index = {key: r for r, key in enumerate(match_masks)}
        self.masks_int: List[int] = list(match_masks.values())
        node_masks = filters.node_candidate_masks
        self.node_ints: List[int] = [node_masks.get(node, 0)
                                     for node in self.order]
        hosts = self.host_nodes
        get = row_index.get
        tables = []
        for depth, node in enumerate(self.order):
            neighbors = self.prior[depth]
            if not neighbors:
                tables.append(None)
                continue
            tables.append(tuple(
                (self.depth_of[neighbor],
                 [get((neighbor, host, node), -1) for host in hosts])
                for neighbor in neighbors))
        self.cell_tables = tuple(tables)


_PLAN_ATTR = "_kernel_plan"


def plan_for(filters, order: Sequence, prior: Sequence) -> KernelPlan:
    """The cached :class:`KernelPlan` for this triple, rebuilt when the
    order or prior differs from the cached one."""
    plan = getattr(filters, _PLAN_ATTR, None)
    if (plan is None or plan.order != tuple(order)
            or plan.prior != tuple(tuple(p) for p in prior)):
        plan = KernelPlan(filters, order, prior)
        try:
            setattr(filters, _PLAN_ATTR, plan)
        except AttributeError:  # pragma: no cover - slotted stand-ins
            pass
    return plan


def candidates_int(plan: KernelPlan, depth: int, assign_idx, used: int) -> int:
    """Expression (2)/(1) over the plan's row tables, minus used hosts."""
    slots = plan.cell_tables[depth]
    if slots is None:
        mask = plan.node_ints[depth]
    else:
        mask = -1
        masks_int = plan.masks_int
        for nb_depth, rows in slots:
            row = rows[assign_idx[nb_depth]]
            if row < 0:
                return 0
            mask &= masks_int[row]
            if not mask:
                return 0
    return mask & ~used


# ---------------------------------------------------------------------- #
# ECF: the explicit-stack depth-first search
# ---------------------------------------------------------------------- #

def ecf_search(context, plan: KernelPlan) -> bool:
    """Depth-first expansion over the plan's bitmask candidates.

    Returns ``False`` iff the search stopped early on the result cap.  Per
    depth the loop keeps the not-yet-tried candidate mask and the bit of the
    host currently placed there; taking the lowest set bit first reproduces
    the canonical ``sorted(key=str)`` trial order.
    """
    # An already-expired budget surfaces zero mappings, not a chunk's worth.
    context.check_deadline()
    n = plan.n
    stats = context.stats
    assign_idx = [-1] * n
    mask = candidates_int(plan, 0, assign_idx, 0)
    stats.nodes_expanded += 1
    stats.candidates_considered += mask.bit_count()
    if not mask:
        stats.backtracks += 1
        return True

    remaining = [0] * n      # untried candidate bits per depth
    placed = [0] * n         # bit of the host currently placed per depth
    remaining[0] = mask
    depth = 0
    used = 0
    last = n - 1
    order = plan.order
    host_nodes = plan.host_nodes
    node_ints = plan.node_ints
    cell_tables = plan.cell_tables
    masks_int = plan.masks_int
    record_mapping = context.record_mapping
    check_deadline = context.check_deadline
    expanded = considered = backtracks = 0
    poll_at = CHUNK_STEPS
    try:
        while depth >= 0:
            mask = remaining[depth]
            if not mask:
                # Depth exhausted: undo its placement (if any) and backtrack.
                bit = placed[depth]
                if bit:
                    used ^= bit
                    placed[depth] = 0
                depth -= 1
                continue
            low = mask & -mask
            remaining[depth] = mask ^ low
            prev = placed[depth]
            if prev:
                used ^= prev
            placed[depth] = low
            used |= low
            assign_idx[depth] = low.bit_length() - 1
            if depth == last:
                # A full-depth leaf is a feasible embedding (Fig. 4: "report
                # mapping defined by branch from node to root").
                mapping = dict(zip(order, [host_nodes[i] for i in assign_idx]))
                if record_mapping(mapping):
                    return False
                continue
            depth += 1
            slots = cell_tables[depth]
            if slots is None:
                child = node_ints[depth] & ~used
            else:
                child = -1
                for nb_depth, rows in slots:
                    row = rows[assign_idx[nb_depth]]
                    if row < 0:
                        child = 0
                        break
                    child &= masks_int[row]
                    if not child:
                        break
                if child:
                    child &= ~used
            expanded += 1
            considered += child.bit_count()
            remaining[depth] = child
            placed[depth] = 0
            if not child:
                backtracks += 1
            if expanded == poll_at:
                poll_at += CHUNK_STEPS
                check_deadline()
        return True
    finally:
        # Flushed on every exit — completion, cap, deadline or cancel — so
        # an interrupted run still reports the work it did.
        stats.nodes_expanded += expanded
        stats.candidates_considered += considered
        stats.backtracks += backtracks
