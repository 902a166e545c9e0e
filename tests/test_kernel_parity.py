"""Kernel parity: the search kernel vs. the recursive reference engines.

The explicit-stack ECF/RWB loops (``repro.core.kernel``) must be
*byte-identical* to the recursive oracles of ``repro.core.reference``: same
mapping streams in the same dict-key order, same ``SearchStats`` counters,
under result caps, tiny deadline-poll intervals and patched snapshots.
``ReferenceECF`` builds its own set-semantics filters and recurses over
them; ``ReferenceRWB`` shares RWB's prepare stage and root plan but walks
every subtree recursively through the filter accessors.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SearchRequest
from repro.api.request import Budget
from repro.constraints import ConstraintExpression
from repro.core import ECF, RWB
from repro.core import kernel
from repro.core.reference import ReferenceECF, ReferenceRWB
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")


def random_workload(seed: int, min_hosts: int = 6, max_hosts: int = 14):
    """A random embedding problem with delay-window constraints."""
    rng = random.Random(seed)
    num_hosts = rng.randint(min_hosts, max_hosts)
    hosting = HostingNetwork("hosting")
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", name=f"h{i}",
                         osType=rng.choice(["linux", "bsd"]))
    for i in range(num_hosts):
        for j in range(i + 1, num_hosts):
            if rng.random() < 0.45:
                hosting.add_edge(f"h{i}", f"h{j}",
                                 avgDelay=rng.uniform(5.0, 60.0))
    query = QueryNetwork("query")
    num_query = rng.randint(2, 5)
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(num_query - 1):
        query.add_edge(f"q{i}", f"q{i + 1}",
                       minDelay=0.0, maxDelay=rng.uniform(30.0, 70.0))
    if num_query > 2 and rng.random() < 0.5:
        query.add_edge("q0", f"q{num_query - 1}",
                       minDelay=0.0, maxDelay=rng.uniform(30.0, 70.0))
    return query, hosting


def observables(result):
    """Mapping stream (with key order) + search counters."""
    return (
        [list(m.as_dict().items()) for m in result.mappings],
        result.status,
        result.timed_out,
        result.truncated,
        result.stats.nodes_expanded,
        result.stats.candidates_considered,
        result.stats.backtracks,
        result.stats.constraint_evaluations,
    )


#: Engine under test and its oracle, per algorithm name.
ENGINES = {"ECF": (ECF, ReferenceECF), "RWB": (RWB, ReferenceRWB)}


def run(name: str, query, hosting, seed: int = 0, cap=None,
        oracle: bool = False):
    """One search; *oracle* selects the reference engine for *name*."""
    budget = Budget(max_results=cap) if cap else (
        Budget(max_results=10 ** 6) if name == "RWB" else Budget())
    request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                  budget=budget)
    algo = ENGINES[name][1 if oracle else 0]()
    if name == "ECF" and oracle:
        return algo.request(request)   # its own set filters, no plan
    rng = seed if name == "RWB" else None
    return algo.prepare(request).execute(rng=rng)


# --------------------------------------------------------------------------- #
# Randomized stream/counter parity
# --------------------------------------------------------------------------- #

class TestKernelStreamParity:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           name=st.sampled_from(["ECF", "RWB"]))
    def test_random_workloads(self, seed, name):
        query, hosting = random_workload(seed)
        reference = run(name, query, hosting, seed=seed, oracle=True)
        fast = run(name, query, hosting, seed=seed)
        assert observables(reference) == observables(fast)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           cap=st.integers(min_value=1, max_value=5),
           name=st.sampled_from(["ECF", "RWB"]))
    def test_result_cap_truncation(self, seed, cap, name):
        """Caps must stop the kernel at exactly the capping leaf."""
        query, hosting = random_workload(seed)
        reference = run(name, query, hosting, seed=seed, cap=cap, oracle=True)
        fast = run(name, query, hosting, seed=seed, cap=cap)
        assert observables(reference) == observables(fast)

    def test_chunk_pause_resume_is_invisible(self, monkeypatch):
        """Tiny poll intervals interleave deadline checks with the search;
        results can't change."""
        query, hosting = random_workload(42, min_hosts=10, max_hosts=10)
        baseline = run("ECF", query, hosting)
        monkeypatch.setattr(kernel, "CHUNK_STEPS", 3)
        chunked = run("ECF", query, hosting)
        assert observables(baseline) == observables(chunked)
        reference = run("ECF", query, hosting, oracle=True)
        assert observables(reference) == observables(chunked)
        for cap in (1, 7):
            assert (observables(run("ECF", query, hosting, cap=cap))
                    == observables(run("ECF", query, hosting, cap=cap,
                                       oracle=True)))


# --------------------------------------------------------------------------- #
# Seeded RWB streams, pinned
# --------------------------------------------------------------------------- #

#: Seed -> (mapping stream, nodes_expanded, candidates_considered,
#: backtracks) for a 4-result RWB sample of ``random_workload(11, 10, 12)``.
#: ``ReferenceRWB`` shares RWB's root plan and subtree-seed derivation, so
#: only a recorded stream catches a change to either.
PINNED_RWB_STREAMS = {
    5: ([[("q1", "h9"), ("q2", "h8"), ("q3", "h1"), ("q0", "h3"), ("q4", "h6")],
         [("q1", "h9"), ("q2", "h8"), ("q3", "h1"), ("q0", "h3"), ("q4", "h7")],
         [("q1", "h9"), ("q2", "h8"), ("q3", "h1"), ("q0", "h3"), ("q4", "h5")],
         [("q1", "h9"), ("q2", "h8"), ("q3", "h1"), ("q0", "h6"), ("q4", "h7")]],
        6, 25, 0),
    2024: ([[("q1", "h0"), ("q2", "h10"), ("q3", "h7"), ("q0", "h5"), ("q4", "h2")],
            [("q1", "h0"), ("q2", "h10"), ("q3", "h7"), ("q0", "h5"), ("q4", "h1")],
            [("q1", "h0"), ("q2", "h5"), ("q3", "h7"), ("q0", "h10"), ("q4", "h1")],
            [("q1", "h0"), ("q2", "h5"), ("q3", "h7"), ("q0", "h10"), ("q4", "h2")]],
           8, 24, 0),
}


class TestSeededStreamPinned:
    def test_rwb_seeded_streams_match_the_record(self):
        query, hosting = random_workload(11, min_hosts=10, max_hosts=12)
        request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                      budget=Budget(max_results=4))
        for seed, expected in PINNED_RWB_STREAMS.items():
            for algo in (RWB(), ReferenceRWB()):
                result = algo.prepare(request).execute(rng=seed)
                assert ([list(m.as_dict().items()) for m in result.mappings],
                        result.stats.nodes_expanded,
                        result.stats.candidates_considered,
                        result.stats.backtracks) == expected


# --------------------------------------------------------------------------- #
# Kernel-plan cache
# --------------------------------------------------------------------------- #

class TestKernelPlanCache:
    def test_plan_cache_invalidation_on_order_change(self):
        from repro.core import build_filters
        from repro.core.base import placed_neighbor_plan

        query, hosting = random_workload(7)
        filters = build_filters(query, hosting, WINDOW, None)
        order = sorted(query.nodes(), key=str)
        prior = placed_neighbor_plan(query, order)
        first = kernel.plan_for(filters, order, prior)
        assert kernel.plan_for(filters, order, prior) is first  # cached
        reordered = list(reversed(order))
        re_prior = placed_neighbor_plan(query, reordered)
        second = kernel.plan_for(filters, reordered, re_prior)
        assert second is not first
        assert second.order == tuple(reordered)

    def test_plan_cache_invalidation_on_prior_change(self):
        from repro.core import build_filters
        from repro.core.base import placed_neighbor_plan

        query, hosting = random_workload(7)
        filters = build_filters(query, hosting, WINDOW, None)
        order = sorted(query.nodes(), key=str)
        prior = placed_neighbor_plan(query, order)
        assert any(prior)   # the workload has placed-neighbour slots
        first = kernel.plan_for(filters, order, prior)
        # Same order, different prior: the cached plan's cell tables
        # would be stale — the cache must miss.
        blank = [tuple()] * len(order)
        second = kernel.plan_for(filters, order, blank)
        assert second is not first
        assert second.prior == tuple(blank)


# --------------------------------------------------------------------------- #
# Patched snapshots keep their kernel rows aligned with a fresh build
# --------------------------------------------------------------------------- #

class TestPatchedWordParity:
    @staticmethod
    def _reorder_workload(flip: bool):
        """Six hosts where h0's only in-window edge swaps under churn."""
        in_delay, out_delay = 10.0, 1000.0
        if flip:
            in_delay, out_delay = out_delay, in_delay
        hosting = HostingNetwork("hosting")
        for i in range(6):
            hosting.add_node(f"h{i}", name=f"h{i}", osType="linux")
        hosting.add_edge("h0", "h1", avgDelay=in_delay)
        hosting.add_edge("h0", "h2", avgDelay=out_delay)
        hosting.add_edge("h1", "h2", avgDelay=10.0)
        hosting.add_edge("h2", "h3", avgDelay=10.0)
        hosting.add_edge("h3", "h4", avgDelay=10.0)
        hosting.add_edge("h4", "h5", avgDelay=10.0)
        query = QueryNetwork("query")
        query.add_node("q0")
        query.add_node("q1")
        query.add_edge("q0", "q1", minDelay=5.0, maxDelay=30.0)
        return query, hosting

    def test_patch_reorder_keeps_word_rows_aligned(self):
        # A patch that empties a cell deletes its key; a later row in the
        # SAME patch can re-set the cell, re-inserting the key at the end
        # of the dict — identical key set, different enumeration order.
        # Kernel row ids come from dict enumeration order, so the patched
        # snapshot must still equal a fresh build and search like the
        # oracle.
        from repro.core import build_filters
        from repro.core.filters import patch_filters

        reordered_any = False
        for flip in (False, True):
            query, hosting = self._reorder_workload(flip)
            filters = build_filters(query, hosting, WINDOW, None)
            base_order = list(filters.match_masks)
            epoch = hosting.mutation_count
            # Swap which h0 edge satisfies the window: h0's cells empty
            # under one touched row and re-fill under the other.
            hosting.update_edge("h0", "h1",
                                avgDelay=1000.0 if not flip else 10.0)
            hosting.update_edge("h0", "h2",
                                avgDelay=10.0 if not flip else 1000.0)
            delta = hosting.delta_since(epoch)
            assert delta is not None and delta.attrs_only
            patched = patch_filters(filters, query, hosting, WINDOW, None,
                                    delta=delta, max_row_fraction=1.0)
            assert patched is not None
            reordered_any |= list(patched.match_masks) != base_order
            rebuilt = build_filters(query, hosting, WINDOW, None)
            assert patched.match_masks == rebuilt.match_masks
            assert patched.non_match_masks == rebuilt.non_match_masks
            assert patched.node_candidate_masks == rebuilt.node_candidate_masks
            # Searching the patched snapshot builds its kernel plan from the
            # patched key order; the stream must still match the oracle.
            request = SearchRequest.build(query, hosting, constraint=WINDOW)
            plan = ECF().prepare(request)
            plan.prepared.filters = patched
            assert (observables(plan.execute())
                    == observables(ReferenceECF().request(request)))
        assert reordered_any    # the churn really moved a key's position
