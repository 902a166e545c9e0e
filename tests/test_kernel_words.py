"""Candidate masks at the 64-bit word width, and network pickling.

Candidate sets are unbounded Python ints over the dense host index.  This
suite pins the boundary cases a word width would introduce (exactly 64
hosts, 65, multiples of 64, all-zero and all-one masks, removals that empty
a trailing word) — where the kernel search must still equal the recursive
reference engines — and the pickling contract of hosting networks: derived
per-process caches never travel.
"""

from __future__ import annotations

import pickle

import pytest

from repro.constraints import ConstraintExpression
from repro.api import SearchRequest
from repro.api.request import Budget
from repro.core import ECF, RWB, build_filters
from repro.core.reference import ReferenceECF, ReferenceRWB
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")


# --------------------------------------------------------------------------- #
# Workload helpers
# --------------------------------------------------------------------------- #

def ring_workload(num_hosts: int, num_query: int = 3):
    """A hosting ring of *num_hosts* nodes and a path query over it."""
    hosting = HostingNetwork(f"ring-{num_hosts}")
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", name=f"h{i}", osType="linux")
    for i in range(num_hosts):
        hosting.add_edge(f"h{i}", f"h{(i + 1) % num_hosts}",
                         avgDelay=10.0 + (i % 5))
    query = QueryNetwork("path")
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(num_query - 1):
        query.add_edge(f"q{i}", f"q{i + 1}", minDelay=5.0, maxDelay=30.0)
    return query, hosting


def search_signature(result):
    """Everything the byte-identity contract covers, as a comparable value."""
    return (
        [list(m.as_dict().items()) for m in result.mappings],
        result.stats.nodes_expanded,
        result.stats.candidates_considered,
        result.stats.backtracks,
        result.stats.constraint_evaluations,
    )


def ecf_search(query, hosting, oracle: bool = False):
    """Full ECF enumeration via the kernel, or via the reference oracle."""
    algo = ReferenceECF() if oracle else ECF()
    return algo.request(SearchRequest.build(query, hosting, constraint=WINDOW))


def rwb_search(query, hosting, oracle: bool = False, seed: int = 17):
    """Seeded 50-result RWB sample via the kernel walk or the oracle walk."""
    algo = ReferenceRWB() if oracle else RWB()
    request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                  budget=Budget(max_results=50))
    return algo.prepare(request).execute(rng=seed)


# --------------------------------------------------------------------------- #
# Boundary cases around the 64-bit word width
# --------------------------------------------------------------------------- #

class TestWordBoundaries:
    @pytest.mark.parametrize("num_hosts", [63, 64, 65, 128])
    def test_kernel_matches_legacy_at_boundary(self, num_hosts):
        # The legacy engine is the recursive pre-bitset oracle.
        query, hosting = ring_workload(num_hosts)
        reference = ecf_search(query, hosting, oracle=True)
        fast = ecf_search(query, hosting)
        assert search_signature(reference) == search_signature(fast)
        assert reference.mappings  # the workload is feasible, not vacuous
        assert (search_signature(rwb_search(query, hosting, oracle=True))
                == search_signature(rwb_search(query, hosting)))

    def test_all_one_and_all_zero_words(self):
        # A trivially-true constraint fills the 64-host ring's candidate
        # masks up to the width; an unsatisfiable one leaves them empty.
        query, hosting = ring_workload(64)
        always = build_filters(query, hosting,
                               ConstraintExpression.always_true(), None)
        full = (1 << 64) - 1
        assert all(mask == full
                   for mask in always.node_candidate_masks.values())
        never = build_filters(
            query, hosting,
            ConstraintExpression("rEdge.avgDelay >= 1000.0"), None)
        assert all(mask == 0 for mask in never.match_masks.values())

    def test_node_removal_empties_trailing_word(self):
        # 65 hosts: h64 is alone in the second word.  Remove it and rebuild;
        # the shrunken masks must stay consistent with the kernel search.
        query, hosting = ring_workload(65)
        before = ecf_search(query, hosting)
        assert before.mappings
        hosting.remove_node("h64")
        hosting.add_edge("h63", "h0", avgDelay=10.0)
        filters = build_filters(query, hosting, WINDOW, None)
        assert all(mask < 1 << 64 for mask in filters.match_masks.values())
        reference = ecf_search(query, hosting, oracle=True)
        fast = ecf_search(query, hosting)
        assert search_signature(reference) == search_signature(fast)


# --------------------------------------------------------------------------- #
# Pickling: hosting networks drop their derived caches
# --------------------------------------------------------------------------- #

class TestPickleHygiene:
    def test_network_pickle_drops_derived_caches(self):
        query, hosting = ring_workload(24)
        build_filters(query, hosting, WINDOW, None)  # memoises the compile
        assert getattr(hosting, "_hosting_compile", None) is not None
        clone = pickle.loads(pickle.dumps(hosting))
        assert getattr(clone, "_hosting_compile", None) is None

    def test_register_derived_cache_extends_strip_list(self):
        from repro.graphs.network import Network

        original = Network._DERIVED_CACHE_ATTRS
        try:
            Network.register_derived_cache("_test_cache_attr")
            assert "_test_cache_attr" in Network._DERIVED_CACHE_ATTRS
            Network.register_derived_cache("_test_cache_attr")  # idempotent
            assert Network._DERIVED_CACHE_ATTRS.count("_test_cache_attr") == 1
            query, hosting = ring_workload(6)
            hosting._test_cache_attr = object()
            clone = pickle.loads(pickle.dumps(hosting))
            assert getattr(clone, "_test_cache_attr", None) is None
        finally:
            Network._DERIVED_CACHE_ATTRS = original
