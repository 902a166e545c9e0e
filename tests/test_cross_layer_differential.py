"""Cross-layer differential: the serving path vs. a fresh reference solve.

One property covers every layer a churned request crosses.  A random
hosting network, query and attribute-only churn sequence is driven through
``NetEmbedService.submit``: the first request compiles a plan, and after
every churn step the next request hits the plan cache, refreshes the plan
by ``patch_filters`` and runs the search kernel on the patched snapshot.
After every step the served mapping stream (with key order) and search
counters must equal a from-scratch ``ReferenceECF`` solve — the recursive
set-semantics oracle — on the mutated network.  A seeded RWB spec rides
along through the same cache-hit and patch path; its stream and counters
must equal a fresh ``ReferenceRWB`` solve with the same seed, which pins
RWB's root plan and per-subtree seed derivation on patched snapshots.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import ConstraintExpression
from repro.core import filters as filters_module
from repro.core.reference import ReferenceECF, ReferenceRWB
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork
from repro.service import NetEmbedService, QuerySpec

WINDOW = ("rEdge.avgDelay >= vEdge.minDelay && "
          "rEdge.avgDelay <= vEdge.maxDelay")
UP = "rNode.up == true"

#: One attribute-only mutation: (kind, target pick, value).  ``delay`` and
#: ``up`` are read by the constraints; ``loss`` and ``cpu`` never are.
churn_step = st.tuples(st.sampled_from(["delay", "loss", "up", "cpu"]),
                       st.integers(min_value=0, max_value=10 ** 6),
                       st.floats(min_value=1.0, max_value=80.0))


def build_network(seed: int):
    """A random hosting network with churnable attributes plus a query."""
    rng = random.Random(seed)
    num_hosts = rng.randint(5, 10)
    hosting = HostingNetwork("hosting")
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", up=True, cpuLoad=rng.uniform(0.0, 1.0))
    for i in range(num_hosts):
        for j in range(i + 1, num_hosts):
            if rng.random() < 0.55:
                hosting.add_edge(f"h{i}", f"h{j}",
                                 avgDelay=rng.uniform(5.0, 60.0))
    num_query = rng.randint(2, 4)
    query = QueryNetwork("query")
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(1, num_query):
        low = rng.uniform(0.0, 30.0)
        query.add_edge(f"q{rng.randrange(i)}", f"q{i}",
                       minDelay=round(low, 3),
                       maxDelay=round(low + rng.uniform(5.0, 40.0), 3))
    return hosting, query


def apply_step(hosting: HostingNetwork, mutations) -> None:
    edges = hosting.edges()
    nodes = hosting.nodes()
    for kind, pick, value in mutations:
        if kind in ("delay", "loss") and edges:
            u, v = edges[pick % len(edges)]
            if kind == "delay":
                hosting.update_edge(u, v, avgDelay=round(value, 3))
            else:
                hosting.update_edge(u, v, lossRate=round(value / 80.0, 3))
        elif kind == "up":
            hosting.update_node(nodes[pick % len(nodes)], up=value > 20.0)
        else:
            hosting.update_node(nodes[pick % len(nodes)],
                                cpuLoad=round(value / 80.0, 3))


def observables(result):
    """Mapping stream (with key order), outcome and search counters."""
    return (
        [list(m.as_dict().items()) for m in result.mappings],
        result.status,
        result.stats.nodes_expanded,
        result.stats.candidates_considered,
        result.stats.backtracks,
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       rwb_seed=st.integers(min_value=0, max_value=2 ** 32),
       with_node=st.booleans(),
       steps=st.lists(st.lists(churn_step, min_size=1, max_size=3),
                      min_size=1, max_size=4))
def test_served_stream_equals_reference_after_every_churn_step(
        seed, rwb_seed, with_node, steps):
    hosting, query = build_network(seed)
    constraint = ConstraintExpression(WINDOW)
    node_constraint = ConstraintExpression(UP) if with_node else None
    spec = QuerySpec(query=query, constraint=constraint,
                     node_constraint=node_constraint, algorithm="ECF")
    rwb_spec = QuerySpec(query=query, constraint=constraint,
                         node_constraint=node_constraint, algorithm="RWB",
                         seed=rwb_seed, max_results=5)

    def reference():
        return ReferenceECF().request(spec.to_request(hosting,
                                                      default_timeout=10.0))

    def rwb_reference():
        return ReferenceRWB(seed=rwb_seed).request(
            rwb_spec.to_request(hosting, default_timeout=10.0))

    # Every attr-only delta patches (none falls back to a recompile for
    # touching too many rows), so each step reaches patch_filters.
    with pytest.MonkeyPatch.context() as patch, \
            NetEmbedService(default_timeout=10.0) as service:
        patch.setattr(filters_module, "PATCH_ROW_FRACTION", 1.0)
        service.register_network(hosting, name="lab")
        assert (observables(service.submit(spec).result)
                == observables(reference()))
        assert (observables(service.submit(rwb_spec).result)
                == observables(rwb_reference()))
        for mutations in steps:
            apply_step(hosting, mutations)
            service.registry.touch("lab")
            served = service.submit(spec).result
            assert observables(served) == observables(reference())
            served = service.submit(rwb_spec).result
            assert observables(served) == observables(rwb_reference())
        stats = service.plans.stats()
    assert stats["recompiled"] == 0
    assert stats["patched"] == 2 * len(steps)
