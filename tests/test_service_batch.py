"""Tests for the batch/streaming service layer: submit_batch ordering,
per-request timeout isolation, thread-pool reuse, per-request seeds and the
unregistered-network error surface."""

from __future__ import annotations

import pytest

from repro.graphs import QueryNetwork
from repro.service import (
    FixedSelectionPolicy,
    NetEmbedService,
    QuerySpec,
    UnknownNetworkError,
)
from repro.workloads import planetlab_host

WINDOW = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"


def _query(name: str = "q", nodes: int = 3) -> QueryNetwork:
    query = QueryNetwork(name)
    labels = [f"{name}-{i}" for i in range(nodes)]
    for label in labels:
        query.add_node(label)
    for left, right in zip(labels, labels[1:]):
        query.add_edge(left, right, minDelay=0.0, maxDelay=10_000.0)
    return query


@pytest.fixture
def service(small_hosting):
    with NetEmbedService(rng=7, max_workers=4) as service:
        service.register_network(small_hosting, name="lab")
        yield service


class TestSubmitBatch:
    def test_responses_come_back_in_input_order(self, service, window_constraint):
        algorithms = ["ECF", "LNS", "RWB", "stress", "ECF", "bruteforce"]
        specs = [QuerySpec(query=_query(f"q{i}"), constraint=window_constraint,
                           algorithm=name, max_results=1, seed=3)
                 for i, name in enumerate(algorithms)]
        responses = service.submit_batch(specs)
        assert len(responses) == len(specs)
        for spec, response in zip(specs, responses):
            assert response.spec is spec
            assert response.found

    def test_many_specs_on_small_pool_preserve_order(self, small_hosting,
                                                     window_constraint):
        with NetEmbedService(max_workers=2) as service:
            service.register_network(small_hosting, name="lab")
            specs = [QuerySpec(query=_query(f"q{i}"), constraint=window_constraint,
                               algorithm="ECF") for i in range(12)]
            responses = service.submit_batch(specs)
        assert [r.spec.query.name for r in responses] == \
            [f"q{i}" for i in range(12)]

    def test_per_request_timeouts_are_independent(self, window_constraint):
        # One spec gets a budget far too small for full enumeration on a
        # dense network; its neighbours in the batch must still complete.
        with NetEmbedService(max_workers=3) as service:
            service.register_network(planetlab_host(30, rng=1), name="dense")
            slow = QuerySpec(query=_query("slow", nodes=6), algorithm="ECF",
                             timeout=0.02)
            fast_before = QuerySpec(query=_query("fast0"), algorithm="LNS",
                                    max_results=1, timeout=10.0)
            fast_after = QuerySpec(query=_query("fast1"), algorithm="LNS",
                                   max_results=1, timeout=10.0)
            responses = service.submit_batch([fast_before, slow, fast_after])
        assert responses[1].result.timed_out
        assert not responses[0].result.timed_out and responses[0].found
        assert not responses[2].result.timed_out and responses[2].found

    def test_thread_pool_is_created_lazily_and_reused(self, service,
                                                      window_constraint):
        assert service.executor is None
        specs = [QuerySpec(query=_query("a"), constraint=window_constraint,
                           algorithm="ECF")]
        service.submit_batch(specs)
        pool = service.executor
        assert pool is not None
        service.submit_batch(specs)
        assert service.executor is pool

    def test_stats_reports_the_batch_pool_only(self, service,
                                               window_constraint):
        # The batch thread pool is the service's one execution pool.
        assert service.stats()["pools"] == {
            "batch_threads": {"created": False, "max_workers": None}}
        service.submit_batch([QuerySpec(query=_query("a"),
                                        constraint=window_constraint,
                                        algorithm="ECF")])
        pools = service.stats()["pools"]
        assert list(pools) == ["batch_threads"]
        assert pools["batch_threads"]["created"] is True
        assert pools["batch_threads"]["max_workers"] >= 1

    def test_shutdown_clears_the_pool(self, small_hosting, window_constraint):
        service = NetEmbedService()
        service.register_network(small_hosting, name="lab")
        service.submit_batch([QuerySpec(query=_query("a"),
                                        constraint=window_constraint)])
        assert service.executor is not None
        service.shutdown()
        assert service.executor is None

    def test_return_exceptions_keeps_slots(self, service, window_constraint):
        good = QuerySpec(query=_query("good"), constraint=window_constraint,
                         algorithm="ECF")
        bad = QuerySpec(query=_query("bad"), network="ghost")
        results = service.submit_batch([good, bad, good],
                                       return_exceptions=True)
        assert results[0].found and results[2].found
        assert isinstance(results[1], UnknownNetworkError)

    def test_default_raises_first_failure(self, service):
        with pytest.raises(UnknownNetworkError):
            service.submit_batch([QuerySpec(query=_query("bad"), network="ghost")])

    def test_per_request_seeds_make_batches_reproducible(self, service,
                                                         window_constraint):
        specs = [QuerySpec(query=_query("q", nodes=3), constraint=window_constraint,
                           algorithm="RWB", max_results=1, seed=seed)
                 for seed in (1, 2, 3, 4)]
        first = service.submit_batch(specs)
        second = service.submit_batch(specs)
        for a, b in zip(first, second):
            assert [m.as_dict() for m in a.mappings] == \
                [m.as_dict() for m in b.mappings]


class TestUnknownNetworkSurface:
    def test_error_is_not_a_keyerror_and_lists_names(self, service):
        with pytest.raises(UnknownNetworkError) as excinfo:
            service.embed(_query("q"), network="ghost")
        error = excinfo.value
        assert not isinstance(error, KeyError)
        message = str(error)
        assert "ghost" in message and "lab" in message
        assert error.available == ["lab"]

    def test_empty_registry_message_points_at_register(self, path_query):
        with pytest.raises(ValueError, match="register_network"):
            NetEmbedService().embed(path_query)


class TestServiceStreaming:
    def test_stream_yields_lazily(self, service, window_constraint):
        spec = QuerySpec(query=_query("s"), constraint=window_constraint,
                         algorithm="ECF")
        stream = service.stream(spec)
        first = next(stream)
        assert first.is_injective()
        rest = list(stream)
        eager = service.submit(spec)
        assert 1 + len(rest) == len(eager.mappings)

    def test_stream_rejects_reservations(self, service):
        spec = QuerySpec(query=_query("s"), reserve=True)
        with pytest.raises(ValueError, match="reserve"):
            service.stream(spec)


class TestSelectionPolicyWiring:
    def test_service_honours_custom_policy(self, small_hosting, window_constraint):
        service = NetEmbedService(selection_policy=FixedSelectionPolicy("stress"))
        service.register_network(small_hosting, name="lab")
        response = service.embed(_query("q"), constraint=window_constraint)
        assert response.algorithm_used == "Greedy-stress"

    def test_explicit_baseline_name_accepted(self, service, window_constraint):
        response = service.embed(_query("q"), constraint=window_constraint,
                                 algorithm="bruteforce", max_results=1)
        assert response.algorithm_used == "BruteForceCSP"
        assert response.found


class TestQuerySpecValidation:
    def test_seed_type_checked(self, path_query):
        with pytest.raises(TypeError):
            QuerySpec(query=path_query, seed="seven")

    def test_budget_fields_validated(self, path_query):
        with pytest.raises(ValueError):
            QuerySpec(query=path_query, timeout=0)
        with pytest.raises(ValueError):
            QuerySpec(query=path_query, max_results=0)

    def test_unknown_algorithm_rejected_with_names(self, path_query):
        with pytest.raises(ValueError, match="auto"):
            QuerySpec(query=path_query, algorithm="magic")

    def test_custom_registry_names_validate(self, path_query):
        from repro.api import AlgorithmRegistry, Capability
        from repro.core import LNS

        registry = AlgorithmRegistry()
        registry.register("novel", LNS, tags=["core"], capabilities=[
            Capability.COMPLETE_ENUMERATION, Capability.SUPPORTS_DIRECTED])
        spec = QuerySpec(query=path_query, algorithm="novel", registry=registry)
        assert spec.algorithm == "novel"
        with pytest.raises(ValueError):
            QuerySpec(query=path_query, algorithm="novel")   # not in default
