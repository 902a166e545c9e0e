"""The deterministic fault-injection subsystem (:mod:`repro.faults`).

Covers the plan layer (validation, JSON round trip, seeded Poisson draws),
the injector (counting, firing, install semantics) and the typed injected
exceptions — the contract every fault-tolerance test in the suite builds on.
Determinism is the core property: the same plan driven by the same call
sequence fires the same faults at the same invocations, every run.
"""

from __future__ import annotations

import time

import pytest

from repro import faults
from repro.faults import (
    KINDS,
    SITES,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedConnectionDrop,
    InjectedEngineTimeout,
    InjectedFault,
    InjectedPartitionLoss,
    validate_sites,
)
from repro.utils.timing import TimeoutExpired


# --------------------------------------------------------------------------- #
# FaultSpec validation
# --------------------------------------------------------------------------- #

class TestFaultSpec:
    def test_unknown_site_rejected(self):
        # parallel.shard-result named the retired query-sharding engine: an
        # old plan that still names it must fail loudly, not never fire.
        for site in ("no.such.site", "parallel.shard-result"):
            with pytest.raises(FaultPlanError, match="unknown fault site"):
                FaultSpec(site=site, kind="slow-call", hits=(1,))
            with pytest.raises(FaultPlanError, match="unknown fault site"):
                FaultPlan.from_payload({"specs": [
                    {"site": site, "kind": "slow-call", "hits": [1]}]})

    def test_kind_must_match_site(self):
        # admission.admit only understands slow-call.
        with pytest.raises(FaultPlanError, match="does not support"):
            FaultSpec(site="admission.admit", kind="connection-drop",
                      hits=(1,))

    def test_hits_are_sorted_and_deduplicated(self):
        spec = FaultSpec(site="service.submit", kind="slow-call",
                         hits=(5, 1, 3, 1))
        assert spec.hits == (1, 3, 5)

    def test_empty_hits_rejected(self):
        with pytest.raises(FaultPlanError, match="no hits"):
            FaultSpec(site="service.submit", kind="slow-call", hits=())

    def test_hits_are_one_based(self):
        with pytest.raises(FaultPlanError, match="1-based"):
            FaultSpec(site="service.submit", kind="slow-call", hits=(0, 2))

    def test_negative_delay_rejected(self):
        with pytest.raises(FaultPlanError, match="delay"):
            FaultSpec(site="service.submit", kind="slow-call", hits=(1,),
                      delay=-0.1)

    def test_every_declared_kind_is_in_kinds(self):
        for site, kinds in SITES.items():
            for kind in kinds:
                assert kind in KINDS, (site, kind)

    def test_validate_sites(self):
        validate_sites(SITES)          # every declared site passes
        with pytest.raises(FaultPlanError, match="unknown fault sites"):
            validate_sites(["server.reply", "bogus.site"])


class TestPoissonDraw:
    def test_same_seed_same_hits(self):
        a = FaultSpec.poisson("server.reply", "connection-drop",
                              rate=0.2, horizon=50.0, seed=7)
        b = FaultSpec.poisson("server.reply", "connection-drop",
                              rate=0.2, horizon=50.0, seed=7)
        assert a.hits == b.hits
        assert all(h >= 1 for h in a.hits)

    def test_different_seeds_differ(self):
        draws = {FaultSpec.poisson("server.reply", "connection-drop",
                                   rate=0.5, horizon=40.0, seed=s).hits
                 for s in range(5)}
        assert len(draws) > 1

    def test_empty_draw_is_an_error_not_a_silent_noop(self):
        with pytest.raises(FaultPlanError, match="no fault arrivals"):
            FaultSpec.poisson("server.reply", "connection-drop",
                              rate=1e-9, horizon=0.001, seed=0)


# --------------------------------------------------------------------------- #
# FaultPlan: indexing and the JSON round trip
# --------------------------------------------------------------------------- #

class TestFaultPlan:
    def test_lookup(self):
        plan = FaultPlan.fixed(
            FaultSpec("service.submit", "engine-timeout", hits=(2, 4)))
        assert plan.lookup("service.submit", 1) is None
        assert plan.lookup("service.submit", 2).kind == "engine-timeout"
        assert plan.lookup("server.reply", 2) is None
        assert plan.sites() == ["service.submit"]

    def test_duplicate_site_invocation_rejected(self):
        with pytest.raises(FaultPlanError, match="duplicate fault"):
            FaultPlan.fixed(
                FaultSpec("service.submit", "engine-timeout", hits=(2,)),
                FaultSpec("service.submit", "slow-call", hits=(2,)))

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.fixed(
            FaultSpec("server.reply", "connection-drop", hits=(1, 3)),
            FaultSpec("admission.admit", "slow-call", hits=(2,), delay=0.01))
        path = tmp_path / "plan.json"
        plan.to_json(path)
        loaded = FaultPlan.from_json(path)
        assert loaded == plan

    def test_from_payload_poisson_shape(self):
        plan = FaultPlan.from_payload({"specs": [
            {"site": "server.reply", "kind": "connection-drop",
             "poisson": {"rate": 0.2, "horizon": 50, "seed": 7}}]})
        direct = FaultSpec.poisson("server.reply", "connection-drop",
                                   rate=0.2, horizon=50.0, seed=7)
        assert plan.specs[0].hits == direct.hits

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"specs": "not a list"},
        {"specs": ["not a dict"]},
        {"specs": [{"site": "server.reply", "kind": "connection-drop"}]},
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_payload(payload)

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot load"):
            FaultPlan.from_json(tmp_path / "missing.json")


# --------------------------------------------------------------------------- #
# Injected exception typing
# --------------------------------------------------------------------------- #

class TestInjectedTypes:
    def test_engine_timeout_is_timeout_expired(self):
        assert issubclass(InjectedEngineTimeout, TimeoutExpired)

    def test_connection_drop_is_connection_error(self):
        assert issubclass(InjectedConnectionDrop, ConnectionError)

    def test_all_carry_the_injected_marker(self):
        for cls in (InjectedEngineTimeout, InjectedConnectionDrop,
                    InjectedPartitionLoss):
            assert issubclass(cls, InjectedFault)


# --------------------------------------------------------------------------- #
# The injector: counting, firing, install semantics
# --------------------------------------------------------------------------- #

class TestInjector:
    def test_fire_is_a_noop_without_a_plan(self):
        assert faults.active() is None
        faults.fire("service.submit")       # must not raise

    def test_injecting_installs_and_deactivates(self):
        plan = FaultPlan.fixed(
            FaultSpec("service.submit", "engine-timeout", hits=(1,)))
        with faults.injecting(plan) as injector:
            assert faults.active() is injector
            with pytest.raises(InjectedEngineTimeout):
                faults.fire("service.submit")
        assert faults.active() is None
        faults.fire("service.submit")       # off again

    def test_double_install_rejected(self):
        plan = FaultPlan.fixed(
            FaultSpec("service.submit", "slow-call", hits=(1,)))
        with faults.injecting(plan):
            with pytest.raises(RuntimeError, match="already installed"):
                faults.install(plan)

    def test_deactivate_even_when_body_raises(self):
        plan = FaultPlan.fixed(
            FaultSpec("service.submit", "slow-call", hits=(1,)))
        with pytest.raises(ValueError):
            with faults.injecting(plan):
                raise ValueError("boom")
        assert faults.active() is None

    def test_fires_exactly_at_the_scheduled_invocations(self):
        plan = FaultPlan.fixed(
            FaultSpec("service.submit", "engine-timeout", hits=(2, 5)))

        def drive() -> list:
            outcomes = []
            with faults.injecting(plan) as injector:
                for _ in range(6):
                    try:
                        faults.fire("service.submit")
                        outcomes.append("ok")
                    except InjectedEngineTimeout:
                        outcomes.append("timeout")
                stats = injector.stats()
            return outcomes, stats

        outcomes, stats = drive()
        assert outcomes == ["ok", "timeout", "ok", "ok", "timeout", "ok"]
        assert stats["invocations"] == {"service.submit": 6}
        assert stats["total_fired"] == 2
        assert stats["fired_counts"] == {"engine-timeout": 2}
        assert [f["invocation"] for f in stats["fired"]] == [2, 5]
        # Determinism: an identical second run yields the identical log.
        assert drive() == (outcomes, stats)

    def test_sites_are_counted_independently(self):
        plan = FaultPlan.fixed(
            FaultSpec("service.submit", "engine-timeout", hits=(2,)))
        with faults.injecting(plan) as injector:
            faults.fire("admission.admit")   # does not advance service.submit
            faults.fire("service.submit")
            with pytest.raises(InjectedEngineTimeout):
                faults.fire("service.submit")
            stats = injector.stats()
        assert stats["invocations"] == {"admission.admit": 1,
                                        "service.submit": 2}

    def test_slow_call_sleeps_then_returns(self):
        plan = FaultPlan.fixed(
            FaultSpec("admission.admit", "slow-call", hits=(1,), delay=0.05))
        with faults.injecting(plan) as injector:
            started = time.perf_counter()
            faults.fire("admission.admit")   # sleeps, must not raise
            elapsed = time.perf_counter() - started
            assert injector.stats()["fired_counts"] == {"slow-call": 1}
        assert elapsed >= 0.04

    @pytest.mark.parametrize("site,kind,expected", [
        ("service.submit", "engine-timeout", InjectedEngineTimeout),
        ("server.reply", "connection-drop", InjectedConnectionDrop),
        ("cluster.partition-search", "partition-loss", InjectedPartitionLoss),
    ])
    def test_every_raising_kind_fires_its_type(self, site, kind, expected):
        plan = FaultPlan.fixed(FaultSpec(site, kind, hits=(1,)))
        with faults.injecting(plan):
            with pytest.raises(expected):
                faults.fire(site)

    def test_injector_visit_is_the_counting_primitive(self):
        plan = FaultPlan.fixed(
            FaultSpec("server.reply", "connection-drop", hits=(2,)))
        injector = FaultInjector(plan)
        assert injector.visit("server.reply") is None
        spec = injector.visit("server.reply")
        assert spec is not None and spec.kind == "connection-drop"
        assert injector.visit("server.reply") is None
