"""The process-wide fault injector: counters, firing, and the install API.

Production code marks its injection sites with a single call::

    from repro import faults
    faults.fire("server.reply")

When no plan is installed (the overwhelmingly common case) ``fire`` is a
module-level ``None`` check and returns immediately.  When a plan *is*
installed — by a test, by ``repro serve --fault-plan``, or by a benchmark —
the injector counts the invocation, looks the ``(site, invocation)`` pair up
in the plan, and either returns (no fault scheduled), sleeps (``slow-call``)
or raises a typed injected exception:

========================  =====================================================
kind                      raised exception / behaviour
========================  =====================================================
``engine-timeout``        :class:`InjectedEngineTimeout` (a
                          ``TimeoutExpired`` subclass)
``connection-drop``       :class:`InjectedConnectionDrop` (a
                          ``ConnectionError`` subclass; the server interprets
                          it by closing the connection without replying)
``partition-loss``        :class:`InjectedPartitionLoss` (a
                          ``ConnectionError`` subclass; the coordinator marks
                          the partition unavailable)
``slow-call``             ``time.sleep(spec.delay)`` then normal return
========================  =====================================================

Firing is recorded — :meth:`FaultInjector.stats` reports per-site invocation
counts and the full fired log — so tests and the metrics endpoint can assert
*exactly* which faults happened.  All counter updates are lock-protected;
determinism additionally requires that the workload drives each site in a
deterministic order (sequential clients, single-threaded engines), which is
how the fault suite and ``bench_faults`` are built.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.faults.plan import FaultPlan, FaultSpec
from repro.utils.timing import TimeoutExpired


class InjectedFault(Exception):
    """Mixin marking an exception as deliberately injected."""


class InjectedEngineTimeout(TimeoutExpired, InjectedFault):
    """An engine-side timeout injected at service-submission time."""


class InjectedConnectionDrop(ConnectionError, InjectedFault):
    """A connection drop injected just before the server replies."""


class InjectedPartitionLoss(ConnectionError, InjectedFault):
    """A partition worker loss injected at a cluster-coordinator site.

    A ``ConnectionError`` subclass: the coordinator treats it exactly like
    an unreachable worker — the partition is marked unavailable, the request
    continues on the surviving partitions, and a later
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.restore` (or
    :func:`~repro.cluster.repair.repair_placement`) brings it back.
    """


#: kind -> exception factory for the raising fault kinds.
_RAISERS = {
    "engine-timeout": lambda spec, n: InjectedEngineTimeout(
        f"injected engine timeout at {spec.site} invocation {n}"),
    "connection-drop": lambda spec, n: InjectedConnectionDrop(
        f"injected connection drop at {spec.site} invocation {n}"),
    "partition-loss": lambda spec, n: InjectedPartitionLoss(
        f"injected partition loss at {spec.site} invocation {n}"),
}


class FaultInjector:
    """Counts site invocations and fires the installed plan's faults."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._invocations: Dict[str, int] = {}
        self._fired: List[Dict[str, object]] = []

    def visit(self, site: str) -> Optional[FaultSpec]:
        """Count one invocation of ``site``; return the spec due to fire."""
        with self._lock:
            count = self._invocations.get(site, 0) + 1
            self._invocations[site] = count
            spec = self.plan.lookup(site, count)
            if spec is not None:
                self._fired.append(
                    {"site": site, "kind": spec.kind, "invocation": count})
            return spec

    def stats(self) -> Dict[str, object]:
        """Snapshot: per-site invocation counts, fired log, per-kind totals."""
        with self._lock:
            fired = [dict(entry) for entry in self._fired]
        counts: Dict[str, int] = {}
        for entry in fired:
            kind = str(entry["kind"])
            counts[kind] = counts.get(kind, 0) + 1
        with self._lock:
            invocations = dict(self._invocations)
        return {"invocations": invocations, "fired": fired,
                "fired_counts": counts, "total_fired": len(fired)}


#: The process-wide active injector (``None`` = fault injection off).
_active: Optional[FaultInjector] = None
_install_lock = threading.Lock()


def active() -> Optional[FaultInjector]:
    """The currently installed injector, if any."""
    return _active


def install(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` process-wide; returns its injector."""
    global _active
    with _install_lock:
        if _active is not None:
            raise RuntimeError("a fault plan is already installed; "
                               "deactivate() it first")
        _active = FaultInjector(plan)
        return _active


def deactivate() -> Optional[FaultInjector]:
    """Remove the installed injector (no-op when none is active)."""
    global _active
    with _install_lock:
        injector, _active = _active, None
        return injector


@contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Context manager: install ``plan`` for the block, then deactivate."""
    injector = install(plan)
    try:
        yield injector
    finally:
        deactivate()


def fire(site: str) -> None:
    """Mark one invocation of ``site``; raise/sleep if a fault is due.

    The fast path — no plan installed — is a single attribute read.
    """
    injector = _active
    if injector is None:
        return
    spec = injector.visit(site)
    if spec is None:
        return
    if spec.kind == "slow-call":
        time.sleep(spec.delay)
        return
    raise _RAISERS[spec.kind](spec, injector._invocations.get(site, 0))
