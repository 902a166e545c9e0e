"""Deterministic fault plans: *what* fails, *where*, and on which invocation.

A :class:`FaultPlan` is a declarative schedule of faults keyed on **named
injection sites** — fixed points in the engine, service and server code that
call :func:`repro.faults.injection.fire` — and on the site's **invocation
index** (1-based: the third time the server replies, the fifth time a
request is submitted, …).  Counting invocations instead of wall-clock time is
what makes fault runs reproducible: the same seed and the same request
sequence hit the same faults in the same places, every run, regardless of
machine speed.

Two schedule shapes are supported:

* :meth:`FaultPlan.fixed` — explicit ``(site, kind, hits)`` triples;
* :meth:`FaultSpec.poisson` — hits drawn from a seeded Poisson process
  (via :func:`repro.workloads.arrivals.poisson_arrivals`, the same
  machinery that schedules request arrivals), with arrival *offsets*
  mapped onto invocation indices so the draw stays deterministic.

Plans serialise to/from JSON so ``repro serve --fault-plan plan.json`` can
load one, and validate eagerly: unknown sites or kinds a site does not
support are configuration errors, not silent no-ops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Every declared injection site and the fault kinds it understands.  A
#: site appears here exactly when some production code path calls
#: ``fire(site)``; keeping the registry closed turns plan typos into
#: immediate errors instead of plans that never fire.
SITES: Dict[str, Tuple[str, ...]] = {
    # service/netembed.py — entry of NetEmbedService.submit.
    "service.submit": ("engine-timeout", "slow-call"),
    # server/admission.py — entry of AdmissionController.admit.
    "admission.admit": ("slow-call",),
    # server/app.py — just before a request-path reply is written.
    "server.reply": ("connection-drop", "slow-call"),
    # cluster/coordinator.py — entry of one partition worker's search.
    "cluster.partition-search": ("partition-loss", "slow-call"),
    # cluster/replica.py — applying one replication payload to a replica.
    "cluster.replicate": ("connection-drop", "slow-call"),
}

#: All fault kinds any site understands (documentation + validation).
KINDS: Tuple[str, ...] = (
    "slow-call", "connection-drop", "engine-timeout", "partition-loss",
)


class FaultPlanError(ValueError):
    """A fault plan referenced an unknown site/kind or is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault schedule: ``kind`` fires at ``site`` on invocations ``hits``.

    Attributes
    ----------
    site:
        A key of :data:`SITES`.
    kind:
        A fault kind the site supports.
    hits:
        Sorted, unique, 1-based invocation indices at which the fault
        fires.  Invocation 1 is the first time the site is reached.
    delay:
        Sleep duration in seconds for ``slow-call`` faults (ignored by
        the raising kinds).
    """

    site: str
    kind: str
    hits: Tuple[int, ...]
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; declared sites: "
                f"{', '.join(sorted(SITES))}")
        if self.kind not in SITES[self.site]:
            raise FaultPlanError(
                f"site {self.site!r} does not support fault kind "
                f"{self.kind!r} (supported: {', '.join(SITES[self.site])})")
        hits = tuple(sorted(set(int(h) for h in self.hits)))
        if not hits:
            raise FaultPlanError(f"fault spec for {self.site!r} has no hits")
        if hits[0] < 1:
            raise FaultPlanError(
                f"hits are 1-based invocation indices, got {hits[0]}")
        if self.delay < 0:
            raise FaultPlanError(f"delay must be >= 0, got {self.delay}")
        object.__setattr__(self, "hits", hits)

    @classmethod
    def poisson(cls, site: str, kind: str, rate: float, horizon: float,
                seed: int, delay: float = 0.05) -> "FaultSpec":
        """Draw hit indices from a seeded Poisson process.

        Arrival offsets from :func:`poisson_arrivals` (rate faults per
        "unit", over ``horizon`` units) are mapped to invocation indices
        with ``floor(offset) + 1``, de-duplicated — so a rate of 0.2 over
        a horizon of 50 yields ~10 faults spread over the site's first 50
        invocations, identically for every run with the same seed.
        """
        from repro.workloads.arrivals import poisson_arrivals

        hits = sorted({int(math.floor(a.offset)) + 1
                       for a in poisson_arrivals(rate, horizon, rng=seed)})
        if not hits:
            # A legal draw: the process produced no arrivals inside the
            # horizon.  Represent it as an empty plan at the call site.
            raise FaultPlanError(
                f"poisson draw (rate={rate}, horizon={horizon}, seed={seed}) "
                f"produced no fault arrivals; widen the horizon or raise "
                f"the rate")
        return cls(site=site, kind=kind, hits=tuple(hits), delay=delay)

    def payload(self) -> Dict[str, object]:
        return {"site": self.site, "kind": self.kind,
                "hits": list(self.hits), "delay": self.delay}


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec` entries, indexed for lookup."""

    specs: Tuple[FaultSpec, ...]
    _index: Dict[Tuple[str, int], FaultSpec] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: Dict[Tuple[str, int], FaultSpec] = {}
        for spec in self.specs:
            for hit in spec.hits:
                key = (spec.site, hit)
                if key in index:
                    raise FaultPlanError(
                        f"duplicate fault at site {spec.site!r} "
                        f"invocation {hit}")
                index[key] = spec
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "_index", index)

    @classmethod
    def fixed(cls, *specs: FaultSpec) -> "FaultPlan":
        """Build a plan from explicit specs."""
        return cls(specs=tuple(specs))

    def lookup(self, site: str, invocation: int) -> Optional[FaultSpec]:
        """The spec firing at ``(site, invocation)``, or ``None``."""
        return self._index.get((site, invocation))

    def sites(self) -> List[str]:
        return sorted({spec.site for spec in self.specs})

    # -- JSON round trip ------------------------------------------------ #

    def payload(self) -> Dict[str, object]:
        return {"version": 1, "specs": [spec.payload() for spec in self.specs]}

    def to_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.payload(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FaultPlan":
        if not isinstance(payload, dict) or "specs" not in payload:
            raise FaultPlanError(
                "fault plan payload must be an object with a 'specs' list")
        specs: List[FaultSpec] = []
        raw_specs = payload["specs"]
        if not isinstance(raw_specs, list):
            raise FaultPlanError("'specs' must be a list")
        for raw in raw_specs:
            if not isinstance(raw, dict):
                raise FaultPlanError(f"fault spec must be an object: {raw!r}")
            site = raw.get("site")
            kind = raw.get("kind")
            delay = float(raw.get("delay", 0.05))
            if "poisson" in raw:
                draw = raw["poisson"]
                if not isinstance(draw, dict):
                    raise FaultPlanError("'poisson' must be an object")
                specs.append(FaultSpec.poisson(
                    site=site, kind=kind, rate=float(draw["rate"]),
                    horizon=float(draw["horizon"]), seed=int(draw["seed"]),
                    delay=delay))
            else:
                hits = raw.get("hits")
                if not isinstance(hits, (list, tuple)):
                    raise FaultPlanError(
                        f"fault spec needs 'hits' or 'poisson': {raw!r}")
                specs.append(FaultSpec(site=site, kind=kind,
                                       hits=tuple(hits), delay=delay))
        return cls.fixed(*specs)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "FaultPlan":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultPlanError(f"cannot load fault plan {path}: {exc}")
        return cls.from_payload(payload)


def validate_sites(sites: Iterable[str]) -> None:
    """Raise :class:`FaultPlanError` for any undeclared site name."""
    unknown = sorted(set(sites) - set(SITES))
    if unknown:
        raise FaultPlanError(f"unknown fault sites: {', '.join(unknown)}")
