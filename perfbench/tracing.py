"""Span recording for the traced run, from outside the program.

Every span is recorded by a wrapper this module installs around a public
function of one layer, at the name its caller looks the function up by
(``repro.core.ecf.build_filters``, not ``repro.core.filters.build_filters``,
because ``ecf.py`` binds the name at import).  Nothing in ``src/`` changes.

A span is ``(id, name, start, end, parent)``.  The parent is the span that
was open in the same thread or asyncio task when the wrapped call began;
the one hop the program makes between threads (the server's event loop
hands each admitted request to an engine worker) is linked explicitly by
the spec object the request travels in.  A span's *self time* is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

Span = Tuple[int, str, float, float, Optional[int]]


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it.

    Wrappers record only while :attr:`recording` is true, so set-up and
    warm-up traffic run through the same wrapped code without being
    counted.
    """

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._links: Dict[int, Optional[int]] = {}
        self._restore: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------ #

    def count(self, name: str, amount: float = 1) -> None:
        if self.recording:
            with self._lock:
                self.counts[name] += amount

    def link(self, carrier: object) -> None:
        """Remember the open span as the parent of work done for *carrier*."""
        if self.recording:
            self._links[id(carrier)] = _CURRENT.get()

    def _open(self, root: bool, carrier_arg: Optional[int], args):
        span_id = next(self._ids)
        parent = None if root else _CURRENT.get()
        if parent is None and carrier_arg is not None:
            parent = self._links.pop(id(args[carrier_arg]), None)
        return span_id, parent, _CURRENT.set(span_id), time.perf_counter()

    def _close(self, name, span_id, parent, token, start) -> None:
        end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append((span_id, name, start, end, parent))

    def wrap(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Options are those of :meth:`wrapped`.
        """
        original = getattr(owner, attr)
        self._restore.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, self.wrapped(original, name, **options))

    def wrap_item(self, table: dict, key, name: str, **options) -> None:
        """Replace ``table[key]`` with a span-recording wrapper."""
        original = table[key]
        self._restore.append(lambda: table.__setitem__(key, original))
        table[key] = self.wrapped(original, name, **options)

    def wrapped(self, original: Callable, name: str, *, root: bool = False,
                carrier_arg: Optional[int] = None,
                on_result: Optional[Callable] = None) -> Callable:
        """A span-recording wrapper around *original* (sync or async).

        *root* starts a new span tree instead of inheriting the open span
        (an asyncio task inherits the context of whichever task created it,
        which need not be a caller).  *carrier_arg* names the positional
        argument whose :meth:`link` supplies the parent across a thread
        hop.  *on_result* is called with ``(args, result)`` to record
        counts.
        """
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return await original(*args, **kwargs)
                state = tracer._open(root, carrier_arg, args)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(name, *state)
                if on_result is not None:
                    on_result(args, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return original(*args, **kwargs)
                state = tracer._open(root, carrier_arg, args)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(name, *state)
                if on_result is not None:
                    on_result(args, result)
                return result
        return wrapper

    def uninstall(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._restore:
            self._restore.pop()()

    # -- analysis ------------------------------------------------------- #

    def self_times(self, window: Tuple[float, float]) -> Dict[str, float]:
        """Total self time per span name, over spans inside *window*."""
        lo, hi = window
        spans = [s for s in self.spans if s[2] >= lo and s[3] <= hi]
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span[4] is not None:
                children[span[4]].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in spans:
            covered = 0.0
            reach = start
            for _, _, c_start, c_end, _ in sorted(children.get(span_id, ()),
                                                 key=lambda s: s[2]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def span_count(self, window: Tuple[float, float]) -> int:
        lo, hi = window
        return sum(1 for s in self.spans if s[2] >= lo and s[3] <= hi)


def wrapper_cost(rounds: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on this machine.

    Times a wrapped no-op against the bare no-op; the traced run multiplies
    this by its span count to report ``trace.overhead_frac``.
    """
    class Probe:
        @staticmethod
        def noop():
            return None

    bare = Probe.noop
    started = time.perf_counter()
    for _ in range(rounds):
        bare()
    bare_seconds = time.perf_counter() - started

    probe = Tracer()
    probe.wrap(Probe, "noop", "probe")
    probe.recording = True
    wrapped = Probe.noop
    started = time.perf_counter()
    for _ in range(rounds):
        wrapped()
    wrapped_seconds = time.perf_counter() - started
    probe.uninstall()
    return max(0.0, wrapped_seconds - bare_seconds) / rounds


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points at the names callers use.

    Stage names follow the stage vocabulary of the project roadmap:
    admission wait, plan-cache lookup, hosting compile, filter build,
    ordering, search and wire encoding.
    """
    import repro.core.ecf as ecf
    import repro.core.filters as filters
    import repro.core.ordering as ordering
    import repro.server.app as app
    import repro.server.client as client
    import repro.server.protocol as protocol
    from repro.core.plan import EmbeddingPlan, PlanCache
    from repro.service.netembed import NetEmbedService
    from repro.service.reservation import ReservationManager
    from repro.workloads.churn import ChurnProcess

    def filter_counts(_args, built) -> None:
        tracer.count("core.filters.entries", built.entry_count)
        tracer.count("core.filters.constraint_evaluations",
                     built.constraint_evaluations)

    def search_counts(_args, result) -> None:
        tracer.count("core.search.nodes_expanded", result.stats.nodes_expanded)
        tracer.count("core.search.mappings", len(result.mappings))

    def bytes_out(args, frame) -> None:
        if "kind" in args[0]:          # responses carry a kind, requests an op
            tracer.count("server.protocol.bytes_out", len(frame))

    # The library path.  ECF binds build_filters at import; base.py imports
    # patch_filters inside the call, so it is looked up on the module; ECF
    # instances bind their ordering function from ORDERINGS when built.
    tracer.wrap(NetEmbedService, "submit", "service.submit", carrier_arg=1)
    tracer.wrap(PlanCache, "get", "core.plan.lookup")
    tracer.wrap(ecf, "build_filters", "core.filters.build",
                on_result=filter_counts)
    tracer.wrap(filters, "compile_hosting", "core.filters.compile_hosting")
    tracer.wrap(filters, "patch_filters", "core.filters.patch")
    for key in list(ordering.ORDERINGS):
        tracer.wrap_item(ordering.ORDERINGS, key, "core.ordering.order")
    tracer.wrap(EmbeddingPlan, "execute", "core.search.execute",
                on_result=search_counts)
    tracer.wrap(ReservationManager, "reserve", "service.reservation.reserve")
    tracer.wrap(ReservationManager, "release", "service.reservation.release")
    tracer.wrap(ChurnProcess, "tick", "graphs.churn_tick")

    # The serving path.  Frames are encoded and decoded by the protocol
    # module's own functions (write_message / read_message look them up
    # there); the server binds query_from_payload at import, the client
    # network_payload.  Building the answer's mapping list is wire encoding.
    tracer.wrap(protocol, "encode_message", "server.protocol.encode",
                on_result=bytes_out)
    tracer.wrap(protocol, "decode_message", "server.protocol.decode")
    tracer.wrap(app, "query_from_payload", "server.protocol.decode")
    tracer.wrap(client, "network_payload", "server.protocol.encode")
    tracer.wrap(app.EmbeddingServer, "_result_payload",
                "server.protocol.encode")
    tracer.wrap(app.EmbeddingServer, "_run_ticket", "server.app.dispatch",
                root=True)
    # The engine worker's submit span hangs under the dispatch span that
    # built its spec.
    tracer.wrap(app.EmbeddingServer, "_spec_for", "server.app.dispatch",
                on_result=lambda _args, spec: tracer.link(spec))
