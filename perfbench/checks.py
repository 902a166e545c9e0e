"""Output checks: every returned mapping is validated, every request counted.

All of this runs outside the timed region.  A failed check is collected as
a message; the runner prints them and fails the run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core import validate_mapping
from repro.core.mapping import Mapping


class MappingChecker:
    """:func:`~repro.core.validate_mapping` for streams of many mappings.

    A full enumeration returns tens of thousands of mappings per query, and
    ``validate_mapping`` costs about 0.2 ms for each, more than the search
    that found them.  The conditions it checks split cleanly: coverage and
    injectivity belong to the whole mapping and are checked here directly,
    while node existence, topology and the edge constraint depend only on
    where one query edge lands.  Those are checked by ``validate_mapping``
    itself on the one-edge sub-query, once per distinct placement and
    model epoch, and the verdict is reused for every mapping that repeats
    the placement.
    """

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.mappings_checked = 0
        self._queries: Dict[int, Tuple[object, frozenset, list]] = {}
        self._verdicts: Dict[Tuple, bool] = {}
        self._epoch: Optional[Tuple[int, int]] = None

    def _query_parts(self, query):
        parts = self._queries.get(id(query))
        if parts is None or parts[0] is not query:
            edges = [(u, v, query.subnetwork([u, v])) for u, v in query.edges()]
            parts = (query, frozenset(query.nodes()), edges)
            self._queries[id(query)] = parts
        return parts

    def check(self, assignment: Dict[Hashable, Hashable], query, hosting,
              constraint, label: str) -> bool:
        """Check one mapping (a query-node → host dict) against the live
        model; records and returns whether it passed."""
        self.mappings_checked += 1
        epoch = (id(hosting), hosting.mutation_count)
        if epoch != self._epoch:
            self._verdicts.clear()
            self._epoch = epoch
        query, nodes, edges = self._query_parts(query)
        problem = None
        if assignment.keys() != nodes:
            problem = "does not cover exactly the query's nodes"
        elif len(set(assignment.values())) != len(assignment):
            problem = "is not injective"
        else:
            for edge_index, (u, v, sub) in enumerate(edges):
                ru, rv = assignment[u], assignment[v]
                key = (id(query), edge_index, ru, rv)
                verdict = self._verdicts.get(key)
                if verdict is None:
                    violations = validate_mapping(Mapping({u: ru, v: rv}), sub,
                                                  hosting, constraint)
                    verdict = not violations
                    self._verdicts[key] = verdict
                if not verdict:
                    problem = f"places query edge ({u}, {v}) on ({ru}, {rv}) illegally"
                    break
        if problem is not None:
            self.fail(f"{label}: mapping {assignment} {problem}")
            return False
        return True

    def fail(self, message: str) -> None:
        self.failures.append(message)


def stream_digest(assignments: Sequence[Dict]) -> str:
    """SHA-256 over a mapping stream, in stream and key order."""
    digest = hashlib.sha256()
    for assignment in assignments:
        digest.update(";".join(f"{q}={r}" for q, r in assignment.items())
                      .encode())
        digest.update(b"\n")
    return digest.hexdigest()


def host_lookup(hosting) -> Dict[str, Hashable]:
    """Wire mappings are stringified; map the strings back to host ids."""
    return {str(node): node for node in hosting.nodes()}


def decode_assignment(payload: Dict[str, str], hosts: Dict[str, Hashable],
                      query_nodes: Dict[str, Hashable]) -> Dict:
    return {query_nodes.get(q, q): hosts.get(r, r) for q, r in payload.items()}
