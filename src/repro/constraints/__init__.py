"""The NETEMBED constraint expression language (paper §VI-B).

A *constraint expression* is a boolean expression, written in a Java-like
syntax, that is evaluated for every (query-edge, hosting-edge) pair.  If it
evaluates to true, that pair is an acceptable mapping.  The objects visible
inside an expression are those of Table I (``vEdge``, ``rEdge``, ``vSource``,
``vTarget``, ``rSource``, ``rTarget``); node-level constraints additionally
use ``vNode``/``rNode``.

The public entry point is :class:`ConstraintExpression`::

    from repro.constraints import ConstraintExpression

    expr = ConstraintExpression(
        "vEdge.avgDelay >= 0.9*rEdge.avgDelay && vEdge.avgDelay <= 1.1*rEdge.avgDelay")
    ok = expr.matches_edge(query, ("a", "b"), hosting, ("r3", "r7"))

The expression is parsed once and compiled to a fast closure; both the
reference evaluator and the compiled form are available and are required (and
tested) to agree.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.constraints import builder
from repro.constraints.ast_nodes import Expr, referenced_attributes, referenced_objects
from repro.constraints.compiler import compile_expression
from repro.constraints.context import (
    Context,
    EDGE_OBJECTS,
    NODE_OBJECTS,
    edge_context,
    literal_context,
    node_context,
)
from repro.constraints.errors import (
    ConstraintError,
    EvaluationError,
    LexError,
    ParseError,
    UnknownFunctionError,
    UnknownIdentifierError,
)
from repro.constraints.evaluator import evaluate, evaluate_value
from repro.constraints.functions import BUILTIN_FUNCTIONS, MISSING, is_missing
from repro.constraints.lexer import tokenize
from repro.constraints.parser import parse

from repro.graphs.network import Edge, Network, NodeId

__all__ = [
    "ConstraintExpression",
    "builder",
    "parse",
    "tokenize",
    "evaluate",
    "evaluate_value",
    "compile_expression",
    "edge_context",
    "node_context",
    "literal_context",
    "Context",
    "EDGE_OBJECTS",
    "NODE_OBJECTS",
    "MISSING",
    "is_missing",
    "BUILTIN_FUNCTIONS",
    "referenced_objects",
    "referenced_attributes",
    "ConstraintError",
    "LexError",
    "ParseError",
    "EvaluationError",
    "UnknownFunctionError",
    "UnknownIdentifierError",
]


class ConstraintExpression:
    """A parsed, compiled constraint expression ready to test edge/node pairs.

    Parameters
    ----------
    source:
        Constraint-language source text, an already-parsed
        :class:`~repro.constraints.ast_nodes.Expr`, or another
        :class:`ConstraintExpression` (copied).
    strict:
        Whether missing attributes raise instead of producing a non-match.

    Notes
    -----
    Instances are immutable and hashable on their source text, so they can be
    used as cache keys by the service layer.
    """

    def __init__(self, source: Union[str, Expr, "ConstraintExpression"] = "true",
                 strict: bool = False) -> None:
        if isinstance(source, ConstraintExpression):
            self._source = source.source
            self._ast = source.ast
        elif isinstance(source, Expr):
            self._ast = source
            self._source = source.unparse()
        else:
            self._source = str(source)
            self._ast = parse(self._source)
        self._strict = bool(strict)
        self._compiled = compile_expression(self._ast, strict=self._strict)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def source(self) -> str:
        """The original source text."""
        return self._source

    @property
    def ast(self) -> Expr:
        """The parsed abstract syntax tree."""
        return self._ast

    @property
    def strict(self) -> bool:
        """Whether evaluation is strict about missing attributes."""
        return self._strict

    @property
    def is_trivial(self) -> bool:
        """Whether the expression is the constant ``true`` (matches everything)."""
        from repro.constraints.ast_nodes import BooleanLiteral
        return isinstance(self._ast, BooleanLiteral) and self._ast.value is True

    def referenced_objects(self) -> list:
        """Context object names used by the expression."""
        return referenced_objects(self._ast)

    def referenced_attributes(self) -> list:
        """``(object, attribute)`` pairs used by the expression."""
        return referenced_attributes(self._ast)

    def uses_edge_objects(self) -> bool:
        """Whether the expression references any Table-I edge-context object."""
        return any(obj in EDGE_OBJECTS for obj in self.referenced_objects())

    def uses_node_objects(self) -> bool:
        """Whether the expression references the node-context objects."""
        return any(obj in NODE_OBJECTS for obj in self.referenced_objects())

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        """Pickle as (source, strict) only.

        The compiled evaluator and the memoised vectorizer kernel are
        closures (unpicklable, and process-local anyway); unpickling
        re-parses and re-compiles from source, which round-trips exactly —
        the AST-constructed path stores its own ``unparse()`` as source.
        """
        return {"source": self._source, "strict": self._strict}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["source"], strict=state["strict"])

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, context: Context) -> bool:
        """Evaluate against an explicit context mapping (compiled fast path)."""
        return self._compiled(context)

    def evaluate_reference(self, context: Context) -> bool:
        """Evaluate with the tree-walking reference evaluator (for testing)."""
        return evaluate(self._ast, context, strict=self._strict)

    def matches_edge(self, query: Network, query_edge: Edge,
                     hosting: Network, hosting_edge: Edge) -> bool:
        """Whether mapping *query_edge* onto *hosting_edge* satisfies the expression."""
        return self._compiled(edge_context(query, query_edge, hosting, hosting_edge))

    def matches_node(self, query: Network, query_node: NodeId,
                     hosting: Network, hosting_node: NodeId) -> bool:
        """Whether mapping *query_node* onto *hosting_node* satisfies a node expression."""
        return self._compiled(node_context(query, query_node, hosting, hosting_node))

    def __call__(self, context: Context) -> bool:
        return self._compiled(context)

    # ------------------------------------------------------------------ #
    # Combination
    # ------------------------------------------------------------------ #

    def and_also(self, other: Union[str, "ConstraintExpression"]) -> "ConstraintExpression":
        """Conjunction with another expression (returns a new expression)."""
        other_source = other.source if isinstance(other, ConstraintExpression) else str(other)
        return ConstraintExpression(f"({self._source}) && ({other_source})",
                                    strict=self._strict)

    def or_else(self, other: Union[str, "ConstraintExpression"]) -> "ConstraintExpression":
        """Disjunction with another expression (returns a new expression)."""
        other_source = other.source if isinstance(other, ConstraintExpression) else str(other)
        return ConstraintExpression(f"({self._source}) || ({other_source})",
                                    strict=self._strict)

    def negated(self) -> "ConstraintExpression":
        """Logical negation (returns a new expression)."""
        return ConstraintExpression(f"!({self._source})", strict=self._strict)

    def __and__(self, other: "ConstraintExpression") -> "ConstraintExpression":
        return self.and_also(other)

    def __or__(self, other: "ConstraintExpression") -> "ConstraintExpression":
        return self.or_else(other)

    def __invert__(self) -> "ConstraintExpression":
        return self.negated()

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def always_true(cls) -> "ConstraintExpression":
        """The unconstrained expression (pure topology embedding)."""
        return cls("true")

    @classmethod
    def always_false(cls) -> "ConstraintExpression":
        """An expression no pair satisfies (useful in tests)."""
        return cls("false")

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintExpression):
            return NotImplemented
        return self._source == other._source and self._strict == other._strict

    def __hash__(self) -> int:
        return hash((self._source, self._strict))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstraintExpression({self._source!r})"
