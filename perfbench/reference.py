"""Reference answers computed apart from the engine.

Set-at-a-time semantics of each dialect over plain adjacency dicts built
from ``graph.edges``: no label index, CSR, automaton, planner or SQL
store is involved.  Answers are computed one source at a time, so the
benchmark checks a seeded sample of sources instead of whole relations.
The tests in ``test_perfbench.py`` pin this evaluator to the naive
executable specs of the library on small graphs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.api import Query, QueryKind
from repro.datapaths import conditions as cond
from repro.datapaths import ree, rem
from repro.gxpath import ast as gx
from repro.query.data_rpq import DataRPQ
from repro.query.rpq import RPQ
from repro.regular import ast as rx


class UnsupportedQuery(ValueError):
    """The reference evaluator does not cover this construct."""


class Reference:
    """Per-source answers of RPQs, REE/REM data RPQs, CRPQs and GXPath."""

    def __init__(self, graph):
        self.value: Dict = {node.id: node.value for node in graph.nodes}
        self.succ: Dict[str, Dict] = defaultdict(lambda: defaultdict(set))
        self.pred: Dict[str, Dict] = defaultdict(lambda: defaultdict(set))
        for source, label, target in graph.edges:
            self.succ[label][source.id].add(target.id)
            self.pred[label][target.id].add(source.id)
        self._memo: Dict[Tuple, FrozenSet] = {}

    # -- plain regular expressions: sets of nodes in, sets of nodes out --
    def _step(self, table, nodes: Iterable) -> Set:
        out: Set = set()
        for node in nodes:
            out |= table.get(node, set())
        return out

    def _closure(self, step, start: Set) -> Set:
        """Nodes reached by one or more applications of *step* from *start*."""
        reached = step(start)
        frontier = set(reached)
        while frontier:
            frontier = step(frontier) - reached
            reached |= frontier
        return reached

    def regex(self, expression, nodes: Set) -> Set:
        if isinstance(expression, rx.Epsilon):
            return set(nodes)
        if isinstance(expression, rx.Letter):
            return self._step(self.succ.get(expression.symbol, {}), nodes)
        if isinstance(expression, rx.Concat):
            return self.regex(expression.right, self.regex(expression.left, nodes))
        if isinstance(expression, rx.Union):
            return self.regex(expression.left, nodes) | self.regex(expression.right, nodes)
        if isinstance(expression, rx.Plus):
            return self._closure(lambda frontier: self.regex(expression.inner, frontier), nodes)
        if isinstance(expression, rx.Star):
            return set(nodes) | self._closure(
                lambda frontier: self.regex(expression.inner, frontier), nodes
            )
        raise UnsupportedQuery(f"regex construct {type(expression).__name__}")

    # -- REE: the tests compare a subpath's first and last values --------
    def ree(self, expression, node) -> FrozenSet:
        key = ("ree", id(expression), node)
        if key in self._memo:
            return self._memo[key]
        if isinstance(expression, ree.ReeEpsilon):
            out = {node}
        elif isinstance(expression, ree.ReeLetter):
            out = self.succ.get(expression.symbol, {}).get(node, set())
        elif isinstance(expression, ree.ReeConcat):
            out = set()
            for middle in self.ree(expression.left, node):
                out |= self.ree(expression.right, middle)
        elif isinstance(expression, ree.ReeUnion):
            out = self.ree(expression.left, node) | self.ree(expression.right, node)
        elif isinstance(expression, ree.ReePlus):
            out = set(self.ree(expression.inner, node))
            frontier = set(out)
            while frontier:
                fresh = set()
                for middle in frontier:
                    fresh |= self.ree(expression.inner, middle)
                frontier = fresh - out
                out |= frontier
        elif isinstance(expression, ree.ReeEqualTest):
            start = self.value[node]
            out = {end for end in self.ree(expression.inner, node) if self.value[end] == start}
        elif isinstance(expression, ree.ReeNotEqualTest):
            start = self.value[node]
            out = {end for end in self.ree(expression.inner, node) if self.value[end] != start}
        else:
            raise UnsupportedQuery(f"REE construct {type(expression).__name__}")
        out = frozenset(out)
        self._memo[key] = out
        return out

    # -- REM: configurations are (node, registers) ----------------------
    def _holds(self, condition, registers: Dict, value) -> bool:
        if isinstance(condition, cond.TrueCondition):
            return True
        if isinstance(condition, cond.Equal):
            return condition.variable in registers and registers[condition.variable] == value
        if isinstance(condition, cond.NotEqual):
            return condition.variable in registers and registers[condition.variable] != value
        if isinstance(condition, cond.And):
            return self._holds(condition.left, registers, value) and self._holds(
                condition.right, registers, value
            )
        if isinstance(condition, cond.Or):
            return self._holds(condition.left, registers, value) or self._holds(
                condition.right, registers, value
            )
        raise UnsupportedQuery(f"condition {type(condition).__name__}")

    def rem(self, expression, node, registers: Tuple = ()) -> FrozenSet:
        key = ("rem", id(expression), node, registers)
        if key in self._memo:
            return self._memo[key]
        if isinstance(expression, rem.RemEpsilon):
            out = {(node, registers)}
        elif isinstance(expression, rem.RemLetter):
            out = {(end, registers) for end in self.succ.get(expression.symbol, {}).get(node, ())}
        elif isinstance(expression, rem.RemConcat):
            out = set()
            for middle, middle_registers in self.rem(expression.left, node, registers):
                out |= self.rem(expression.right, middle, middle_registers)
        elif isinstance(expression, rem.RemUnion):
            out = self.rem(expression.left, node, registers) | self.rem(
                expression.right, node, registers
            )
        elif isinstance(expression, rem.RemPlus):
            out = set(self.rem(expression.inner, node, registers))
            frontier = set(out)
            while frontier:
                fresh = set()
                for config in frontier:
                    fresh |= self.rem(expression.inner, *config)
                frontier = fresh - out
                out |= frontier
        elif isinstance(expression, rem.RemTest):
            out = {
                (end, end_registers)
                for end, end_registers in self.rem(expression.inner, node, registers)
                if self._holds(expression.condition, dict(end_registers), self.value[end])
            }
        elif isinstance(expression, rem.RemBind):
            bound = dict(registers)
            for variable in expression.variables_bound:
                bound[variable] = self.value[node]
            out = self.rem(expression.inner, node, tuple(sorted(bound.items())))
        else:
            raise UnsupportedQuery(f"REM construct {type(expression).__name__}")
        out = frozenset(out)
        self._memo[key] = out
        return out

    # -- GXPath -----------------------------------------------------------
    def path(self, expression, node) -> FrozenSet:
        key = ("path", id(expression), node)
        if key in self._memo:
            return self._memo[key]
        if isinstance(expression, gx.PathEpsilon):
            out = {node}
        elif isinstance(expression, gx.Axis):
            table = self.pred if expression.inverse else self.succ
            out = table.get(expression.label, {}).get(node, set())
        elif isinstance(expression, gx.AxisStar):
            table = (self.pred if expression.inverse else self.succ).get(expression.label, {})
            out = {node} | self._closure(lambda frontier: self._step(table, frontier), {node})
        elif isinstance(expression, gx.PathConcat):
            out = set()
            for middle in self.path(expression.left, node):
                out |= self.path(expression.right, middle)
        elif isinstance(expression, gx.PathUnion):
            out = self.path(expression.left, node) | self.path(expression.right, node)
        elif isinstance(expression, gx.PathEqual):
            out = {end for end in self.path(expression.inner, node) if self.value[end] == self.value[node]}
        elif isinstance(expression, gx.PathNotEqual):
            out = {end for end in self.path(expression.inner, node) if self.value[end] != self.value[node]}
        elif isinstance(expression, gx.NodeTest):
            out = {node} if self.node_holds(expression.condition, node) else set()
        else:
            raise UnsupportedQuery(f"GXPath construct {type(expression).__name__}")
        out = frozenset(out)
        self._memo[key] = out
        return out

    def node_holds(self, expression, node) -> bool:
        if isinstance(expression, gx.NodeExists):
            return bool(self.path(expression.path, node))
        if isinstance(expression, gx.NodeNot):
            return not self.node_holds(expression.inner, node)
        if isinstance(expression, gx.NodeAnd):
            return self.node_holds(expression.left, node) and self.node_holds(expression.right, node)
        if isinstance(expression, gx.NodeOr):
            return self.node_holds(expression.left, node) or self.node_holds(expression.right, node)
        raise UnsupportedQuery(f"GXPath construct {type(expression).__name__}")

    # -- one atom / one query -------------------------------------------
    def atom_targets(self, query, node) -> FrozenSet:
        if isinstance(query, RPQ):
            return frozenset(self.regex(query.expression, {node}))
        if isinstance(query, DataRPQ):
            expression = query.expression
            if isinstance(expression, ree.RegexWithEquality):
                return self.ree(expression, node)
            return frozenset(end for end, _ in self.rem(expression, node))
        raise UnsupportedQuery(f"atom query {type(query).__name__}")

    def _crpq_rows(self, crpq, node) -> Set[Tuple]:
        """Rows whose first head variable is *node*, by backtracking over
        atoms whose source variable is already bound."""
        rows: Set[Tuple] = set()

        def extend(binding: Dict, remaining):
            if not remaining:
                rows.add(tuple(binding[variable] for variable in crpq.head))
                return
            ready = [atom for atom in remaining if atom.source in binding]
            if not ready:
                raise UnsupportedQuery("CRPQ atom with an unbound source variable")
            atom = ready[0]
            rest = [other for other in remaining if other is not atom]
            for end in self.atom_targets(atom.query, binding[atom.source]):
                if atom.target in binding:
                    if binding[atom.target] == end:
                        extend(binding, rest)
                else:
                    extend({**binding, atom.target: end}, rest)

        extend({crpq.head[0]: node}, list(crpq.atoms))
        return rows

    def rows_from(self, query: Query, node) -> FrozenSet[Tuple]:
        """The query's answer rows (as node-id tuples) that start at *node*."""
        kind = query.kind
        if kind is QueryKind.RPQ:
            return frozenset((node, end) for end in self.regex(query.plan.expression, {node}))
        if kind is QueryKind.DATA_RPQ:
            return frozenset((node, end) for end in self.atom_targets(query.plan, node))
        if kind is QueryKind.CRPQ:
            return frozenset(self._crpq_rows(query.plan, node))
        if kind is QueryKind.GXPATH_PATH:
            return frozenset((node, end) for end in self.path(query.plan, node))
        if kind is QueryKind.GXPATH_NODE:
            return frozenset([(node,)]) if self.node_holds(query.plan, node) else frozenset()
        raise UnsupportedQuery(f"query kind {kind}")


def rows_starting_at(rows, nodes) -> FrozenSet[Tuple]:
    """The engine's answer *rows* (tuples of Node) restricted to rows whose
    first node id is in *nodes*, as id tuples."""
    wanted = set(nodes)
    return frozenset(
        tuple(node.id for node in row) for row in rows if row[0].id in wanted
    )


def check_sample(reference: Reference, query: Query, rows, sample) -> None:
    """Raise AssertionError when the engine's *rows* disagree with the
    reference on any source in *sample*."""
    expected = frozenset().union(*(reference.rows_from(query, node) for node in sample))
    actual = rows_starting_at(rows, sample)
    if actual != expected:
        missing = sorted(map(repr, expected - actual))[:3]
        extra = sorted(map(repr, actual - expected))[:3]
        raise AssertionError(
            f"{query}: engine rows differ from the reference on sampled sources "
            f"(missing {missing}, extra {extra})"
        )
