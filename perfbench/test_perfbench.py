"""Self-tests of the benchmark: the tail-percentile rule, the reference
evaluator against the library's naive executable specs, and the
seed → identical-inputs guarantee.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from repro.api import ExecutionPolicy, GraphSession, Query  # noqa: E402
from repro.query import (  # noqa: E402
    evaluate_crpq_naive,
    evaluate_data_rpq_naive,
    evaluate_rpq_naive,
)

from perfbench import inputs, measure  # noqa: E402
from perfbench.reference import Reference, rows_starting_at  # noqa: E402

TINY = inputs.GraphShape(3, 9, 3, 2, 3)
ALL_QUERIES = (
    [(dialect, text) for dialect, text, _ in inputs.ANALYTIC_MIX]
    + [(dialect, text) for dialect, text, _ in inputs.SERVE_POINT_QUERIES]
    + list(inputs.SERVE_RUN_QUERIES)
    + list(inputs.MUTATE_READS)
    + list(inputs.MUTATE_TARGETS)
)


# -- percentile rule -----------------------------------------------------
def test_tail_reported_with_ten_samples_beyond():
    samples = [float(value) for value in range(1, 101)]
    value = measure.percentile(samples, 0.9)
    assert value is not None
    assert sum(1 for sample in samples if sample > value) >= measure.MIN_TAIL_SAMPLES


def test_tail_withheld_with_fewer_than_ten_beyond():
    samples = [float(value) for value in range(1, 91)]
    assert measure.percentile(samples, 0.9) is None
    assert measure.percentile([1.0], 0.5) is None


def test_samples_for_tail_is_enough():
    count = measure.samples_for_tail(0.9)
    assert measure.percentile([float(value) for value in range(count)], 0.9) is not None
    assert measure.percentile([float(value) for value in range(count - 12)], 0.9) is None


# -- reference evaluator against the naive specs ---------------------------
def _reference_relation(graph, query):
    reference = Reference(graph)
    return frozenset().union(*(reference.rows_from(query, node) for node in graph.node_ids))


def _naive_relation(graph, query):
    if query.kind.value == "rpq":
        rows = evaluate_rpq_naive(graph, query.plan)
    elif query.kind.value == "data_rpq":
        rows = evaluate_data_rpq_naive(graph, query.plan)
    elif query.kind.value == "crpq":
        rows = evaluate_crpq_naive(graph, query.plan)
    else:  # GXPath has no naive spec; compare with the dict kernels.
        rows = GraphSession(graph, policy=ExecutionPolicy(backend="dict")).run(query).rows()
    return rows_starting_at(rows, graph.node_ids)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dialect,text", ALL_QUERIES)
def test_reference_matches_naive_spec(seed, dialect, text):
    graph = inputs.build_graph(TINY, seed)
    query = Query.parse(text, dialect=dialect)
    assert _reference_relation(graph, query) == _naive_relation(graph, query)


@pytest.mark.parametrize(
    "dialect,text",
    [
        ("rpq", "knows*.(likes|bridge)"),
        ("ree", "(knows.(likes)!=)="),
        ("rem", "!x.(knows+[x!=].likes[x=])"),
        ("gxpath-path", "knows*.[<likes>].knows-"),
        ("gxpath-node", "<knows.likes> & ~<bridge>"),
    ],
)
def test_reference_matches_naive_spec_on_nested_constructs(dialect, text):
    graph = inputs.build_graph(TINY, 4)
    query = Query.parse(text, dialect=dialect)
    assert _reference_relation(graph, query) == _naive_relation(graph, query)


# -- seed → identical inputs ------------------------------------------------
def test_same_seed_same_graph():
    assert inputs.build_graph(inputs.MUTATE_GRAPH, 7) == inputs.build_graph(inputs.MUTATE_GRAPH, 7)
    assert inputs.build_graph(inputs.MUTATE_GRAPH, 7) != inputs.build_graph(inputs.MUTATE_GRAPH, 8)


def test_same_seed_same_analytic_order():
    first = [inputs.analytic_round(inputs.stream(3, "analytic-order")) for _ in range(2)]
    again = [inputs.analytic_round(inputs.stream(3, "analytic-order")) for _ in range(2)]
    assert first == again
    assert sorted(first[0]) == sorted(
        index for index, (_, _, copies) in enumerate(inputs.ANALYTIC_MIX) for _ in range(copies)
    )


def test_same_seed_same_requests():
    nodes = sorted(inputs.build_graph(TINY, 5).node_ids)

    def take(seed):
        return list(islice(inputs.serve_requests(seed, nodes), 300))

    assert take(5) == take(5)
    assert take(5) != take(6)
    kinds = [kind for kind, _, _ in take(5)]
    assert kinds.count("run") == 300 // inputs.SERVE_RUN_EVERY
    points = [index for kind, index, _ in take(5) if kind == "targets"]
    cycle = sum(share for _, _, share in inputs.SERVE_POINT_QUERIES)
    for index, (_, _, share) in enumerate(inputs.SERVE_POINT_QUERIES):
        assert abs(points.count(index) - share * len(points) / cycle) <= share


def test_same_seed_same_batches():
    def batches(seed):
        graph = inputs.build_graph(inputs.MUTATE_GRAPH, seed)
        planner = inputs.MutationPlanner(seed, inputs.MUTATE_GRAPH)
        out = []
        for _ in range(3 * inputs.MUTATE_RECOMPUTE_EVERY):
            batch = planner.next_batch(graph)
            inputs.apply_batch(graph, batch[1])
            out.append(batch)
        return out, graph

    first, graph = batches(11)
    again, replayed = batches(11)
    assert first == again and graph == replayed
    insert_only = [flag for flag, _ in first]
    assert insert_only.count(False) == 3
    # Removal batches undo the inserts: only value changes remain.
    assert graph.num_edges == inputs.build_graph(inputs.MUTATE_GRAPH, 11).num_edges
