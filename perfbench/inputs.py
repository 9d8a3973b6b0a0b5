"""Seeded inputs of every workload: graphs, query mixes, request streams
and mutation batches.  The same seed always yields the same inputs; the
program under test only ever sees what these functions build."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.api import Query
from repro.datagraph import generators

LABELS = ("knows", "likes")
BRIDGE = "bridge"


@dataclass(frozen=True)
class GraphShape:
    communities: int
    community_size: int
    edges_per_node: int
    bridges_per_community: int
    domain_size: int

    @property
    def num_nodes(self) -> int:
        return self.communities * self.community_size


#: 2,176 nodes: above the router's 2,048-node parallel floor.
ANALYTIC_GRAPH = GraphShape(34, 64, 3, 2, 16)
#: 2,160 nodes in large communities, above the daemon's 512-node pool
#: floor: a closure lookup from one source reaches ~240 nodes, so a miss
#: is tens of milliseconds of pool computation rather than mostly the
#: process wake-ups of the pool round trip.
SERVE_GRAPH = GraphShape(9, 240, 3, 2, 60)
#: 1,056 nodes: above the SQL backend's 1,024-node floor, small
#: communities so an insert touches few sources.
MUTATE_GRAPH = GraphShape(66, 16, 3, 2, 8)


def build_graph(shape: GraphShape, seed: int):
    """The community graph of *shape*; edges and values drawn from *seed*."""
    return generators.community_graph(
        shape.communities,
        shape.community_size,
        intra_edges_per_node=shape.edges_per_node,
        bridges_per_community=shape.bridges_per_community,
        labels=LABELS,
        bridge_label=BRIDGE,
        rng=seed,
        domain_size=shape.domain_size,
    )


def stream(seed: int, name: str) -> random.Random:
    """An independent random stream per (seed, purpose)."""
    return random.Random(f"perfbench:{seed}:{name}")


# ----------------------------------------------------------------------
# analytic: cold full relations, one fresh session per operation
# ----------------------------------------------------------------------
#: (dialect, text, copies per round), cheapest first.  One round is 30
#: operations.  The copies put the median in the middle of the CRPQ
#: block and the 90th percentile in the middle of the REE-closure block:
#: both run in this process, whereas the forked blocks route that the
#: router picks for the plain RPQs and ``<likes[<knows>]>`` swings with
#: the host's scheduling.  The CRPQ block is a third of the round, so
#: the median is read from many samples of one query.
ANALYTIC_MIX: Tuple[Tuple[str, str, int], ...] = (
    ("gxpath-node", "<likes[<knows>]>", 2),
    ("ree", "(likes.knows)!=", 2),
    ("gxpath-path", "knows.knows-", 2),
    # Short non-closure RPQ.
    ("rpq", "knows.knows", 4),
    # Closure atom joined with an equality data atom.
    ("crpq", "x,y :- (x, knows*, z), (z, ree:(likes)=, y)", 10),
    ("rem", "!x.(knows.likes[x=])", 6),
    ("ree", "((knows|likes)+)=", 2),
    # The >= 10^5-pair closure, read through .pairs().
    ("rpq", "(knows|likes)+", 1),
    # Unprefixed `(likes)=` parses as the RPQ `likes.=`; the plan is
    # sent to SQL by the cost model.
    ("crpq", "x,y :- (x, knows*, z), (z, (likes)=, y)", 1),
)


def analytic_queries() -> List[Query]:
    return [Query.parse(text, dialect=dialect) for dialect, text, _ in ANALYTIC_MIX]


def analytic_round(rng: random.Random) -> List[int]:
    """One round: every mix entry's copies, in a seeded order."""
    order = [index for index, (_, _, copies) in enumerate(ANALYTIC_MIX) for _ in range(copies)]
    rng.shuffle(order)
    return order


# ----------------------------------------------------------------------
# serve: point lookups and small relations through the daemon
# ----------------------------------------------------------------------
#: (dialect, text, requests per cycle of twenty).  Most lookups are
#: closures whose misses the worker pool computes for tens of
#: milliseconds.  Cheap answers (point-cache hits and the two short
#: RPQs) stay near a fifth of all requests, so the median lies inside
#: the cluster of REE/REM misses; the REE over paths of two or more
#: steps, whose misses take two to three times as long, is three tenths
#: of the requests, so the 90th percentile lies inside the upper half of
#: its cluster (its misses split into a ~50 ms and a ~75 ms group).
#: A quantile on the edge between two clusters, or in the sparse tail of
#: one, moves by a quarter between runs of the same code.
SERVE_POINT_QUERIES: Tuple[Tuple[str, str, int], ...] = (
    ("rpq", "knows.knows", 1),
    ("rpq", "(knows|likes)+", 1),
    ("ree", "((knows|likes)+)=", 6),
    ("rem", "!x.((knows|likes)+[x=])", 6),
    ("ree", "((knows|likes)+.(knows|likes)+)=", 6),
)
SERVE_RUN_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("crpq", "x,y :- (x, likes, z), (z, bridge, y)"),
    ("rpq", "likes.bridge"),
)
#: One request in this many is a `run` of a small relation.
SERVE_RUN_EVERY = 50
#: Each point query has SERVE_HOT popular sources, asked for in
#: SERVE_HOT_SHARE of its lookups; the other lookups pick any node.  The
#: popular keys fit the point cache and are asked for on every
#: connection before timing starts, so the hit ratio is level from the
#: first timed request instead of climbing with the length of the run.
SERVE_HOT = 8
SERVE_HOT_SHARE = 0.1
#: Client connections; one closed-loop caller alternates between them.
SERVE_CONNECTIONS = 2
#: Requests between end-of-run checks.
SERVE_ROUND = 50


def serve_queries() -> Tuple[List[Query], List[Query]]:
    points = [Query.parse(text, dialect=dialect) for dialect, text, _ in SERVE_POINT_QUERIES]
    runs = [Query.parse(text, dialect=dialect) for dialect, text in SERVE_RUN_QUERIES]
    return points, runs


def serve_hot_sources(seed: int, node_ids: Sequence) -> List[List]:
    """Each point query's seeded hot set of sources."""
    nodes = sorted(node_ids)
    return [
        stream(seed, f"serve-hot-{query}").sample(nodes, min(SERVE_HOT, len(nodes)))
        for query in range(len(SERVE_POINT_QUERIES))
    ]


def serve_requests(seed: int, node_ids: Sequence) -> Iterator[Tuple[str, int, object]]:
    """The endless request stream: ``("targets", query, source)`` cycling
    through the point queries by their shares, the source skewed towards
    each query's own seeded hot set, and every ``SERVE_RUN_EVERY``-th
    request ``("run", query, None)``.  Every query has as many distinct
    keys as the graph has nodes, so the keys far outnumber the point
    cache's 1,024 entries."""
    nodes = sorted(node_ids)
    hot = serve_hot_sources(seed, nodes)
    cycle = [index for index, (_, _, share) in enumerate(SERVE_POINT_QUERIES) for _ in range(share)]
    rng = stream(seed, "serve-requests")
    count = points = 0
    while True:
        count += 1
        if count % SERVE_RUN_EVERY == 0:
            yield ("run", (count // SERVE_RUN_EVERY) % len(SERVE_RUN_QUERIES), None)
            continue
        query = cycle[points % len(cycle)]
        points += 1
        source = rng.choice(hot[query]) if rng.random() < SERVE_HOT_SHARE else rng.choice(nodes)
        yield ("targets", query, source)


# ----------------------------------------------------------------------
# mutate: one long-lived session, a small batch then fresh answers
# ----------------------------------------------------------------------
MUTATE_READS: Tuple[Tuple[str, str], ...] = (
    ("rpq", "(knows|likes)+"),
    ("ree", "((knows|likes)+)="),
    ("rem", "!x.(knows.likes[x=])"),
    # Closure-heavy two-atom plan: sent to SQL, so each version refreshes
    # the SQL store.
    ("crpq", "x,y :- (x, bridge, z), (z, (knows|likes)*, y)"),
    ("gxpath-path", "knows.knows-"),
)
MUTATE_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("rpq", "knows.knows"),
    ("ree", "(knows.likes)="),
)
#: Every MUTATE_RECOMPUTE_EVERY-th batch removes the edges the batches
#: since the last such batch inserted (every second one also changes a
#: node's value), so cached answers are recomputed and the graph returns
#: to its base edge set; the other batches insert MUTATE_INSERTS edges.
MUTATE_RECOMPUTE_EVERY = 4
MUTATE_INSERTS = 3


def mutate_queries() -> Tuple[List[Query], List[Query]]:
    reads = [Query.parse(text, dialect=dialect) for dialect, text in MUTATE_READS]
    targets = [Query.parse(text, dialect=dialect) for dialect, text in MUTATE_TARGETS]
    return reads, targets


class MutationPlanner:
    """Builds the batch of each mutate operation from a seeded stream and
    the graph's current edges; replaying the returned actions on a graph
    built from the same seed reproduces every version."""

    def __init__(self, seed: int, shape: GraphShape):
        self.rng = stream(seed, "mutate")
        self.shape = shape
        self.step = 0
        self.recomputes = 0
        self.inserted: List[Tuple[str, str, str]] = []

    def next_batch(self, graph) -> Tuple[bool, List[Tuple]]:
        """``(insert_only, actions)`` with actions ``("add"|"remove", s, l, t)``
        or ``("set", node, value)``."""
        self.step += 1
        rng = self.rng
        shape = self.shape
        if self.step % MUTATE_RECOMPUTE_EVERY == 0:
            actions: List[Tuple] = [("remove",) + edge for edge in self.inserted]
            self.inserted = []
            self.recomputes += 1
            if self.recomputes % 2 == 0:
                community = rng.randrange(shape.communities)
                node = f"c{community}n{rng.randrange(shape.community_size)}"
                actions.append(("set", node, f"d{rng.randrange(shape.domain_size)}"))
            return False, actions
        actions = []
        while len(actions) < MUTATE_INSERTS:
            community = rng.randrange(shape.communities)
            edge = (
                f"c{community}n{rng.randrange(shape.community_size)}",
                LABELS[rng.randrange(len(LABELS))],
                f"c{community}n{rng.randrange(shape.community_size)}",
            )
            if graph.has_edge(*edge) or edge in self.inserted:
                continue
            self.inserted.append(edge)
            actions.append(("add",) + edge)
        return True, actions


def apply_batch(graph, actions) -> None:
    """Commit *actions* as one ``graph.batch()`` delta."""
    with graph.batch() as batch:
        for action in actions:
            if action[0] == "add":
                batch.add_edge(*action[1:])
            elif action[0] == "remove":
                batch.remove_edge(*action[1:])
            else:
                batch.set_value(*action[1:])
