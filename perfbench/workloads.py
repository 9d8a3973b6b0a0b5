"""The three workloads.  Each runs in its own process (``run.py``):

* ``analytic`` — cold full relations, one fresh ``GraphSession`` per op;
* ``serve`` — ``targets`` lookups and small ``run`` relations from two
  ``RemoteSession`` connections of a daemon process;
* ``mutate`` — one ``graph.batch()`` commit, then fresh answers from one
  long-lived session.

A workload object sets up (several times; the median is ``setup_s``),
runs timed phases of closed-loop operations, and checks every answer it
timed against :mod:`perfbench.reference` or a property the semantics
require.  With tracing, an untraced phase is followed by a traced one on
a fresh set-up, and the per-layer metrics come from the traced phase.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import ExecutionPolicy, GraphSession, connect
from repro.engine import default_engine
from repro.planner import graph_statistics
from repro.sqlbackend import store_for

from . import inputs, measure
from .reference import Reference, check_sample
from .tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Setups per run; ``setup_s`` is their median.
SETUPS = 5
#: Sources per query checked against the reference evaluator.
SAMPLE_SOURCES = 48
#: Fewest operations per timed phase, so the p90 has ten samples beyond it.
MIN_OPS = measure.samples_for_tail(0.9)
ENGINE_CACHES = ("automata", "register_automata", "parses")

#: Every per-layer metric, with its unit; workloads that do not reach a
#: layer report 0 for it.
PER_LAYER_UNITS: Dict[str, str] = {
    "api.materialise_ms": "ms",
    "api.result_cache_hit_ratio": "ratio",
    "api.point_cache_hit_ratio": "ratio",
    "engine.compile_hit_ratio": "ratio",
    "planner.route_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.route_sequential_count": "count",
    "planner.route_compact_count": "count",
    "planner.route_blocks_count": "count",
    "planner.route_sharded_count": "count",
    "planner.route_sql_count": "count",
    "planner.estimate_error": "ratio",
    "planner.replans_count": "count",
    "planner.stats_ms": "ms",
    "engine.kernel_ms": "ms",
    "engine.partition_ms": "ms",
    "engine.forkpool_count": "count",
    "sqlbackend.exec_ms": "ms",
    "sqlbackend.refresh_ms": "ms",
    "datagraph.index_ms": "ms",
    "datagraph.csr_ms": "ms",
    "deltas.commit_ms": "ms",
    "deltas.repair_ms": "ms",
    "deltas.repair_count": "count",
    "deltas.recompute_count": "count",
    "deltas.repair_yield": "ratio",
    "deltas.ree_repair_ms": "ms",
    "deltas.ree_recompute_ms": "ms",
    "server.handle_mean_ms": "ms",
    "server.transport_mean_ms": "ms",
    "server.pool_busy_s": "s",
    "server.pool_queries_count": "count",
    "server.pool_fallbacks_count": "count",
    "server.worker_private_mb": "MB",
    "server.local_point_ms": "ms",
    "trace.overhead_pct": "%",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """The record of one timed phase."""

    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    #: VmHWM after the MIN_OPS-th operation (in-process workloads): a
    #: fixed point of the seeded sequence, so a faster program that runs
    #: more operations does not read as using more memory.
    peak_mb: Optional[float] = None
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def record(self, seconds: float) -> None:
        self.latencies.append(seconds)
        if len(self.latencies) == MIN_OPS:
            self.peak_mb = measure.peak_rss_mb()

    def p50_ms(self) -> float:
        return 1000.0 * statistics.median(self.latencies)

    def p90_ms(self) -> float:
        value = measure.percentile(self.latencies, 0.9)
        if value is None:
            raise RuntimeError(f"too few samples ({len(self.latencies)}) for a p90")
        return 1000.0 * value


def _ratio(hits: float, misses: float) -> float:
    asked = hits + misses
    return hits / asked if asked else 0.0


def _cache_counts(stats, names) -> Tuple[int, int]:
    hits = sum(stats[name].hits for name in names if name in stats)
    misses = sum(stats[name].misses for name in names if name in stats)
    return hits, misses


def _digest(rows) -> Tuple[int, int]:
    """Size and hash of an answer set (the frozenset caches its hash)."""
    return len(rows), hash(rows)


def _tracer_layers(tracer: Tracer, ops: int, op_seconds: float) -> Dict[str, float]:
    """The per-layer metrics every in-process workload derives from spans."""
    layers = {
        "api.materialise_ms": 1000.0 * max(op_seconds - tracer.covered, 0.0) / max(ops, 1),
        "planner.route_ms": tracer.layer_ms("planner.route", ops),
        "planner.plan_ms": tracer.layer_ms("planner.plan", ops),
        "planner.stats_ms": tracer.layer_ms("planner.stats", ops),
        "planner.replans_count": tracer.replans,
        "engine.kernel_ms": tracer.layer_ms("engine.kernel", ops),
        "engine.partition_ms": tracer.layer_ms("engine.partition", ops),
        "engine.forkpool_count": tracer.count("engine.forkpool"),
        "sqlbackend.exec_ms": tracer.layer_ms("sqlbackend.exec", ops),
        "sqlbackend.refresh_ms": tracer.layer_ms("sqlbackend.refresh", ops),
        "datagraph.index_ms": tracer.layer_ms("datagraph.index", ops),
        "datagraph.csr_ms": tracer.layer_ms("datagraph.csr", ops),
        "deltas.commit_ms": tracer.layer_ms("deltas.commit", ops),
        "deltas.repair_ms": (
            1000.0 * tracer.seconds.get("deltas.repair", 0.0) / tracer.repairs_returned
            if tracer.repairs_returned
            else 0.0
        ),
    }
    for strategy in ("sequential", "compact", "blocks", "sharded", "sql"):
        layers[f"planner.route_{strategy}_count"] = tracer.routes.get(strategy, 0)
    return layers


def _warm_graph(graph) -> None:
    """Build every graph-level index the query paths read."""
    graph.label_index()
    graph.compact_index()
    store_for(graph)
    graph_statistics(graph)


class Workload:
    """Shared run loop: repeated setups, the timed phase(s), the result."""

    name = ""

    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_times: List[float] = []

    # Subclasses implement these.
    def setup(self):  # returns the state the phase runs on
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def phase(self, state, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def peak_rss_mb(self, state) -> float:
        return measure.peak_rss_mb()

    def verify(self, state, phase: Phase) -> None:
        raise NotImplementedError

    # The run loop.
    def timed_setup(self):
        started = time.perf_counter()
        state = self.setup()
        self.setup_times.append(time.perf_counter() - started)
        return state

    def _phase_after_setups(self):
        state = None
        for _ in range(SETUPS):
            if state is not None:
                self.teardown(state)
            state = self.timed_setup()
        return state

    def run(self) -> Dict:
        state = self._phase_after_setups()
        try:
            plain = self.phase(state, None)
            peak = plain.peak_mb if plain.peak_mb is not None else self.peak_rss_mb(state)
        finally:
            self.teardown(state)
        self.verify(state, plain)
        phases = [plain]
        if not self.trace:
            metrics = {
                "setup_s": statistics.median(self.setup_times),
                "ops_per_s": plain.ops / plain.wall,
                "op_p50_ms": plain.p50_ms(),
                "op_p90_ms": plain.p90_ms(),
                "peak_rss_mb": peak,
            }
            units = END_TO_END_UNITS
        else:
            state = self.timed_setup()
            tracer = Tracer()
            try:
                traced = self.phase(state, tracer)
            finally:
                tracer.uninstall()
                self.teardown(state)
            self.verify(state, traced)
            phases.append(traced)
            metrics = {name: 0.0 for name in PER_LAYER_UNITS}
            metrics.update(traced.layers)
            metrics["trace.overhead_pct"] = 100.0 * (traced.p50_ms() / plain.p50_ms() - 1.0)
            units = PER_LAYER_UNITS
        return {
            "correct": True,
            "attempted": sum(phase.ops for phase in phases),
            "failed": 0,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]} for name in units
            },
        }

    def _done(self, started: float, ops: int) -> bool:
        return time.perf_counter() - started >= self.seconds and ops >= MIN_OPS


# ----------------------------------------------------------------------
class Analytic(Workload):
    name = "analytic"

    def __init__(self, *args):
        super().__init__(*args)
        self.queries = inputs.analytic_queries()
        self.digests: Dict[int, set] = {}

    def setup(self):
        graph = inputs.build_graph(inputs.ANALYTIC_GRAPH, self.seed)
        _warm_graph(graph)
        for query in self.queries:
            self._materialise(GraphSession(graph).run(query), query)
        return graph

    @staticmethod
    def _materialise(result, query):
        return result.pairs() if query.arity == 2 else result.rows()

    def phase(self, graph, tracer):
        phase = Phase()
        rng = inputs.stream(self.seed, "analytic-order")
        engine_before = _cache_counts(default_engine().stats(), ENGINE_CACHES)
        results_hits = results_misses = 0
        errors: List[float] = []
        if tracer is not None:
            tracer.install()
        started = time.perf_counter()
        while not self._done(started, len(phase.latencies)):
            for index in inputs.analytic_round(rng):
                query = self.queries[index]
                begin = time.perf_counter()
                session = GraphSession(graph)
                rows = self._materialise(session.run(query), query)
                phase.record(time.perf_counter() - begin)
                self.digests.setdefault(index, set()).add(_digest(rows))
                if tracer is not None:
                    stats = session.stats()["results"]
                    results_hits += stats.hits
                    results_misses += stats.misses
                    estimate = tracer.take_route_estimate()
                    if estimate is not None:
                        actual = max(len(rows), 1)
                        estimate = max(estimate, 1.0)
                        errors.append(max(estimate / actual, actual / estimate))
                del rows, session
        phase.wall = sum(phase.latencies)
        if tracer is not None:
            tracer.uninstall()
            engine_after = _cache_counts(default_engine().stats(), ENGINE_CACHES)
            phase.layers = _tracer_layers(tracer, phase.ops, phase.wall)
            phase.layers["api.result_cache_hit_ratio"] = _ratio(results_hits, results_misses)
            phase.layers["engine.compile_hit_ratio"] = _ratio(
                engine_after[0] - engine_before[0], engine_after[1] - engine_before[1]
            )
            phase.layers["planner.estimate_error"] = statistics.median(errors) if errors else 0.0
        return phase

    def verify(self, graph, phase):
        reference = Reference(graph)
        nodes = sorted(graph.node_ids)
        sample = inputs.stream(self.seed, "sample").sample(nodes, SAMPLE_SOURCES)
        for index, query in enumerate(self.queries):
            rows = self._materialise(GraphSession(graph).run(query), query)
            if self.digests.get(index) != {_digest(rows)}:
                raise AssertionError(f"{query}: an operation's answer differs from a fresh evaluation")
            check_sample(reference, query, rows, sample)
            if GraphSession(graph).run(query).count() != len(rows):
                raise AssertionError(f"{query}: count() differs from len(pairs())")
            if query.arity == 2:
                session = GraphSession(graph)
                for source in sample[:3]:
                    row = {target.id for start, target in rows if start.id == source}
                    if {node.id for node in session.targets(query, source)} != row:
                        raise AssertionError(f"{query}: targets({source!r}) differs from its row")


# ----------------------------------------------------------------------
@dataclass
class Daemon:
    process: subprocess.Popen
    socket: str
    trace_file: Optional[str]


class Serve(Workload):
    name = "serve"

    def __init__(self, *args):
        super().__init__(*args)
        self.points, self.runs = inputs.serve_queries()
        self._daemons = 0

    def _start_daemon(self, traced: bool) -> Daemon:
        self._daemons += 1
        tag = f"{os.getpid()}-{self._daemons}"
        socket_path = f".perfbench-{tag}.sock"
        trace_file = f".perfbench-{tag}.trace.json" if traced else None
        command = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                   "--seed", str(self.seed), "--socket", socket_path]
        if trace_file:
            command += ["--trace-out", trace_file]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=environment)
        daemon = Daemon(process, socket_path, trace_file)
        try:
            line = process.stdout.readline()
            if line.strip() != "ready":
                raise RuntimeError(f"daemon did not start (said {line!r})")
        except BaseException:
            self._stop_daemon(daemon)
            raise
        return daemon

    def _stop_daemon(self, daemon: Daemon) -> None:
        process = daemon.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        if daemon.trace_file and os.path.exists(daemon.trace_file):
            os.unlink(daemon.trace_file)

    def setup(self):
        daemon = self._start_daemon(traced=self.trace and len(self.setup_times) >= SETUPS)
        try:
            with connect(daemon.socket) as client:
                for query in self.points:
                    client.targets(query, "c0n0")
                for query in self.runs:
                    client.run(query).rows()
        except BaseException:
            self._stop_daemon(daemon)
            raise
        return daemon

    def teardown(self, daemon):
        self._stop_daemon(daemon)

    def peak_rss_mb(self, daemon):
        return measure.peak_rss_mb(daemon.process.pid)

    def phase(self, daemon, tracer):
        phase = Phase()
        nodes = inputs.build_graph(inputs.SERVE_GRAPH, self.seed).node_ids
        requests = inputs.serve_requests(self.seed, nodes)
        self.records = []
        sessions = [connect(daemon.socket) for _ in range(inputs.SERVE_CONNECTIONS)]
        try:
            hot = inputs.serve_hot_sources(self.seed, nodes)
            point_counts = [0, 0]
            for session in sessions:
                for index, sources in enumerate(hot):
                    for source in sources:
                        session.targets(self.points[index], source)
                points = session.stats()["points"]
                point_counts[0] -= points.hits
                point_counts[1] -= points.misses
            with connect(daemon.socket) as observer:
                before = observer.metrics()
            if tracer is not None:
                self._signal_trace(daemon, "reset")
            started = time.perf_counter()
            count = 0
            while not self._done(started, count):
                for _ in range(inputs.SERVE_ROUND):
                    kind, index, source = next(requests)
                    session = sessions[count % len(sessions)]
                    count += 1
                    begin = time.perf_counter()
                    if kind == "targets":
                        answer = session.targets(self.points[index], source)
                    else:
                        answer = session.run(self.runs[index]).rows()
                    phase.latencies.append(time.perf_counter() - begin)
                    self.records.append((kind, index, source, answer))
            phase.wall = time.perf_counter() - started
            for session in sessions:
                points = session.stats()["points"]
                point_counts[0] += points.hits
                point_counts[1] += points.misses
        finally:
            for session in sessions:
                session.close()
        if tracer is not None:
            with connect(daemon.socket) as observer:
                after = observer.metrics()
            phase.layers = self._server_layers(before, after, phase, point_counts, daemon)
        return phase

    @staticmethod
    def _signal_trace(daemon: Daemon, what: str) -> None:
        daemon.process.send_signal(signal.SIGUSR1)
        line = daemon.process.stdout.readline()
        if line.strip() != what:
            raise RuntimeError(f"daemon did not acknowledge the trace {what} (said {line!r})")

    def _server_layers(self, before, after, phase, point_counts, daemon) -> Dict[str, float]:
        def latency_sum(snapshot):
            latency = snapshot["latency"]
            return (latency["mean_ms"] or 0.0) * latency["count"], latency["count"]

        sum_after, count_after = latency_sum(after)
        sum_before, count_before = latency_sum(before)
        handled = max(count_after - count_before, 1)
        handle_mean = (sum_after - sum_before) / handled
        client_mean = 1000.0 * sum(phase.latencies) / len(phase.latencies)
        counters_after, counters_before = after["counters"], before["counters"]
        workers = after["worker_pool"]
        self._signal_trace(daemon, "dump")
        with open(daemon.trace_file, encoding="utf-8") as handle:
            report = json.load(handle)
        tracer = Tracer()
        tracer.seconds.update(report["seconds"])
        tracer.calls.update(report["calls"])
        tracer.routes.update(report["routes"])
        tracer.covered = report["covered"]
        tracer.replans = report["replans"]
        layers = _tracer_layers(tracer, phase.ops, handle_mean * handled / 1000.0)
        engine = list(report["engine_caches"])
        workers_before = (before.get("caches") or {}).get("workers") or {}
        workers_after = (after.get("caches") or {}).get("workers") or {}
        for name in ENGINE_CACHES:
            for slot, key in ((0, "hits"), (1, "misses")):
                engine[slot] += workers_after.get(name, {}).get(key, 0) - workers_before.get(name, {}).get(key, 0)
        layers.update(
            {
                "api.point_cache_hit_ratio": _ratio(*point_counts),
                "engine.compile_hit_ratio": _ratio(engine[0], engine[1]),
                "server.handle_mean_ms": handle_mean,
                "server.transport_mean_ms": client_mean - handle_mean,
                "server.pool_busy_s": workers["busy_seconds"] - before["worker_pool"]["busy_seconds"],
                "server.pool_queries_count": counters_after["pool_queries"] - counters_before["pool_queries"],
                "server.pool_fallbacks_count": counters_after["pool_fallbacks"] - counters_before["pool_fallbacks"],
                "server.worker_private_mb": measure.private_mb(workers.get("pids", ())),
                "server.local_point_ms": self._local_point_ms(),
            }
        )
        return layers

    def _local_point_ms(self) -> float:
        """Mean in-process latency of the daemon's first point query from
        a fresh session, for the sources the benchmark asked it for."""
        graph = inputs.build_graph(inputs.SERVE_GRAPH, self.seed)
        _warm_graph(graph)
        session = GraphSession(graph)
        sources = [source for kind, index, source, _ in self.records if kind == "targets" and index == 0]
        sources = sorted(set(sources))[:200]
        started = time.perf_counter()
        for source in sources:
            session.targets(self.points[0], source)
        return 1000.0 * (time.perf_counter() - started) / max(len(sources), 1)

    def verify(self, daemon, phase):
        """Every ``targets`` answer against the reference; every ``run``
        against an in-process evaluation, itself checked on a sample."""
        graph = inputs.build_graph(inputs.SERVE_GRAPH, self.seed)
        reference = Reference(graph)
        expected: Dict[Tuple, frozenset] = {}
        for kind, index, source, answer in self.records:
            if kind != "targets":
                continue
            key = (index, source)
            if key not in expected:
                expected[key] = reference.atom_targets(self.points[index].plan, source)
            if frozenset(node.id for node in answer) != expected[key]:
                raise AssertionError(f"{self.points[index]}: targets({source!r}) differs from the reference")
        session = GraphSession(graph)
        sample = inputs.stream(self.seed, "sample").sample(sorted(graph.node_ids), SAMPLE_SOURCES)
        runs = []
        for query in self.runs:
            full = session.run(query).rows()
            check_sample(reference, query, full, sample)
            runs.append(_digest(full))
        for kind, index, source, answer in self.records:
            if kind == "run" and _digest(answer) != runs[index]:
                raise AssertionError(f"{self.runs[index]}: remote run differs from local")
        self.records = []


# ----------------------------------------------------------------------
@dataclass
class MutateState:
    graph: object
    session: GraphSession
    planner: inputs.MutationPlanner
    log: List[Tuple] = field(default_factory=list)


class Mutate(Workload):
    name = "mutate"
    #: Every VERIFY_EVERY-th version (and the last) is re-evaluated fresh.
    VERIFY_EVERY = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.reads, self.targets = inputs.mutate_queries()

    def setup(self):
        graph = inputs.build_graph(inputs.MUTATE_GRAPH, self.seed)
        _warm_graph(graph)
        session = GraphSession(graph)
        for query in self.reads:
            session.run(query).count()
        for query in self.targets:
            session.targets(query, "c0n0")
        return MutateState(graph, session, inputs.MutationPlanner(self.seed, inputs.MUTATE_GRAPH))

    def phase(self, state, tracer):
        phase = Phase()
        graph, session = state.graph, state.session
        rng = inputs.stream(self.seed, "mutate-sources")
        shape = inputs.MUTATE_GRAPH
        ree_times: Dict[bool, List[float]] = {True: [], False: []}
        results_before = _cache_counts(session.stats(), ("results",))
        engine_before = _cache_counts(session.stats(), ENGINE_CACHES)
        maintenance_before = session.maintenance_stats()
        if tracer is not None:
            tracer.install()
        started = time.perf_counter()
        while not self._done(started, len(phase.latencies)):
            for _ in range(inputs.MUTATE_RECOMPUTE_EVERY):
                insert_only, actions = state.planner.next_batch(graph)
                sources = [
                    f"c{rng.randrange(shape.communities)}n{rng.randrange(shape.community_size)}"
                    for _ in self.targets
                ]
                begin = time.perf_counter()
                inputs.apply_batch(graph, actions)
                results = []
                for position, query in enumerate(self.reads):
                    read_begin = time.perf_counter()
                    result = session.run(query)
                    result.count()
                    if position == 1:  # the REE closure
                        ree_times[insert_only].append(time.perf_counter() - read_begin)
                    results.append(result)
                answers = [session.targets(query, source) for query, source in zip(self.targets, sources)]
                phase.record(time.perf_counter() - begin)
                state.log.append(
                    (actions, sources, [_digest(result.rows()) for result in results],
                     [frozenset(node.id for node in answer) for answer in answers])
                )
                del results, answers
        phase.wall = sum(phase.latencies)
        if tracer is not None:
            tracer.uninstall()
            results_after = _cache_counts(session.stats(), ("results",))
            engine_after = _cache_counts(session.stats(), ENGINE_CACHES)
            maintenance = session.maintenance_stats()
            repairs = maintenance["repairs"] - maintenance_before["repairs"]
            recomputes = maintenance["recomputes"] - maintenance_before["recomputes"]
            phase.layers = _tracer_layers(tracer, phase.ops, phase.wall)
            phase.layers.update(
                {
                    "api.result_cache_hit_ratio": _ratio(
                        results_after[0] - results_before[0], results_after[1] - results_before[1]
                    ),
                    "engine.compile_hit_ratio": _ratio(
                        engine_after[0] - engine_before[0], engine_after[1] - engine_before[1]
                    ),
                    "deltas.repair_count": repairs,
                    "deltas.recompute_count": recomputes,
                    "deltas.repair_yield": _ratio(repairs, recomputes),
                    "deltas.ree_repair_ms": 1000.0 * statistics.median(ree_times[True]),
                    "deltas.ree_recompute_ms": 1000.0 * statistics.median(ree_times[False]),
                }
            )
        return phase

    def verify(self, state, phase):
        """Replay the logged batches on a graph built from the seed and
        compare sampled versions with a fresh ``delta_repair=False``
        evaluation; check the last version against the reference."""
        graph = inputs.build_graph(inputs.MUTATE_GRAPH, self.seed)
        policy = ExecutionPolicy(delta_repair=False)
        last = len(state.log) - 1
        for step, (actions, sources, digests, answers) in enumerate(state.log):
            inputs.apply_batch(graph, actions)
            if step % self.VERIFY_EVERY and step != last:
                continue
            fresh = GraphSession(graph, policy=policy)
            for query, digest in zip(self.reads, digests):
                if _digest(fresh.run(query).rows()) != digest:
                    raise AssertionError(f"{query}: answer at version {graph.version} differs from a fresh evaluation")
            for query, source, answer in zip(self.targets, sources, answers):
                if frozenset(node.id for node in fresh.targets(query, source)) != answer:
                    raise AssertionError(f"{query}: targets({source!r}) differs from a fresh evaluation")
        reference = Reference(graph)
        sample = inputs.stream(self.seed, "sample").sample(sorted(graph.node_ids), SAMPLE_SOURCES)
        fresh = GraphSession(graph, policy=policy)
        for query in self.reads:
            result = fresh.run(query)
            check_sample(reference, query, result.rows(), sample)
            if result.count() != len(result.pairs()):
                raise AssertionError(f"{query}: count() differs from len(pairs())")
        state.log.clear()


WORKLOADS = {workload.name: workload for workload in (Analytic, Serve, Mutate)}
