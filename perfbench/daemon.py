"""The ``serve`` workload's daemon: a ``ReproServer`` with the default
``ServerConfig`` on a Unix socket, over the seed's graph.

    python perfbench/daemon.py --seed N --socket PATH [--trace-out FILE]

Prints ``ready`` once listening and drains on ``SIGTERM``.  With
``--trace-out``, the first ``SIGUSR1`` installs the layer tracer (after
the warm-up has forked the worker pool) and prints ``reset``; the second
removes it, writes the layer times to FILE and prints ``dump``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.engine import default_engine  # noqa: E402
from repro.server import ReproServer, ServerConfig  # noqa: E402

from perfbench import inputs  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

ENGINE_CACHES = ("automata", "register_automata", "parses")


def _engine_counts():
    stats = default_engine().stats()
    hits = sum(stats[name].hits for name in ENGINE_CACHES if name in stats)
    misses = sum(stats[name].misses for name in ENGINE_CACHES if name in stats)
    return hits, misses


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    graph = inputs.build_graph(inputs.SERVE_GRAPH, args.seed)
    server = ReproServer(graph, ServerConfig(path=args.socket))
    traced = {}

    def toggle_trace(signum, frame):
        if "tracer" not in traced:
            traced["engine"] = _engine_counts()
            traced["tracer"] = Tracer().install()
            print("reset", flush=True)
            return
        tracer = traced.pop("tracer")
        tracer.uninstall()
        hits, misses = _engine_counts()
        report = {
            "seconds": dict(tracer.seconds),
            "calls": dict(tracer.calls),
            "routes": dict(tracer.routes),
            "covered": tracer.covered,
            "replans": tracer.replans,
            "engine_caches": [hits - traced["engine"][0], misses - traced["engine"][1]],
        }
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
        print("dump", flush=True)

    if args.trace_out:
        signal.signal(signal.SIGUSR1, toggle_trace)
    server.start()
    print("ready", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
