"""Per-layer spans recorded from the benchmark's own code.

:class:`Tracer` wraps the public entry points of each layer (listed in
``ENTRY_POINTS``) for the duration of a traced phase and restores the
originals afterwards; the untraced phases run the library untouched.
Each wrapper adds its call's duration to its layer's inclusive time
(nested calls of the same layer count once) and, for calls made while
no other layer span is open, to the time covered by layer spans, so the
op time outside every layer span is what the session itself spent
(parsing, caching, materialising answer objects).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute).  ``Class.method`` attributes wrap the
#: method on the class; plain functions are replaced in every loaded
#: ``repro`` module that holds a reference to them.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("planner.route", "repro.planner.router", "route_query"),
    ("planner.plan", "repro.planner.planner", "plan_crpq"),
    ("planner.stats", "repro.planner.stats", "graph_statistics"),
    ("planner.execute", "repro.planner.execute", "execute_plan"),
    ("engine.kernel", "repro.engine.engine", "EvaluationEngine.evaluate_rpq"),
    ("engine.kernel", "repro.engine.engine", "EvaluationEngine.evaluate_rpq_ids"),
    ("engine.kernel", "repro.engine.engine", "EvaluationEngine.evaluate_rpq_from"),
    ("engine.kernel", "repro.engine.engine", "EvaluationEngine.evaluate_rpq_partitioned"),
    ("engine.kernel", "repro.engine.engine", "EvaluationEngine.evaluate_data_rpq"),
    ("engine.kernel", "repro.engine.engine", "EvaluationEngine.evaluate_data_rpq_partitioned"),
    ("engine.kernel", "repro.engine.engine", "EvaluationEngine.evaluate_atom_ids"),
    ("engine.kernel", "repro.gxpath.evaluation", "evaluate_node"),
    ("engine.kernel", "repro.gxpath.evaluation", "evaluate_path"),
    ("engine.partition", "repro.engine.partition", "parallel_product_relation"),
    ("engine.partition", "repro.engine.partition", "sharded_product_relation"),
    ("engine.forkpool", "repro.engine.forkpool", "run_forked"),
    ("engine.forkpool", "repro.engine.forkpool", "ForkPool.__init__"),
    ("sqlbackend.exec", "repro.sqlbackend.backend", "evaluate_rpq_pairs"),
    ("sqlbackend.exec", "repro.sqlbackend.backend", "closure_pairs"),
    ("sqlbackend.exec", "repro.sqlbackend.backend", "evaluate_plan_rows"),
    ("sqlbackend.refresh", "repro.sqlbackend.schema", "SqlStore.refresh"),
    ("deltas.repair", "repro.deltas.repair", "repair_full_relation"),
    ("deltas.commit", "repro.deltas.batch", "MutationBatch.__exit__"),
    ("datagraph.index", "repro.datagraph.graph", "DataGraph.label_index"),
    ("datagraph.csr", "repro.datagraph.compact", "CompactLabelIndex.from_label_index"),
)


class Tracer:
    """Layer times and counts of one traced phase (thread-safe)."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.covered = 0.0
        self.routes: Dict[str, int] = defaultdict(int)
        self.route_estimates: List[float] = []
        self.replans = 0
        self.repairs_returned = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- recording --------------------------------------------------------
    def _open(self, layer: str) -> Tuple[bool, bool]:
        local = self._local
        depths = getattr(local, "depths", None)
        if depths is None:
            depths = local.depths = defaultdict(int)
            local.open = 0
        outermost = local.open == 0
        first_of_layer = depths[layer] == 0
        depths[layer] += 1
        local.open += 1
        return outermost, first_of_layer

    def _close(self, layer: str, outermost: bool, first_of_layer: bool, elapsed: float) -> None:
        local = self._local
        local.depths[layer] -= 1
        local.open -= 1
        with self._lock:
            self.calls[layer] += 1
            if first_of_layer:
                self.seconds[layer] += elapsed
            if outermost:
                self.covered += elapsed

    def _observe(self, layer: str, kwargs, result) -> None:
        if layer == "planner.route":
            with self._lock:
                self.routes[result.strategy] += 1
                self.route_estimates.append(result.estimate)
        elif layer == "planner.execute":
            trace = kwargs.get("trace")
            if trace is not None:
                with self._lock:
                    self.replans += trace.replans
        elif layer == "deltas.repair" and result is not None:
            with self._lock:
                self.repairs_returned += 1

    def _wrap(self, layer: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            outermost, first_of_layer = self._open(layer)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(layer, outermost, first_of_layer, time.perf_counter() - started)
            self._observe(layer, kwargs, result)
            return result

        traced.__perfbench_original__ = function
        return traced

    def take_route_estimate(self) -> Optional[float]:
        """The estimate of the most recent route decision, then forget all."""
        with self._lock:
            estimate = self.route_estimates[-1] if self.route_estimates else None
            self.route_estimates.clear()
        return estimate

    # -- installing -------------------------------------------------------
    def install(self) -> "Tracer":
        for layer, module_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                self._wrap_method(layer, module, *attribute.split("."))
            else:
                self._wrap_function(layer, getattr(module, attribute))
        return self

    def _wrap_method(self, layer: str, module, class_name: str, name: str) -> None:
        owner = getattr(module, class_name)
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(layer, original.__func__))
        else:
            replacement = self._wrap(layer, original)
        setattr(owner, name, replacement)
        self._restore.append(lambda: setattr(owner, name, original))

    def _wrap_function(self, layer: str, original: Callable) -> None:
        replacement = self._wrap(layer, original)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)
                    self._restore.append(
                        lambda module=module, attribute=attribute: setattr(module, attribute, original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reading ----------------------------------------------------------
    def layer_ms(self, layer: str, per: int) -> float:
        return 1000.0 * self.seconds.get(layer, 0.0) / max(per, 1)

    def count(self, layer: str) -> int:
        return self.calls.get(layer, 0)
