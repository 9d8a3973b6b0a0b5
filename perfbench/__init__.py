"""End-to-end benchmark of the query engine: ``analytic``, ``serve`` and
``mutate`` workloads, run one per process by ``perfbench/run.py``."""
