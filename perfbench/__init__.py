"""perfbench: the wall-clock benchmark of the MPI runtime under ``src/``.

Seven pinned workloads, end-to-end metrics from an untraced run and a
per-layer budget from a separate traced run that wraps each layer's
public entry points from outside (see ``README.md``).  The metric and
workload names, units and bounds live in ``BENCHMARK.json`` at the
repository root; nothing here edits ``src/``.
"""
