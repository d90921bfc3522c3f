"""Node-lifecycle wall-clock benchmark (``python -m benchmarks.e2e``).

Boots a durable node the way ``NodeService.run`` does, drives a closed
generate → propose → seal → validate → persist loop with one client,
shuts down cleanly and restarts through ``repro.store.recover`` — and
reports host-calibrated transactions per real second plus a per-layer
table.  ``BENCHMARK.json`` at the repo root fixes the metric names,
units, directions and regression bounds; ``README.md`` in this directory
defines every metric.
"""
