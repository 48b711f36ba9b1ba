"""``bench_e2e`` — the repository's end-to-end benchmark.

Four workloads (``live_hot``, ``live_miss``, ``live_churn``, ``sim_cell``)
driven through the public API of ``src/repro``; see ``README.md`` in this
directory for the metric definitions and ``BENCHMARK.json`` at the repo
root for the contract later changes are judged against.
"""
