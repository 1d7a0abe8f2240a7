"""The repository benchmark: ``python3 perfbench/run.py --workload W ...``.

See ``perfbench/README.md`` for the workloads, the metrics and the
layer map the traced run attributes time to.
"""
