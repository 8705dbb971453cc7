"""The repository's benchmark: workloads, reference answers, metrics.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
