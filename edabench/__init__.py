"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run it from the repository root with ``python3 edabench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``edabench/README.md``.
"""
