"""Layered benchmark for cycfix: workloads, answer references and tracing.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
Nothing in this package imports cycfix at import time: the runner loads the
program under test inside its timed set-up.
"""
