"""Benchmark of the linecox package: three closed-loop workloads, their
correctness checks, and a traced per-layer run. Entry point: ``run.py``."""
