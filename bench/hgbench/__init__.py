"""Benchmark of the hgnids package: workloads, output checks and tracing."""
