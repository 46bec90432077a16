"""Benchmark for hyperstep: workloads, tracing and golden checks. See README.md."""
