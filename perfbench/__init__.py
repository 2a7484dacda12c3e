"""Benchmark of the kasteleyn pipeline: workloads, references and tracing."""
