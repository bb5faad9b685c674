"""qfisher benchmark: workloads, tracer, layer grid and their tests."""
