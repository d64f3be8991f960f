"""Benchmark of cold planning, mixed-load serving and numeric matmul execution."""
