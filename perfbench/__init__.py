"""Benchmark for oodsynth: closed-loop workloads, output checks and a traced run."""
