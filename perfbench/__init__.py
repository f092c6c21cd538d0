"""Benchmark harness for chfkit; see run.py."""
