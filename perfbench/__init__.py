"""End-to-end serving benchmark: see ``perfbench/run.py`` and ``BENCHMARK.json``."""
