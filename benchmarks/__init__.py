"""Benchmark suite.

A package so that pytest imports ``benchmarks/conftest.py`` once, as
``benchmarks.conftest``: the module the benchmark files import ``emit``
from is then the one whose ``pytest_configure`` saw ``--runslow``.
"""
