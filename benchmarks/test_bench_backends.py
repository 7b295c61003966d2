"""Claim-protocol micro-benchmarks over the storage backends.

The claim board is pure coordination overhead: every distributed point
pays one claim cycle (exclusive put + owner-conditional delete) on top
of its compute.  This benchmark pins that cost per backend so a
regression in the hot path (or a pathologically slow backend port)
shows up as a number, not as a mysteriously slow fleet.

A fast-tier smoke asserts the protocol stays far cheaper than the
cheapest realistic point, so coordination never dominates a sweep.
"""

import pytest

from benchmarks.conftest import emit
from repro.exp.backend import InMemoryBackend, LocalFSBackend
from repro.exp.dist import ClaimBoard, init_run
from repro.exp.grid import GridSpec

SPEC = GridSpec(
    scenario="scenario1",
    num_contexts=2,
    variants=("naive", "sgprs_1", "sgprs_1.5", "sgprs_2"),
    task_counts=(2, 4, 6, 8, 10),
    seeds=(0, 1, 2),
    duration=0.5,
    warmup=0.1,
)  # 60 points per cycle

BACKENDS = ("local", "memory")


def make_backend(name, tmp_path):
    if name == "local":
        return LocalFSBackend(tmp_path / "store")
    return InMemoryBackend()


def claim_release_cycle(board, points):
    """One full ownership cycle over every point (the per-point tax a
    claim-mode worker pays beyond compute)."""
    for point in points:
        assert board.try_claim(point)
    for point in points:
        assert board.release(point)


@pytest.mark.slow
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bench_claim_cycle(benchmark, backend_name, tmp_path):
    backend = make_backend(backend_name, tmp_path)
    init_run(backend, SPEC)
    board = ClaimBoard(backend, owner="bench")
    points = list(SPEC.points())

    benchmark(claim_release_cycle, board, points)
    per_point_us = benchmark.stats.stats.mean / len(points) * 1e6
    emit(
        "bench_backends.txt",
        f"claim+release cycle, {backend_name:<12} "
        f"{per_point_us:9.1f} us/point over {len(points)} points",
    )


def test_claim_overhead_smoke(tmp_path):
    """Fast-tier guardrail: a full claim+release cycle must stay under
    ~10 ms/point even on the (slowest) filesystem backend — two orders
    of magnitude below any real simulation point."""
    import time

    backend = LocalFSBackend(tmp_path / "store")
    init_run(backend, SPEC)
    board = ClaimBoard(backend, owner="smoke")
    points = list(SPEC.points())
    started = time.perf_counter()
    claim_release_cycle(board, points)
    per_point = (time.perf_counter() - started) / len(points)
    assert per_point < 0.01, f"claim cycle costs {per_point * 1e3:.2f} ms/point"
