"""Golden regression test for the Fig. 3 headline numbers.

``results/bench_fig3.txt`` (benchmark tier, duration 3.0 / warmup 1.0)
reports the reproduction's headline row at 30 tasks in scenario 1:

* the naive baseline saturates and sags to ~461 FPS with a drastic
  (>90%) deadline miss rate;
* SGPRS_1 sustains its plateau at 756.5 FPS with a moderate miss rate.

The simulation is deterministic at zero jitter, so the same small-horizon
run must keep producing those numbers bit-for-bit; this test re-runs just
the two headline points (seconds, not the full benchmark sweep) and pins
them.  If a core/scheduler change legitimately moves the numbers,
regenerate the benchmark tier (``pytest benchmarks --runslow``) and update
the constants here alongside ``results/bench_fig3.txt``.
"""

import pytest

from repro.workloads.scenarios import SCENARIO_1, run_scenario_sweep

# results/bench_fig3.txt grid parameters
DURATION = 3.0
WARMUP = 1.0
TASKS = 30

# headline values from results/bench_fig3.txt at 30 tasks (the FPS pair
# moved ~10 fps when the warmup rule was unified — FPS now counts the
# same release >= warmup population DMR measures; DMR was unaffected)
GOLDEN_NAIVE_FPS = 450.5
GOLDEN_NAIVE_DMR = 0.976
GOLDEN_SGPRS1_FPS = 745.0
GOLDEN_SGPRS1_DMR = 0.323


def headline_point(variant):
    """The 30-task cell of ``variant`` in the benchmark grid."""
    sweep = run_scenario_sweep(
        SCENARIO_1, [TASKS], variants=[variant], duration=DURATION,
        warmup=WARMUP,
    )
    return sweep[variant][0]


@pytest.fixture(scope="module")
def naive():
    return headline_point("naive")


@pytest.fixture(scope="module")
def sgprs_1():
    return headline_point("sgprs_1")


class TestGoldenHeadline:
    def test_naive_plateaus_near_460(self, naive):
        assert naive.total_fps == pytest.approx(GOLDEN_NAIVE_FPS, abs=1.0)

    def test_naive_dmr_drastic(self, naive):
        assert naive.dmr == pytest.approx(GOLDEN_NAIVE_DMR, abs=0.005)

    def test_sgprs1_reaches_756(self, sgprs_1):
        assert sgprs_1.total_fps == pytest.approx(GOLDEN_SGPRS1_FPS, abs=1.0)

    def test_sgprs1_dmr_moderate(self, sgprs_1):
        assert sgprs_1.dmr == pytest.approx(GOLDEN_SGPRS1_DMR, abs=0.005)

    def test_sgprs_advantage_ratio(self, naive, sgprs_1):
        # the paper's headline: naive sags ~38% below SGPRS at 30 tasks
        drop = 1.0 - naive.total_fps / sgprs_1.total_fps
        assert drop == pytest.approx(0.39, abs=0.03)

    def test_golden_file_matches_pinned_constants(self):
        """The committed benchmark output and these constants stay in sync."""
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "results"
            / "bench_fig3.txt"
        )
        if not path.exists():
            pytest.skip("results/bench_fig3.txt not present")
        text = path.read_text()
        assert f"{GOLDEN_SGPRS1_FPS:.1f}" in text
        assert f"{GOLDEN_NAIVE_FPS:.1f}" in text