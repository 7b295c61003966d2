"""Smoke tests for the CLI (fig1 path only; sweeps are benchmark-scale)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_figures_accepted(self):
        parser = build_parser()
        for figure in ("fig1", "fig3", "fig4", "all"):
            assert parser.parse_args([figure]).figure == figure

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_flags(self):
        args = build_parser().parse_args(["fig3", "--fast", "--csv", "x.csv"])
        assert args.fast
        assert args.csv == "x.csv"


class TestSweepParser:
    def test_scenario_accepts_names(self):
        args = build_parser().parse_args(["sweep", "--scenario", "mixed_fleet"])
        assert args.scenario == "mixed_fleet"
        assert build_parser().parse_args(["sweep"]).scenario == "1"

    def test_axis_flags(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--scenario",
                "util_ramp",
                "--tasks",
                "4,8",
                "--utilizations",
                "1.0,1.5,2.0",
                "--period-class",
                "camera",
                "--zoo-mix",
                "edge",
                "--deadline-mode",
                "constrained",
            ]
        )
        assert args.tasks == (4, 8)
        assert args.utilizations == (1.0, 1.5, 2.0)
        assert args.period_class == "camera"
        assert args.zoo_mix == "edge"
        assert args.deadline_mode == "constrained"

    def test_bad_axis_values_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--tasks", "4,zero"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--utilizations", "0,-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--period-class", "weekly"])


class TestListFlags:
    def test_list_scenarios(self, capsys):
        assert main(["sweep", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (
            "scenario1",
            "scenario2",
            "mixed_fleet",
            "surveillance_burst",
            "util_ramp",
        ):
            assert name in out

    def test_list_variants(self, capsys):
        assert main(["sweep", "--list-variants"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out
        assert "sgprs_1.5" in out


class TestSynthCommand:
    def test_prints_taskset_and_capacity(self, capsys):
        assert (
            main(
                [
                    "synth",
                    "--scenario",
                    "mixed_fleet",
                    "--tasks",
                    "4",
                    "--utilization",
                    "1.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mixed_fleet" in out
        assert "synth0_" in out
        assert "analytic demand" in out
        assert "naive" in out and "sgprs" in out


class TestDistParser:
    def test_shard_flag(self):
        args = build_parser().parse_args(["sweep", "--shard", "2/8"])
        assert args.shard == (2, 8)

    def test_bad_shard_rejected(self):
        for bad in ("0/4", "5/4", "x/y", "3"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "--shard", bad])

    def test_claim_and_heartbeat_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--claim", "--heartbeat", "30", "--owner", "w1"]
        )
        assert args.claim
        assert args.heartbeat == 30.0
        assert args.owner == "w1"

    def test_merge_command(self):
        args = build_parser().parse_args(
            ["merge", "a.json", "b.json", "--out", "g.json", "--allow-partial"]
        )
        assert args.figure == "merge"
        assert args.inputs == ["a.json", "b.json"]
        assert args.allow_partial


class TestDistributedSweep:
    """ISSUE 3 acceptance: a grid run as 4 shards then merged is
    identical (modulo the unordered ``elapsed`` provenance) to the same
    grid run single-host."""

    ARGS = [
        "sweep",
        "--scenario",
        "1",
        "--tasks",
        "2,3",
        "--duration",
        "0.4",
        "--warmup",
        "0.1",
    ]

    @staticmethod
    def _identity(path):
        """Value identity of a grid document: point rows minus elapsed."""
        import json

        doc = json.loads(path.read_text())
        rows = sorted(
            json.dumps(
                {k: v for k, v in row.items() if k != "elapsed"},
                sort_keys=True,
            )
            for row in doc["points"]
        )
        return doc["version"], doc["spec"], rows

    def test_four_shards_merge_to_single_host_run(self, tmp_path, capsys):
        whole = tmp_path / "whole.json"
        assert main(self.ARGS + ["--out", str(whole)]) == 0
        shard_paths = []
        for i in range(1, 5):
            out = tmp_path / f"shard{i}.json"
            assert (
                main(self.ARGS + ["--shard", f"{i}/4", "--out", str(out)])
                == 0
            )
            shard_paths.append(str(out))
        merged = tmp_path / "merged.json"
        assert main(["merge", *shard_paths, "--out", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "merged 8 of 8 grid points from 4 document(s)" in out
        assert self._identity(merged) == self._identity(whole)

    def test_claim_run_dir_merges_to_single_host_run(self, tmp_path, capsys):
        whole = tmp_path / "whole.json"
        assert main(self.ARGS + ["--out", str(whole)]) == 0
        run_dir = tmp_path / "run"
        # two sequential claim passes from different owners share one
        # run directory (the first drains the grid, the second sees a
        # fully-cached run — the concurrent case is covered in
        # tests/exp/test_dist_properties.py)
        for owner in ("w1", "w2"):
            assert (
                main(
                    self.ARGS
                    + ["--claim", "--owner", owner, "--run-dir", str(run_dir)]
                )
                == 0
            )
        merged = tmp_path / "merged.json"
        assert main(["merge", str(run_dir), "--out", str(merged)]) == 0
        assert self._identity(merged) == self._identity(whole)

    def test_partial_run_dir_plus_completing_shard_merges(
        self, tmp_path, capsys
    ):
        # a run dir holding only shard 1's checkpoints merges with the
        # shard-2 JSON that completes it — without --allow-partial
        run_dir = tmp_path / "run"
        assert (
            main(self.ARGS + ["--shard", "1/2", "--run-dir", str(run_dir)])
            == 0
        )
        shard2 = tmp_path / "shard2.json"
        assert (
            main(self.ARGS + ["--shard", "2/2", "--out", str(shard2)]) == 0
        )
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        assert (
            main(["merge", str(run_dir), str(shard2), "--out", str(merged)])
            == 0
        )
        assert "merged 8 of 8" in capsys.readouterr().out

    def test_cache_dir_conflicts_with_run_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                self.ARGS
                + [
                    "--claim",
                    "--cache-dir",
                    str(tmp_path / "warm"),
                    "--run-dir",
                    str(tmp_path / "run"),
                ]
            )

    def test_partial_shard_merge_reports_missing(self, tmp_path, capsys):
        out = tmp_path / "shard1.json"
        assert main(self.ARGS + ["--shard", "1/4", "--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="cover only"):
            main(["merge", str(out)])
        merged = tmp_path / "partial.json"
        assert (
            main(["merge", str(out), "--allow-partial", "--out", str(merged)])
            == 0
        )
        assert "2 of 8 grid points" in capsys.readouterr().out


class TestSweepRefusesBadAxes:
    """A bad axis value stops ``repro sweep`` with the grid's one-line
    reason before any point runs."""

    @pytest.mark.parametrize(
        "extra,field",
        [
            (["--arrival", "poisson:rate_scale=inf"], "rate_scale"),
            (["--admission", "queue:depth=2.5"], "depth"),
            (["--duration", "nan"], "duration"),
            (["--duration", "1.0", "--warmup", "1.0"], "warmup"),
            (["--scenario", "util_ramp", "--duration", "inf"], "duration"),
            (["--scenario", "util_ramp", "--utilizations", "1.0,nan"], "utilizations"),
        ],
    )
    def test_bad_axis_exits_naming_the_field(self, extra, field):
        with pytest.raises(SystemExit, match=field):
            main(["sweep", "--scenario", "1", "--tasks", "2", *extra])


class TestUtilizationSweepArrivals:
    def test_tables_and_pivots_print_once_per_arrival(self, tmp_path, capsys):
        """A utilization sweep over two arrival processes prints each
        arrival's tables and pivots under its own header (the pivot
        refuses to mix arrivals) and still writes ``--out``."""
        out = tmp_path / "grid.json"
        argv = [
            "sweep",
            "--scenario",
            "mixed_fleet",
            "--tasks",
            "2",
            "--utilizations",
            "1.0,1.5",
            "--duration",
            "0.2",
            "--warmup",
            "0.05",
            "--arrival",
            "poisson",
            "--arrival",
            "mmpp:burst=6",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "--- arrival: poisson ---" in text
        assert "--- arrival: mmpp:burst=6 ---" in text
        assert text.count("pivot utilization") == 2
        assert len(json.loads(out.read_text())["points"]) == 16

    def test_pivots_print_once_per_task_count(self, tmp_path, capsys):
        """A utilization sweep over two task counts prints one pivot line
        per variant and task count (the pivot refuses to mix task counts)
        and still writes ``--out``."""
        out = tmp_path / "grid.json"
        argv = [
            "sweep",
            "--scenario",
            "mixed_fleet",
            "--tasks",
            "2,3",
            "--utilizations",
            "1.0,1.5",
            "--duration",
            "0.2",
            "--warmup",
            "0.05",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        pivots = text.split("pivot utilization")[1].splitlines()[1:]
        assert [
            line.split(":")[0] for line in pivots if line.startswith("  ")
        ] == [
            f"  {variant} ({tasks} tasks)"
            for tasks in (2, 3)
            for variant in ("naive", "sgprs_1", "sgprs_1.5", "sgprs_2")
        ]
        assert len(json.loads(out.read_text())["points"]) == 16


class TestSubmitFlag:
    """``sweep --submit``: initialise the run directory, compute nothing."""

    ARGS = TestDistributedSweep.ARGS

    def test_submit_initialises_without_computing(self, tmp_path, capsys):
        from repro.exp.dist import load_manifest, pending_points

        assert (
            main(self.ARGS + ["--submit", "--runs-root", str(tmp_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "submitted run" in out
        assert "python -m repro worker" in out
        (run_dir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        manifest = load_manifest(run_dir)
        assert len(pending_points(run_dir)) == len(manifest.spec) == 8
        # a later worker pass (here: --resume) drains the submitted run
        assert main(["sweep", "--resume", str(run_dir)]) == 0
        assert "8 computed" in capsys.readouterr().out
        assert pending_points(run_dir) == []

    def test_submit_hint_names_the_run_dirs_actual_parent(
        self, tmp_path, capsys
    ):
        # with --run-dir, workers must be pointed at the directory that
        # actually contains the run — not the (unused) --runs-root
        run_dir = tmp_path / "elsewhere" / "myrun"
        assert main(self.ARGS + ["--submit", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert f"--runs-root {tmp_path / 'elsewhere'}" in out
        assert ".repro-runs" not in out

    def test_submit_is_idempotent(self, tmp_path, capsys):
        for _ in range(2):
            assert (
                main(self.ARGS + ["--submit", "--runs-root", str(tmp_path)])
                == 0
            )
        assert len(list(tmp_path.iterdir())) == 1


class TestCliExitCodes:
    """Documented refusal paths, driven as real subprocesses.

    The function layer pins the ``ValueError`` messages; these pin the
    *process contract* scripts and CI depend on: each refusal exits
    non-zero with a one-line reason on stderr (and nothing half-merged
    on stdout).
    """

    @staticmethod
    def _repro(*argv):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    @staticmethod
    def _write_shards(tmp_path, mutate=None):
        """Two complementary half-grid documents (optionally mutated)."""
        from repro.analysis.persistence import grid_to_dict
        from repro.exp.runner import run_grid

        from tests.exp.test_dist_properties import fake_point
        from tests.exp.test_dist_merge import SPEC

        paths = []
        for i in (1, 2):
            doc = grid_to_dict(run_grid(SPEC, shard=(i, 2), point_fn=fake_point))
            if mutate is not None:
                mutate(i, doc)
            path = tmp_path / f"shard{i}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return paths

    def _assert_refusal(self, result, reason):
        assert result.returncode != 0, result.stdout
        stderr = result.stderr.strip()
        assert reason in stderr, stderr
        assert len(stderr.splitlines()) == 1, (
            f"expected a one-line reason, got:\n{stderr}"
        )

    def test_merge_refuses_mixed_calibrations(self, tmp_path):
        def mutate(i, doc):
            doc["calibration"] = ("a" if i == 1 else "f") * 64

        result = self._repro("merge", *self._write_shards(tmp_path, mutate))
        self._assert_refusal(result, "different device calibrations")

    def test_merge_refuses_a_foreign_spec(self, tmp_path):
        def mutate(i, doc):
            if i == 2:
                doc["spec"]["duration"] = 99.0

        result = self._repro("merge", *self._write_shards(tmp_path, mutate))
        self._assert_refusal(result, "different grids")

    def test_merge_refuses_incomplete_coverage(self, tmp_path):
        shard1, _ = self._write_shards(tmp_path)
        result = self._repro("merge", shard1)
        self._assert_refusal(result, "cover only")
        # ...and the documented escape hatch succeeds
        rescue = self._repro("merge", shard1, "--allow-partial")
        assert rescue.returncode == 0, rescue.stderr

    def test_merge_refuses_mixed_format_versions(self, tmp_path):
        def mutate(i, doc):
            if i == 2:
                doc["version"] += 1

        result = self._repro("merge", *self._write_shards(tmp_path, mutate))
        self._assert_refusal(result, "mixed format versions")

    def test_resume_of_unknown_run_fails_cleanly(self, tmp_path):
        result = self._repro("sweep", "--resume", str(tmp_path / "ghost"))
        self._assert_refusal(result, "not a run directory")

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--arrival", "poisson:rate_scale=inf", "rate_scale"),
            ("--duration", "nan", "duration"),
        ],
    )
    def test_bad_sweep_axis_fails_cleanly(self, flag, value, field):
        result = self._repro("sweep", "--scenario", "1", "--tasks", "2", flag, value)
        self._assert_refusal(result, field)
        assert "Traceback" not in result.stderr


class TestFig1:
    def test_prints_table(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out
        assert "maxpool" in out
        assert "resnet18" in out
        # the 68-SM row must be present
        assert "\n 68" in out or "\n68" in out.replace("  ", " ")
