"""Daemon-fleet walkthrough: long-lived workers over a shared runs root.

Where ``examples/distributed_sweep.py`` shows one grid split across
single-pass workers, this example shows the *service* shape: a fleet of
``python -m repro worker`` daemons parked on a runs root, draining
whatever gets submitted — including a run **hot-added while the fleet
is already busy** — then idling out and exiting on their own:

    python examples/daemon_fleet.py

The real thing is the same three commands on N hosts sharing the root
directory (NFS or a bind mount):

    # any host, any time — submit work without computing it
    python -m repro sweep --scenario 1 --submit --runs-root /srv/runs

    # each worker host — a daemon that polls for new runs forever
    # (drop --max-idle to run until SIGTERM)
    python -m repro worker --runs-root /srv/runs --poll 5 --max-idle 24

    # any host, afterwards — assemble each run's canonical grid
    python -m repro merge /srv/runs/<RUN_ID> --out grid.json

Daemons refresh their claim heartbeats from a background ticker, so —
unlike single-pass claim workers — the TTL (``--heartbeat``) does not
need to exceed the slowest point's cost; a SIGKILL-ed daemon's claims
still age out and get stolen like any dead worker's.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.exp import GridSpec, init_run, merge_run, run_grid
from repro.exp.dist import pending_points

# Two small but real grids: the second is "hot-added" mid-flight.
GRID_A = GridSpec(
    scenario="scenario1",
    num_contexts=2,
    variants=("naive", "sgprs_1.5"),
    task_counts=(4, 8),
    seeds=(0, 1),
    duration=1.0,
    warmup=0.25,
)
GRID_B = GridSpec(
    scenario="scenario2",
    num_contexts=3,
    variants=("naive", "sgprs_1"),
    task_counts=(6,),
    duration=1.0,
    warmup=0.25,
)


def spawn_worker(runs_root: Path, name: str) -> subprocess.Popen:
    """One ``python -m repro worker`` daemon as a child process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--runs-root",
            str(runs_root),
            "--poll",
            "0.3",
            "--max-idle",
            "8",  # exit after ~2.4s with nothing to do
            "--owner",
            name,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main() -> None:
    runs_root = Path(tempfile.mkdtemp(prefix="repro-fleet-"))

    # --- submit run A, then park a two-daemon fleet on the root --------
    init_run(runs_root / "run-a", GRID_A)
    print(f"submitted run-a ({len(GRID_A)} points) under {runs_root}")
    fleet = [spawn_worker(runs_root, f"daemon-{i}") for i in range(2)]
    print(f"spawned {len(fleet)} worker daemons (poll 0.3s)")

    # --- hot-add run B while the fleet is draining run A ----------------
    while pending_points(runs_root / "run-a"):
        time.sleep(0.1)
    init_run(runs_root / "run-b", GRID_B)
    print(f"hot-added run-b ({len(GRID_B)} points) — no daemon restarts")

    # --- the daemons discover run B, drain it, idle out, exit 0 --------
    for proc in fleet:
        output, _ = proc.communicate(timeout=300)
        banner = output.strip().splitlines()[-1]
        print(f"  [{proc.args[-1]}] exit {proc.returncode}: {banner}")
        assert proc.returncode == 0

    # --- merge both runs and cross-check against single-host runs ------
    for name, grid in (("run-a", GRID_A), ("run-b", GRID_B)):
        merged = merge_run(runs_root / name)
        whole = run_grid(grid)
        merged_rows = {r.point: (r.total_fps, r.dmr) for r in merged.results}
        whole_rows = {r.point: (r.total_fps, r.dmr) for r in whole.results}
        assert merged_rows == whole_rows, f"{name}: fleet != single-host?!"
        print(f"{name}: merged {len(merged.results)} points == single-host run")
        for variant, points in merged.sweep().items():
            row = "  ".join(
                f"n={p.num_tasks}: {p.total_fps:.0f}fps/{p.dmr * 100:.0f}%"
                for p in points
            )
            print(f"  {variant:<10} {row}")


if __name__ == "__main__":
    main()
