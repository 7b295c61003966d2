"""Command-line interface: regenerate the paper's figures from a terminal.

Usage::

    python -m repro fig1                 # per-operation speedup table
    python -m repro fig3 [--fast]        # scenario 1 (2 contexts) sweep
    python -m repro fig4 [--fast]        # scenario 2 (3 contexts) sweep
    python -m repro all  [--fast]        # everything
    python -m repro fig3 --csv out.csv   # also export the sweep as CSV

    # the parallel sweep harness (repro.exp): sharded, cached, replicated
    python -m repro sweep --scenario 1 --workers 4
    python -m repro sweep --scenario 2 --seeds 5 --jitter-cv 0.1
    python -m repro sweep --cache-dir .sweep-cache --out grid.json

    # heterogeneous (synthesized) workloads, by scenario name
    python -m repro sweep --list-scenarios
    python -m repro sweep --scenario mixed_fleet --tasks 6,10
    python -m repro sweep --scenario util_ramp --utilizations 1.0,1.5,2.0
    python -m repro synth --scenario surveillance_burst --tasks 8

    # open-system arrivals and admission control (repro.workloads.arrivals)
    python -m repro sweep --list-arrivals
    python -m repro sweep --scenario 1 --arrival mmpp:burst=6 --admission queue:depth=2
    python -m repro synth --scenario mixed_fleet --arrival poisson

    # distributed execution (repro.exp.dist): shard / claim / merge
    python -m repro sweep --scenario 1 --shard 2/8 --out shard2.json
    python -m repro sweep --scenario 1 --claim --heartbeat 30
    python -m repro sweep --scenario 1 --claim --record-traces
    python -m repro sweep --resume RUN_ID
    python -m repro merge .repro-runs/RUN_ID --out grid.json

    # daemon fleets (repro.exp.daemon): submit work, long-lived workers
    python -m repro sweep --scenario 1 --submit --runs-root /srv/runs
    python -m repro worker --runs-root /srv/runs --poll 5 --max-idle 24

``--fast`` shrinks the task grid and simulation horizon for a quick look;
the benchmark harness under ``benchmarks/`` runs the full-fidelity version.
``sweep`` runs the same grids through :func:`repro.exp.runner.run_grid`:
``--workers N`` shards points over N processes, ``--cache-dir`` skips
already-computed points, and ``--seeds K`` replicates every point over K
seeds and reports mean +/- 95% CI (pair it with ``--jitter-cv`` — with
zero jitter the replicas are identical by design).  ``--scenario`` takes a
paper scenario (``1``/``2``) or any name from ``--list-scenarios``; synth
scenarios accept a ``--utilizations`` axis plus ``--period-class`` /
``--zoo-mix`` / ``--deadline-mode`` overrides.  ``synth`` synthesizes one
taskset and prints its composition and analytic capacity estimates
without running a sweep.

Distributed sweeps (see :mod:`repro.exp.dist` for the protocol):
``--shard I/N`` statically evaluates round-robin shard I of N — run the N
shards anywhere, collect their ``--out`` JSONs, and ``merge`` them.
``--claim`` dynamically partitions a *run directory* shared by any number
of concurrent workers (``--run-dir``, defaulting to
``<--runs-root>/<run id>``): each pending point is atomically claimed
before being computed, a crashed worker's claims go stale after
``--heartbeat`` seconds and are re-claimed, and every completed point is
checkpointed so ``--resume RUN`` (a run id or directory) recomputes only
what is missing.  ``--record-traces`` additionally ships every computed
point's columnar execution trace into the run directory's ``traces/``
subdirectory (:mod:`repro.sim.trace_io` format; load them back with
:func:`repro.analysis.persistence.load_run_traces`), and
``--aggregate-csv`` exports the seed-aggregated cells — tail latency and
queue depth included — as CSV.  ``merge`` assembles run directories
and/or grid JSONs
into one canonical grid, refusing mixed schema versions, mixed
calibration fingerprints and conflicting duplicates.

Daemon fleets (see :mod:`repro.exp.daemon`): ``sweep --submit``
initialises a run directory under ``--runs-root`` and exits without
computing anything; ``worker`` is the long-lived counterpart that polls
the runs root (``--poll``), drains every pending run it discovers
through the claim protocol with background heartbeat refresh, picks up
hot-added runs, and exits cleanly on SIGTERM, after ``--max-idle``
empty poll cycles, or after one pass with ``--once``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.pivot import pivot_table, utilization_pivot_table
from repro.analysis.report import (
    ascii_chart,
    render_aggregate_table,
    render_fig1_table,
    render_sweep_table,
    render_utilization_table,
    sweep_to_csv,
)
from repro.core.context_pool import ContextPoolConfig
from repro.dnn.resnet import build_resnet18
from repro.exp.grid import registered_variants
from repro.exp.runner import run_grid
from repro.exp.worker import run_point
from repro.gpu.spec import RTX_2080_TI
from repro.numeric import sum_in_order
from repro.speedup.measure import measure_network_speedup, measure_op_speedups
from repro.workloads.scenarios import (
    OVERSUBSCRIPTION_LEVELS,
    PAPER_SCENARIOS,
    SCENARIO_1,
    SCENARIO_2,
    Scenario,
    list_all_scenarios,
    run_scenario_sweep,
    scenario_grid,
)

#: Task grid of the full sweeps (the paper sweeps to ~30 tasks).
FULL_TASK_COUNTS = tuple(range(2, 31, 2)) + (23, 25, 27, 29)
FAST_TASK_COUNTS = (4, 8, 12, 16, 20, 24, 28)

#: Default task grids of synthesized-workload sweeps (the mix, not the
#: count, is the interesting axis there).
SYNTH_FULL_TASK_COUNTS = (4, 8, 12, 16)
SYNTH_FAST_TASK_COUNTS = (4, 8, 12)


def _fig1(args: argparse.Namespace) -> None:
    graph = build_resnet18()
    op_curves = measure_op_speedups(graph)
    net_curve = measure_network_speedup(graph)
    print("Fig. 1 — speedup gain vs. SMs (isolation, simulated RTX 2080 Ti)")
    print(render_fig1_table(op_curves, net_curve))
    chart = ascii_chart(
        {str(t): [(float(s), v) for s, v in pts] for t, pts in op_curves.items()},
        title="speedup vs SMs",
    )
    print()
    print(chart)


def _scenario(
    scenario: Scenario, figure: str, args: argparse.Namespace
) -> None:
    counts = FAST_TASK_COUNTS if args.fast else FULL_TASK_COUNTS
    duration = 2.5 if args.fast else 6.0
    warmup = 1.0 if args.fast else 1.5
    sweep = run_scenario_sweep(
        scenario, sorted(counts), duration=duration, warmup=warmup
    )
    print(
        f"{figure}a — total FPS, {scenario.name} "
        f"({scenario.num_contexts} contexts)"
    )
    print(render_sweep_table(sweep, metric="total_fps"))
    print()
    print(f"{figure}b — deadline miss rate, {scenario.name}")
    print(render_sweep_table(sweep, metric="dmr"))
    print()
    print("pivot points (largest task count with zero misses):")
    for variant, pivot in pivot_table(sweep).items():
        print(f"  {variant}: {pivot}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(sweep_to_csv(sweep))
        print(f"CSV written to {args.csv}")


def _print_scenarios() -> None:
    print("registered scenarios:")
    for name, description in list_all_scenarios():
        print(f"  {name:<20} {description}")


def _print_arrivals() -> None:
    from repro.core.admission import list_admission_policies
    from repro.workloads.arrivals import list_arrivals

    print("registered arrival processes (--arrival SPEC, repeatable):")
    for name, description in list_arrivals():
        print(f"  {name:<12} {description}")
    print("registered admission policies (--admission SPEC):")
    for name, description in list_admission_policies():
        print(f"  {name:<12} {description}")


def _print_variants() -> None:
    print("built-in variants:")
    print("  naive                single-stage baseline, 1.0x partitions")
    for level in OVERSUBSCRIPTION_LEVELS:
        print(f"  sgprs_{level:<14g} SGPRS at {level:g}x over-subscription")
    print("  sgprs_<os>           any other over-subscription level")
    custom = registered_variants()
    if custom:
        print("registered custom variants:")
        for name in custom:
            print(f"  {name}")


def _sweep(args: argparse.Namespace) -> None:
    if args.list_scenarios:
        _print_scenarios()
        return
    if args.list_variants:
        _print_variants()
        return
    if args.list_arrivals:
        _print_arrivals()
        return
    if args.resume:
        _sweep_resume(args)
        return
    if args.scenario in PAPER_SCENARIOS:
        _sweep_paper(PAPER_SCENARIOS[args.scenario], args)
    else:
        _sweep_synth(args)


def _default_run_dir(args: argparse.Namespace, grid) -> Optional[str]:
    """The shared run directory this invocation should use, if any."""
    if args.run_dir:
        return args.run_dir
    if args.claim or args.submit:
        from repro.exp.dist import run_id_for

        return str(Path(args.runs_root) / run_id_for(grid))
    return None


def _run_spec(grid, args: argparse.Namespace, run_dir: Optional[str] = None):
    """Execute a grid honouring the cache/shard/claim/run-dir flags."""
    if run_dir is None:
        run_dir = _default_run_dir(args, grid)
    cache_dir = args.cache_dir
    claim_config = None
    manifest = None
    if run_dir is not None:
        from repro.exp.dist import ClaimConfig, default_owner, init_run

        if args.cache_dir:
            # silently preferring one cache over the other would either
            # ignore a warm cache or split checkpoints across two
            # directories — refuse instead
            raise SystemExit(
                "--cache-dir conflicts with --run-dir/--claim/--resume: "
                "a run directory keeps its checkpoints in its own cache/ "
                "subdirectory"
            )
        try:
            manifest = init_run(run_dir, grid)
        except ValueError as error:
            raise SystemExit(str(error)) from None
        if args.submit:
            # submit-only: the run directory now advertises the grid;
            # a worker fleet (python -m repro worker) does the computing.
            # Workers discover runs one level under their root, so the
            # hint must name the directory that actually contains this
            # run — its parent, not --runs-root, when --run-dir was used.
            root_hint = (
                Path(run_dir).parent if args.run_dir else args.runs_root
            )
            print(
                f"submitted run {manifest.run_id} at {run_dir} "
                f"({len(grid)} points; drain with: python -m repro worker "
                f"--runs-root {root_hint})"
            )
            return None
        cache_dir = Path(run_dir) / "cache"
        if args.claim:
            claim_config = ClaimConfig(
                run_dir=run_dir,
                owner=args.owner or default_owner(),
                ttl=args.heartbeat,
                skew=args.skew,
            )
    point_fn = run_point
    if getattr(args, "record_traces", False):
        if run_dir is None:
            raise SystemExit(
                "--record-traces needs a run directory to ship traces "
                "into; combine it with --run-dir, --claim or --resume"
            )
        import functools

        point_fn = functools.partial(run_point, trace_store=run_dir)
    result = run_grid(
        grid,
        workers=args.workers,
        cache_dir=cache_dir,
        shard=args.shard,
        claim=claim_config,
        point_fn=point_fn,
    )
    if manifest is not None:
        print(
            f"run {manifest.run_id} at {run_dir} "
            f"(resume with: python -m repro sweep --resume {run_dir})"
        )
    return result


def _run_summary(result, args: argparse.Namespace) -> str:
    """The `N points in T s (...)` fragment of the sweep banner."""
    parts = [
        f"{len(result.results)} points in {result.elapsed:.2f}s",
        f"({result.cache_hits} cached, {result.cache_misses} computed",
    ]
    summary = f"{parts[0]} {parts[1]}"
    if result.skipped:
        summary += f", {result.skipped} claimed elsewhere"
    return summary + f", workers={args.workers})"


def _sweep_resume(args: argparse.Namespace) -> None:
    """Re-run the pending points of an existing run directory."""
    from repro.exp.dist import MANIFEST_NAME, load_manifest

    run_dir = Path(args.resume)
    if not (run_dir / MANIFEST_NAME).exists():
        run_dir = Path(args.runs_root) / args.resume
    try:
        manifest = load_manifest(run_dir)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    result = _run_spec(manifest.spec, args, run_dir=str(run_dir))
    if result is None:  # --resume --submit: the run dir already exists
        return
    print(
        f"resumed sweep {manifest.spec.scenario}: "
        f"{_run_summary(result, args)}"
    )
    _print_count_tables(result, len(manifest.spec.seeds))
    _export(result, args)


def _merge(args: argparse.Namespace) -> None:
    """Merge run directories and/or grid JSONs into one canonical grid."""
    import json

    from repro.analysis.persistence import merge_grid_dicts, save_grid
    from repro.analysis.report import sweep_to_csv
    from repro.exp.dist import MANIFEST_NAME, run_payload

    def load_document(file):
        try:
            with open(file) as handle:
                return json.load(handle)
        except ValueError as error:
            raise SystemExit(f"{file}: not valid JSON ({error})") from None

    payloads = []
    sources = []
    for raw in args.inputs:
        path = Path(raw)
        if path.is_dir() and (path / MANIFEST_NAME).exists():
            # always read run directories permissively: coverage is
            # validated on the *combined* inputs below, so a partial run
            # dir plus the shard JSONs that complete it merges cleanly
            try:
                payloads.append(run_payload(path, allow_partial=True))
            except ValueError as error:
                raise SystemExit(str(error)) from None
            sources.append(str(path))
        elif path.is_dir():
            files = sorted(path.glob("*.json"))
            if not files:
                raise SystemExit(f"{path}: no grid JSON documents found")
            for file in files:
                payloads.append(load_document(file))
                sources.append(str(file))
        elif path.is_file():
            payloads.append(load_document(path))
            sources.append(str(path))
        else:
            raise SystemExit(f"{path}: no such file or directory")
    try:
        merged = merge_grid_dicts(payloads, allow_partial=args.allow_partial)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    total = len(merged.spec)
    print(
        f"merged {len(merged.results)} of {total} grid points from "
        f"{len(sources)} document(s)"
    )
    if len(merged.results) < total:
        print(f"({total - len(merged.results)} points still missing)")
    if args.out:
        save_grid(merged, args.out)
        print(f"grid JSON written to {args.out}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(sweep_to_csv(merged.sweep()))
        print(f"CSV written to {args.csv}")


def _sweep_paper(scenario: Scenario, args: argparse.Namespace) -> None:
    synth_only = {
        "--utilizations": args.utilizations,
        "--period-class": args.period_class,
        "--zoo-mix": args.zoo_mix,
        "--deadline-mode": args.deadline_mode,
    }
    offending = [flag for flag, value in synth_only.items() if value]
    if offending:
        raise SystemExit(
            f"{', '.join(offending)} require a synth scenario "
            f"(see --list-scenarios), not {scenario.name!r}"
        )
    counts = args.tasks or (FAST_TASK_COUNTS if args.fast else FULL_TASK_COUNTS)
    duration = args.duration or (2.5 if args.fast else 6.0)
    warmup = args.warmup or (1.0 if args.fast else 1.5)
    try:
        grid = scenario_grid(
            scenario,
            sorted(counts),
            duration=duration,
            warmup=warmup,
            seeds=tuple(range(args.seeds)),
            work_jitter_cv=args.jitter_cv,
            arrivals=tuple(args.arrival or ("periodic",)),
            admission=args.admission,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    result = _run_spec(grid, args)
    if result is None:  # --submit: initialised only, nothing computed
        return
    print(
        f"sweep {scenario.name} ({scenario.num_contexts} contexts): "
        f"{_run_summary(result, args)}"
    )
    _print_count_tables(result, args.seeds)
    _export(result, args)


def _sweep_synth(args: argparse.Namespace) -> None:
    from repro.workloads.synth.scenarios import get_synth_scenario
    from repro.workloads.synth.sweep import synth_grid

    scenario = get_synth_scenario(args.scenario)  # KeyError lists the names
    counts = args.tasks or (
        SYNTH_FAST_TASK_COUNTS if args.fast else SYNTH_FULL_TASK_COUNTS
    )
    duration = args.duration or (1.5 if args.fast else 4.0)
    warmup = args.warmup or (0.5 if args.fast else 1.0)
    try:
        grid = synth_grid(
            scenario.name,
            utilizations=args.utilizations or (),
            task_counts=tuple(sorted(counts)),
            duration=duration,
            warmup=warmup,
            seeds=tuple(range(args.seeds)),
            work_jitter_cv=args.jitter_cv,
            period_class=args.period_class,
            zoo_mix=args.zoo_mix,
            deadline_mode=args.deadline_mode,
            arrivals=tuple(args.arrival or ("periodic",)),
            admission=args.admission,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    result = _run_spec(grid, args)
    if result is None:  # --submit: initialised only, nothing computed
        return
    print(
        f"sweep {scenario.name} ({scenario.num_contexts} contexts, "
        f"mix={args.zoo_mix or scenario.zoo_mix}): "
        f"{_run_summary(result, args)}"
    )
    if args.utilizations and len(args.utilizations) > 1:
        _print_utilization_tables(result)
    else:
        _print_count_tables(result, args.seeds)
    _export(result, args)


def _arrival_slices(results) -> List[Tuple[str, list]]:
    """``results`` split into ``(arrival, subset)`` slices, in arrival
    order.

    A multi-valued ``--arrival`` axis has no single-table shape (neither
    ``SweepPoint`` nor a utilization-table cell carries an arrival
    coordinate), so the sweep tables are printed once per slice instead
    of collapsing distinct cells.
    """
    slices: dict = {}
    for point_result in results:
        slices.setdefault(point_result.point.arrival, []).append(point_result)
    return [(arrival, slices[arrival]) for arrival in sorted(slices)]


def _print_utilization_tables(result) -> None:
    """The utilization-axis tables and per-variant pivots, once per
    arrival slice."""
    from repro.exp.aggregate import aggregate_results

    if not result.results:
        print("(no points computed by this worker yet)")
        return
    slices = _arrival_slices(result.results)
    for arrival, subset in slices:
        if len(slices) > 1:
            print(f"--- arrival: {arrival} ---")
        aggregates = aggregate_results(subset)
        print(render_utilization_table(aggregates, "total_fps", title="total FPS"))
        print()
        print(
            render_utilization_table(
                aggregates, "dmr", title="deadline miss rate"
            )
        )
        print()
        print("pivot utilization (largest target with zero misses):")
        # The pivot refuses to mix task counts: one line per variant and
        # task count when the sweep has several.
        by_tasks: dict = {}
        for point_result in subset:
            by_tasks.setdefault(point_result.point.num_tasks, []).append(
                point_result
            )
        for num_tasks in sorted(by_tasks):
            label = f" ({num_tasks} tasks)" if len(by_tasks) > 1 else ""
            pivots = utilization_pivot_table(by_tasks[num_tasks])
            for variant, pivot in pivots.items():
                print(f"  {variant}{label}: {pivot}")
        if len(slices) > 1:
            print()


def _print_count_tables(result, seeds: int) -> None:
    """The classic task-count-axis tables (seed means or mean±ci95),
    once per arrival slice."""
    from repro.exp.aggregate import aggregate_results, to_sweep

    if not result.results:
        print("(no points computed by this worker yet)")
        return
    slices = _arrival_slices(result.results)
    for arrival, subset in slices:
        if len(slices) > 1:
            print(f"--- arrival: {arrival} ---")
        if seeds > 1:
            aggregates = aggregate_results(subset)
            print(
                render_aggregate_table(
                    aggregates,
                    "total_fps",
                    title=f"total FPS, mean±ci95 over {seeds} seeds",
                )
            )
            print()
            print(
                render_aggregate_table(
                    aggregates,
                    "dmr",
                    title=f"deadline miss rate, mean±ci95 over {seeds} seeds",
                )
            )
            if arrival != "periodic":
                # open-system slices also get the tail/queue aggregates
                # (closed-system output stays byte-stable)
                print()
                print(
                    render_aggregate_table(
                        aggregates,
                        "p99_response",
                        title="p99 response, mean±ci95 over seeds",
                    )
                )
                print()
                print(
                    render_aggregate_table(
                        aggregates,
                        "mean_queue_depth",
                        title="mean queue depth, mean±ci95 over seeds",
                    )
                )
        else:
            sweep = to_sweep(subset)
            print(render_sweep_table(sweep, "total_fps", title="total FPS"))
            print()
            print(render_sweep_table(sweep, "dmr", title="deadline miss rate"))
        _print_open_system_summary(subset)
        if len(slices) > 1:
            print()


def _print_open_system_summary(results) -> None:
    """Per-variant rejection/goodput/tail line for open-system slices.

    Silent on closed-system runs (periodic arrivals, nothing rejected)
    so the classic sweep output stays byte-stable.
    """
    if all(
        r.point.arrival == "periodic" and r.rejected == 0 for r in results
    ):
        return
    by_variant: dict = {}
    for point_result in results:
        by_variant.setdefault(point_result.point.variant, []).append(
            point_result
        )
    print()
    print("open-system metrics (mean over points):")
    for variant in sorted(by_variant):
        rows = by_variant[variant]
        rejection = sum_in_order(r.rejection_rate for r in rows) / len(rows)
        goodput = sum_in_order(r.goodput for r in rows) / len(rows)
        p99s = [r.p99_response for r in rows if r.p99_response is not None]
        tail = (
            f"p99 {max(p99s) * 1e3:.1f} ms (worst point)"
            if p99s
            else "p99 n/a"
        )
        print(
            f"  {variant:<12} reject {rejection * 100:5.2f}%  "
            f"goodput {goodput:8.1f} fps  {tail}"
        )


def _export(result, args: argparse.Namespace) -> None:
    if getattr(args, "aggregate_csv", None):
        from repro.analysis.report import aggregate_to_csv
        from repro.exp.aggregate import aggregate_results

        with open(args.aggregate_csv, "w") as handle:
            handle.write(aggregate_to_csv(aggregate_results(result.results)))
        print(f"aggregate CSV written to {args.aggregate_csv}")
    if args.csv:
        try:
            csv_text = sweep_to_csv(result.sweep())
        except ValueError as error:
            print(
                f"--csv skipped: {error} (use --out for the full "
                "multi-axis grid JSON)"
            )
        else:
            with open(args.csv, "w") as handle:
                handle.write(csv_text)
            print(f"CSV written to {args.csv}")
    if args.out:
        from repro.analysis.persistence import save_grid

        save_grid(result, args.out)
        print(f"grid JSON written to {args.out}")


def _worker(args: argparse.Namespace) -> None:
    """Run one long-lived daemon worker over a runs root."""
    from repro.exp.daemon import DaemonConfig, serve

    stats = serve(
        DaemonConfig(
            runs_root=args.runs_root,
            poll=args.poll,
            max_idle=args.max_idle,
            once=args.once,
            owner=args.owner,
            ttl=args.heartbeat,
            skew=args.skew,
            workers=args.workers,
        ),
        echo=print,
    )
    print(
        f"served {stats.runs_seen} run(s): {stats.points_computed} points "
        f"computed, {stats.points_skipped} left to peers "
        f"({stats.cycles} poll cycle(s), stopped by {stats.stopped_by})"
    )


def _lint(args: argparse.Namespace) -> int:
    """Run the invariant linter; exit 0 only on a clean tree."""
    from repro.devtools.lint import (
        ALL_RULES,
        render_json,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.summary}")
        return 0
    try:
        findings = run_lint(
            args.paths,
            ALL_RULES,
            select=args.select,
            ignore=args.ignore,
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(findings))
    return 1 if any(f.severity == "error" for f in findings) else 0


def _synth(args: argparse.Namespace) -> None:
    """Synthesize one taskset and print its composition + capacity math."""
    from repro.analysis.schedulability import (
        taskset_naive_utilization,
        taskset_sgprs_utilization,
    )
    from repro.workloads.synth.scenarios import get_synth_scenario
    from repro.workloads.synth.taskset import describe_taskset, synthesize_taskset

    scenario = get_synth_scenario(args.scenario)
    spec = scenario.spec(
        num_tasks=args.tasks,
        seed=args.seed,
        total_utilization=args.utilization,
        period_class=args.period_class,
        zoo_mix=args.zoo_mix,
        deadline_mode=args.deadline_mode,
    )
    pool = ContextPoolConfig.from_oversubscription(
        scenario.num_contexts, 1.0, RTX_2080_TI
    )
    tasks = synthesize_taskset(spec, nominal_sms=pool.sms_per_context)
    print(
        f"{scenario.name}: {spec.num_tasks} tasks, target utilization "
        f"{spec.total_utilization:g}, mix={spec.zoo_mix}, "
        f"periods={spec.period_class}, deadlines={spec.deadline_mode}, "
        f"seed={spec.seed}"
    )
    print()
    print(describe_taskset(tasks))
    print()
    naive_util = taskset_naive_utilization(
        tasks, scenario.num_contexts, pool.sms_per_context
    )
    sgprs_util = taskset_sgprs_utilization(tasks, RTX_2080_TI)
    print("analytic demand (fraction of capacity; >1 predicts misses):")
    print(f"  naive ({scenario.num_contexts} contexts): {naive_util:.3f}")
    print(f"  sgprs (saturation ceiling):  {sgprs_util:.3f}")
    from repro.workloads.arrivals import record_arrivals, resolve_arrival

    process = resolve_arrival(args.arrival)
    horizon = 4.0
    events = record_arrivals(process, tasks, horizon=horizon, seed=args.seed)
    nominal = sum_in_order(horizon / task.period for task in tasks)
    print()
    print(f"arrival process: {process.name} — {process.describe()}")
    print(
        f"  {len(events)} arrivals over {horizon:g}s "
        f"({nominal:.0f} under strictly periodic releases, "
        f"{len(events) / nominal:.2f}x nominal demand)"
        if nominal
        else f"  {len(events)} arrivals over {horizon:g}s"
    )


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {number}")
    return number


def _nonnegative_float(value: str) -> float:
    number = float(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _shard_spec(value: str) -> tuple:
    """A shard spec ``i/n`` (1-based), e.g. ``2/8``."""
    from repro.exp.dist import parse_shard

    try:
        return parse_shard(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _jitter_cv(value: str) -> float:
    number = float(value)
    if not 0.0 <= number < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {number}")
    return number


def _task_counts(value: str) -> tuple:
    """Comma-separated positive ints, e.g. ``4,8,12``."""
    try:
        counts = tuple(_positive_int(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive ints, got {value!r}"
        ) from None
    return counts


def _utilizations(value: str) -> tuple:
    """Comma-separated positive floats, e.g. ``1.0,1.5,2.0``."""
    try:
        utils = tuple(float(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {value!r}"
        ) from None
    if any(u <= 0 for u in utils):
        raise argparse.ArgumentTypeError(f"utilizations must be > 0: {value!r}")
    return utils


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="sgprs",
        description="Regenerate the SGPRS paper's figures on the simulator.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--fast",
        action="store_true",
        help="smaller grid and shorter horizon for a quick look",
    )
    common.add_argument(
        "--csv",
        default=None,
        help="also write the sweep data to this CSV file",
    )
    commands = parser.add_subparsers(
        dest="figure", required=True, metavar="command"
    )
    for name, help_text in (
        ("fig1", "per-operation speedup table"),
        ("fig3", "scenario 1 (2 contexts) sweep"),
        ("fig4", "scenario 2 (3 contexts) sweep"),
        ("all", "every figure"),
    ):
        commands.add_parser(name, parents=[common], help=help_text)
    sweep = commands.add_parser(
        "sweep",
        parents=[common],
        help="parallel sweep harness: sharded, cached, seed-replicated",
    )
    sweep.add_argument(
        "--scenario",
        default="1",
        help=(
            "scenario to sweep: 1/2 (the paper's identical-task pools) or "
            "any name from --list-scenarios (e.g. mixed_fleet)"
        ),
    )
    sweep.add_argument(
        "--tasks",
        type=_task_counts,
        default=None,
        metavar="N[,N...]",
        help="override the task-count axis (comma-separated)",
    )
    sweep.add_argument(
        "--utilizations",
        type=_utilizations,
        default=None,
        metavar="U[,U...]",
        help=(
            "target-total-utilization axis for synth scenarios "
            "(comma-separated; enables the utilization pivot tables)"
        ),
    )
    sweep.add_argument(
        "--period-class",
        default="",
        choices=("", "implied", "camera", "loguniform"),
        help="override the synth scenario's period class",
    )
    sweep.add_argument(
        "--zoo-mix",
        default="",
        help="override the synth scenario's model mix (see synth.zoo)",
    )
    sweep.add_argument(
        "--deadline-mode",
        default="",
        choices=("", "implicit", "constrained"),
        help="override the synth scenario's deadline mode",
    )
    sweep.add_argument(
        "--arrival",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "arrival-process axis value, repeatable for a multi-column "
            "axis (e.g. --arrival poisson --arrival mmpp:burst=6; "
            "default: periodic — see --list-arrivals)"
        ),
    )
    sweep.add_argument(
        "--admission",
        default="",
        metavar="SPEC",
        help=(
            "admission policy for every point (skip / admit_all / reject "
            "/ queue:depth=N; default: the legacy skip-if-in-flight rule)"
        ),
    )
    sweep.add_argument(
        "--list-arrivals",
        action="store_true",
        help="print the registered arrival processes / admission "
        "policies and exit",
    )
    sweep.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the registered scenarios and exit",
    )
    sweep.add_argument(
        "--list-variants",
        action="store_true",
        help="print the known scheduler variants and exit",
    )
    sweep.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=0,
        help="worker processes (0: serial in-process)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache; already-computed points are skipped",
    )
    sweep.add_argument(
        "--seeds",
        type=_positive_int,
        default=1,
        help="replication seeds per point (>1 reports mean±ci95)",
    )
    sweep.add_argument(
        "--jitter-cv",
        type=_jitter_cv,
        default=0.0,
        help="per-stage execution-time jitter CV (enables seed variation)",
    )
    sweep.add_argument(
        "--out",
        default=None,
        help="write the full per-seed grid result to this JSON file",
    )
    sweep.add_argument(
        "--aggregate-csv",
        default=None,
        metavar="FILE",
        help=(
            "write the seed-aggregated cells (mean±ci95 of every metric, "
            "tail latency and queue depth included) to this CSV file"
        ),
    )
    sweep.add_argument(
        "--duration",
        type=_positive_float,
        default=None,
        help="override the simulated horizon per point (seconds)",
    )
    sweep.add_argument(
        "--warmup",
        type=_positive_float,
        default=None,
        help="override the per-point warmup window (seconds)",
    )
    dist = sweep.add_argument_group(
        "distributed execution",
        "shard/claim/merge protocol over a shared directory "
        "(see repro.exp.dist)",
    )
    dist.add_argument(
        "--shard",
        type=_shard_spec,
        default=None,
        metavar="I/N",
        help=(
            "evaluate only deterministic round-robin shard I of N "
            "(1-based); merge the N outputs with `repro merge`"
        ),
    )
    dist.add_argument(
        "--claim",
        action="store_true",
        help=(
            "atomically claim pending points through the shared run "
            "directory so concurrent workers (any host) split the grid "
            "dynamically; crashed workers' points are re-claimed after "
            "the heartbeat TTL"
        ),
    )
    from repro.exp.dist import DEFAULT_SKEW, DEFAULT_TTL

    dist.add_argument(
        "--heartbeat",
        type=_positive_float,
        default=DEFAULT_TTL,
        metavar="SECONDS",
        help=(
            f"claim time-to-live: a claim older than this is presumed "
            f"abandoned and stolen (default {DEFAULT_TTL:g}; keep it "
            f"above the cost of the slowest single point)"
        ),
    )
    dist.add_argument(
        "--skew",
        type=_nonnegative_float,
        default=DEFAULT_SKEW,
        metavar="SECONDS",
        help=(
            f"cross-host clock-skew allowance folded into the staleness "
            f"check: a claim is stolen only once its heartbeat is older "
            f"than TTL+skew (default {DEFAULT_SKEW:g})"
        ),
    )
    dist.add_argument(
        "--owner",
        default=None,
        help="claim-owner id (default: <hostname>-<pid>)",
    )
    dist.add_argument(
        "--submit",
        action="store_true",
        help=(
            "initialise the run directory (manifest + empty cache) and "
            "exit without computing; a worker fleet drains it"
        ),
    )
    dist.add_argument(
        "--run-dir",
        default=None,
        help=(
            "shared run directory (manifest + claims + cache); created "
            "on first use, validated against the grid afterwards"
        ),
    )
    dist.add_argument(
        "--resume",
        default=None,
        metavar="RUN",
        help=(
            "resume an interrupted run by id (under --runs-root) or by "
            "run-directory path; only missing points are recomputed"
        ),
    )
    dist.add_argument(
        "--runs-root",
        default=".repro-runs",
        help="where implicit run directories live (default: .repro-runs)",
    )
    dist.add_argument(
        "--record-traces",
        action="store_true",
        help=(
            "ship each computed point's columnar execution trace into "
            "the run directory's traces/ subdirectory (repro.sim.trace_io "
            "format; requires --run-dir, --claim or --resume)"
        ),
    )
    worker = commands.add_parser(
        "worker",
        help=(
            "long-lived sweep daemon: poll a runs root, drain pending "
            "runs via the claim protocol, exit on SIGTERM/idle"
        ),
    )
    worker.add_argument(
        "--runs-root",
        default=".repro-runs",
        help="root holding the run directories to serve (default: "
        ".repro-runs)",
    )
    worker.add_argument(
        "--poll",
        type=_positive_float,
        default=5.0,
        metavar="SECONDS",
        help="re-discovery interval between idle passes (default: 5)",
    )
    worker.add_argument(
        "--max-idle",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "exit after N consecutive poll cycles with nothing to "
            "compute (default: run until signalled)"
        ),
    )
    worker.add_argument(
        "--once",
        action="store_true",
        help="one discover-and-drain pass, then exit",
    )
    worker.add_argument(
        "--owner",
        default=None,
        help="claim-owner id (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--heartbeat",
        type=_positive_float,
        default=DEFAULT_TTL,
        metavar="SECONDS",
        help=(
            f"claim TTL (default {DEFAULT_TTL:g}); the daemon refreshes "
            f"heartbeats in the background, so short TTLs are safe here"
        ),
    )
    worker.add_argument(
        "--skew",
        type=_nonnegative_float,
        default=DEFAULT_SKEW,
        metavar="SECONDS",
        help=f"cross-host clock-skew allowance (default {DEFAULT_SKEW:g})",
    )
    worker.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=0,
        help="worker processes per drain pass (0: serial in-process)",
    )
    merge = commands.add_parser(
        "merge",
        help=(
            "merge shard outputs / run directories into one canonical "
            "grid JSON"
        ),
    )
    merge.add_argument(
        "inputs",
        nargs="+",
        metavar="PATH",
        help=(
            "run directories, grid JSON files, or directories of grid "
            "JSON files"
        ),
    )
    merge.add_argument(
        "--out",
        default=None,
        help="write the merged grid document to this JSON file",
    )
    merge.add_argument(
        "--csv",
        default=None,
        help="also write the merged sweep as CSV",
    )
    merge.add_argument(
        "--allow-partial",
        action="store_true",
        help="accept incomplete coverage (merge whatever points exist)",
    )
    synth = commands.add_parser(
        "synth",
        help="synthesize one heterogeneous taskset and print its composition",
    )
    synth.add_argument(
        "--scenario",
        default="mixed_fleet",
        help="synth scenario name (see sweep --list-scenarios)",
    )
    synth.add_argument(
        "--tasks",
        type=_positive_int,
        default=8,
        help="taskset size",
    )
    synth.add_argument(
        "--utilization",
        type=float,
        default=None,
        help="target total utilization (default: the scenario's)",
    )
    synth.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="synthesis seed"
    )
    synth.add_argument(
        "--period-class",
        default="",
        choices=("", "implied", "camera", "loguniform"),
        help="override the scenario's period class",
    )
    synth.add_argument(
        "--zoo-mix", default="", help="override the scenario's model mix"
    )
    synth.add_argument(
        "--deadline-mode",
        default="",
        choices=("", "implicit", "constrained"),
        help="override the scenario's deadline mode",
    )
    synth.add_argument(
        "--arrival",
        default="periodic",
        metavar="SPEC",
        help=(
            "arrival process to summarise against the taskset "
            "(default: periodic; see sweep --list-arrivals)"
        ),
    )
    lint = commands.add_parser(
        "lint",
        help=(
            "AST-based invariant linter: determinism, trace-schema and "
            "version-discipline rules (see src/repro/devtools/README.md)"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json output is byte-identical across runs)",
    )
    lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="only run these rule ids (comma-separated, repeatable)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="skip these rule ids (comma-separated, repeatable)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.figure in ("fig1", "all"):
        _fig1(args)
    if args.figure in ("fig3", "all"):
        _scenario(SCENARIO_1, "Fig. 3", args)
    if args.figure in ("fig4", "all"):
        _scenario(SCENARIO_2, "Fig. 4", args)
    if args.figure == "sweep":
        _sweep(args)
    if args.figure == "merge":
        _merge(args)
    if args.figure == "worker":
        _worker(args)
    if args.figure == "synth":
        _synth(args)
    if args.figure == "lint":
        return _lint(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
