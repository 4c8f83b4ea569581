"""Command-line interface: ``repro-dispersion`` / ``python -m repro``.

Subcommands:

* ``run``         -- one dispersion run, printed round by round;
* ``campaign``    -- every claim of the paper (Table I, Figures 1-4 and
  the extra experiments), one pass/fail section each
  (:mod:`repro.analysis.campaign`);
* ``cache``       -- inspect (``stats``, ``verify``) or clean (``gc``,
  ``clear``) the content-addressed run store;
* ``chaos``       -- replay a seeded fault plan (:mod:`repro.chaos`)
  against the committed chaos grid and assert bit-identical
  convergence, or run the store's crash-consistency matrix;
* ``export-dot``  -- Graphviz pictures of Figure 3 or a random
  configuration;
* ``lint``        -- the AST-based determinism / cache-safety analyzer
  (:mod:`repro.lint`): checks the D/C/R/H invariant rules over a source
  tree (``--all`` adds the whole-program pass), with ``--json``.

``campaign`` accepts ``--jobs N`` to fan its run grids across ``N``
worker processes (``--jobs -1`` uses every core); results are
bit-identical to serial execution.  It caches every run in a
content-addressed store (``$REPRO_CACHE_DIR`` or the user cache dir;
override with ``--cache-dir``, opt out with ``--no-cache``), which
makes interrupted campaigns resumable and repeat invocations nearly
free.  ``--timeout S`` / ``--retries N`` bound each work unit's wall
clock and retry budget when running with ``--jobs``.  Custom grids run
through the library: ``repro.sweep(specs, jobs=N, store=...)``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import RandomChurnDynamicGraph
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.hooks import ProgressNarrator
from repro.sim.runner import runner_from_jobs
from repro.sim.store import RunStore


def _component_name(kind: str):
    """An argparse ``type=`` validator resolving ``kind`` registry names.

    Unknown names fail fast at parse time, listing every registered
    component of that kind, so a typo'd ``--backend vectorised`` never
    reaches the engine.
    """

    def validate(name: str) -> str:
        from repro.sim.spec import registered_components

        known = registered_components()[kind]
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {name!r}; available: {', '.join(known)}"
            )
        return name

    validate.__name__ = kind  # argparse error messages say "invalid scheduler"
    return validate


class _ListComponentsAction(argparse.Action):
    """``--list-backends`` / ``--list-schedulers``: print registry, exit."""

    def __init__(self, option_strings, dest, kind=None, **kwargs):
        self.kind = kind
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.sim.spec import registered_components

        for name in registered_components()[self.kind]:
            print(name)
        parser.exit(0)


def _backend_from_args(args: argparse.Namespace):
    """The EngineBackend instance ``--backend`` asks for, or None."""
    if not getattr(args, "backend", None):
        return None
    from repro.sim.spec import ComponentSpec, build_backend

    return build_backend(ComponentSpec(args.backend))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.scheduling import (
        AsyncScheduler,
        RandomSubsetActivation,
        SsyncScheduler,
    )

    dyn = RandomChurnDynamicGraph(
        args.n, extra_edges=args.extra_edges, seed=args.seed
    )
    if args.rooted:
        robots = RobotSet.rooted(args.k, args.n)
    else:
        robots = RobotSet.arbitrary(args.k, args.n, random.Random(args.seed))

    scheduler = None
    max_rounds = None
    if args.scheduler == "ssync":
        scheduler = SsyncScheduler(
            RandomSubsetActivation(args.activation_p, seed=args.seed)
        )
        max_rounds = 10 * args.k * args.n + 100
    elif args.scheduler == "async":
        scheduler = AsyncScheduler(seed=args.seed, max_delay=args.max_delay)
        max_rounds = 10 * args.k * args.n + 100

    result = SimulationEngine(
        dyn,
        robots,
        DispersionDynamic(),
        scheduler=scheduler,
        max_rounds=max_rounds,
        observers=[ProgressNarrator()] if args.live else None,
        backend=_backend_from_args(args),
    ).run()
    print(result.summary())
    if result.final_epoch is not None:
        print(f"scheduler={args.scheduler} final logical epoch: "
              f"{result.final_epoch}")
    if args.trace:
        rows = [
            (
                record.round_index,
                len(record.occupied_before),
                len(record.occupied_after),
                record.num_moves,
                record.num_components,
            )
            for record in result.records
        ]
        print(
            format_table(
                ("round", "occ_before", "occ_after", "moves", "components"),
                rows,
            )
        )
    return 0 if result.dispersed else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import run_campaign

    scale = "quick" if args.quick else args.scale
    store = (
        None if args.no_cache
        else RunStore(args.cache_dir, durability=args.durability)
    )
    with runner_from_jobs(
        args.jobs, timeout=args.timeout, retries=args.retries, store=store
    ) as runner:
        report = run_campaign(scale, runner=runner, backend=args.backend)
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0 if report.all_passed else 1


def _cmd_export_dot(args: argparse.Namespace) -> int:
    from repro.analysis.dot import configuration_to_dot, figure3_dot

    if args.what == "figure3":
        text = figure3_dot()
    else:
        dyn = RandomChurnDynamicGraph(
            args.n, extra_edges=args.n // 2, seed=args.seed
        )
        robots = RobotSet.rooted(args.k, args.n)
        text = configuration_to_dot(dyn.snapshot(0), robots.positions)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = RunStore(args.cache_dir)
    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        else:
            print(stats.render())
    elif args.cache_command == "gc":
        outcome = store.gc(
            max_entries=args.max_entries,
            max_bytes=args.max_bytes,
            drop_stale=not args.keep_stale,
            purge_quarantine_days=args.purge_quarantine,
        )
        line = (
            f"gc: removed {outcome['removed']} entries, "
            f"kept {outcome['kept']}"
        )
        if outcome["stale_tmp_removed"]:
            line += (
                f", swept {outcome['stale_tmp_removed']} stale staging "
                f"files"
            )
        if outcome["tombstones_swept"]:
            line += f", finished {outcome['tombstones_swept']} tombstones"
        if outcome["unlink_errors"]:
            line += f", {outcome['unlink_errors']} unlink errors"
        if args.purge_quarantine is not None:
            line += (
                f", purged {outcome['quarantine_purged']} quarantined"
            )
        print(f"{line} ({store.root})")
    elif args.cache_command == "verify":
        report = store.verify(quarantine=args.fix)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
            if report.corrupt and args.fix:
                print(
                    "quarantined entries are recomputed on their next "
                    f"read ({store.quarantine_dir})"
                )
        return 0 if report.clean else 1
    else:  # clear
        removed = store.clear()
        print(f"clear: removed {removed} entries ({store.root})")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.chaos import FaultPlan, PlanError, replay_plan

    if args.crash_matrix:
        if args.plan is not None:
            print(
                "error: --plan and --crash-matrix are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        return _run_crash_matrix_cli(args)
    if args.plan is None:
        print(
            "error: one of --plan or --crash-matrix is required",
            file=sys.stderr,
        )
        return 2
    try:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    except OSError as error:
        print(f"error: cannot read fault plan: {error}", file=sys.stderr)
        return 2
    except PlanError as error:
        print(f"error: invalid fault plan: {error}", file=sys.stderr)
        return 2

    # The replay corrupts store entries by design, so it always runs
    # against a throwaway root -- never the user's cache.
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
        try:
            report = replay_plan(
                plan, root, jobs=args.jobs, timeout=args.timeout
            )
        except PlanError as error:
            print(f"error: invalid fault plan: {error}", file=sys.stderr)
            return 2
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    golden_ok = True
    if args.golden_failures:
        from repro.chaos import (
            diff_failure_streams,
            load_failure_stream,
            render_failure_stream,
        )

        if args.update_golden:
            with open(args.golden_failures, "w", encoding="utf-8") as handle:
                handle.write(
                    render_failure_stream(report.plan_digest, report.failures)
                )
            print(f"wrote golden failure stream {args.golden_failures}")
        else:
            try:
                with open(args.golden_failures, encoding="utf-8") as handle:
                    golden_digest, golden = load_failure_stream(handle.read())
            except (OSError, ValueError) as error:
                print(
                    f"error: cannot read golden failure stream: {error}",
                    file=sys.stderr,
                )
                return 2
            diff = diff_failure_streams(report.failures, golden)
            if golden_digest != report.plan_digest:
                diff.insert(
                    0,
                    f"plan digest mismatch: replayed {report.plan_digest}, "
                    f"golden stream was recorded for {golden_digest}",
                )
            if diff:
                golden_ok = False
                print(
                    f"failure stream drift vs {args.golden_failures}:"
                )
                for line in diff:
                    print(f"  {line}")
            else:
                print(
                    f"failure stream matches {args.golden_failures} "
                    f"({len(report.failures)} records)"
                )
    return 0 if report.converged and golden_ok else 1


def _run_crash_matrix_cli(args: argparse.Namespace) -> int:
    """``repro chaos --crash-matrix``: the crash-point replay harness."""
    import tempfile

    from repro.chaos import run_crash_matrix

    durabilities = (
        ("fast", "strict")
        if args.durability == "both"
        else (args.durability,)
    )
    # Every cell builds and destroys its own store tree; the whole
    # matrix runs under a throwaway workdir, never the user's cache.
    with tempfile.TemporaryDirectory(prefix="repro-crash-matrix-") as root:
        report = run_crash_matrix(root, durabilities=durabilities)
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_from_args

    return run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-dispersion",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--list-backends", action=_ListComponentsAction, kind="backend",
        help="print the registered engine backends and exit",
    )
    parser.add_argument(
        "--list-schedulers", action=_ListComponentsAction, kind="scheduler",
        help="print the registered scheduler models and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one dispersion run")
    p_run.add_argument("--n", type=int, default=40)
    p_run.add_argument("--k", type=int, default=30)
    p_run.add_argument("--extra-edges", type=int, default=20)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--rooted", action="store_true")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument(
        "--live", action="store_true",
        help="print per-round progress as the run executes",
    )
    p_run.add_argument(
        "--scheduler", type=_component_name("scheduler"),
        default="fsync", metavar="NAME",
        help="scheduler model driving the execution (default: fsync, "
        "the paper's fully synchronous model; see --list-schedulers "
        "and docs/scheduling.md)",
    )
    p_run.add_argument(
        "--backend", type=_component_name("backend"),
        default=None, metavar="NAME",
        help="engine backend (default: reference; see --list-backends). "
        "'vectorized' runs the numpy struct-of-arrays fast path, "
        "bit-identical to the reference",
    )
    p_run.add_argument(
        "--activation-p", type=float, default=0.6,
        help="per-robot activation probability for --scheduler ssync",
    )
    p_run.add_argument(
        "--max-delay", type=int, default=3,
        help="max inter-activation delay for --scheduler async",
    )
    p_run.set_defaults(func=_cmd_run)

    p_campaign = sub.add_parser(
        "campaign", help="run the full reproduction campaign"
    )
    p_campaign.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    p_campaign.add_argument(
        "--quick", action="store_true",
        help="alias for --scale quick (the default)",
    )
    p_campaign.add_argument(
        "--backend", type=_component_name("backend"),
        default=None, metavar="NAME",
        help="engine backend for every campaign run (default: reference; "
        "see --list-backends)",
    )
    p_campaign.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the campaign's run grids "
        "(-1: all cores)",
    )
    p_campaign.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="run-store location (default: $REPRO_CACHE_DIR or the user "
        "cache dir)",
    )
    p_campaign.add_argument(
        "--no-cache", action="store_true",
        help="recompute every run; do not read or write the run store",
    )
    p_campaign.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-unit wall-clock limit in seconds (with --jobs)",
    )
    p_campaign.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry budget per work unit (with --jobs)",
    )
    p_campaign.add_argument(
        "--durability", choices=("fast", "strict"), default="fast",
        help="run-store write durability: 'strict' fsyncs entry and "
        "directory so published entries survive power loss intact",
    )
    p_campaign.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable report (timings, verdicts, "
        "cache hit counts)",
    )
    p_campaign.set_defaults(func=_cmd_campaign)

    p_cache = sub.add_parser(
        "cache", help="inspect or clean the content-addressed run store"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="entry counts, bytes, and session hit/miss counters"
    )
    p_cache_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_cache_gc = cache_sub.add_parser(
        "gc", help="drop stale-salt entries and enforce size bounds"
    )
    p_cache_gc.add_argument(
        "--max-entries", type=int, default=None,
        help="keep at most N entries (oldest evicted first)",
    )
    p_cache_gc.add_argument(
        "--max-bytes", type=int, default=None,
        help="keep at most N bytes of entries (oldest evicted first)",
    )
    p_cache_gc.add_argument(
        "--keep-stale", action="store_true",
        help="keep entries written under older code-version salts",
    )
    p_cache_gc.add_argument(
        "--purge-quarantine", type=float, default=None, metavar="DAYS",
        help="also delete quarantined entries at least DAYS days old "
        "(0 purges all)",
    )
    p_cache_verify = cache_sub.add_parser(
        "verify",
        help="checksum every entry; exit 1 if any corruption is found",
    )
    p_cache_verify.add_argument(
        "--fix", action="store_true",
        help="quarantine corrupt entries so the next read recomputes them",
    )
    p_cache_verify.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_cache_clear = cache_sub.add_parser(
        "clear", help="remove every entry from the store"
    )
    for cache_parser in (
        p_cache_stats, p_cache_gc, p_cache_verify, p_cache_clear
    ):
        cache_parser.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="run-store location (default: $REPRO_CACHE_DIR or the "
            "user cache dir)",
        )
    p_cache.set_defaults(func=_cmd_cache)

    p_chaos = sub.add_parser(
        "chaos",
        help="replay a seeded fault plan and check bit-identical "
        "convergence, or run the crash-consistency matrix",
    )
    p_chaos.add_argument(
        "--plan", default=None, metavar="PATH",
        help="FaultPlan JSON file (see docs/robustness.md)",
    )
    p_chaos.add_argument(
        "--crash-matrix", action="store_true",
        help="instead of a plan replay: simulate a crash at every "
        "filesystem-op boundary of the store's write/recompute/gc "
        "workloads and assert the recovery invariants",
    )
    p_chaos.add_argument(
        "--durability", choices=("fast", "strict", "both"),
        default="both",
        help="store durability mode(s) the crash matrix sweeps "
        "(default both)",
    )
    p_chaos.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the chaos pool (default 2)",
    )
    p_chaos.add_argument(
        "--timeout", type=float, default=5.0, metavar="S",
        help="per-unit wall-clock limit for the chaos pool (hang faults "
        "must exceed this to fire as timeouts)",
    )
    p_chaos.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable chaos report",
    )
    p_chaos.add_argument(
        "--golden-failures", default=None, metavar="PATH",
        help="compare the replay's canonical failure stream against "
        "this golden snapshot; exit 1 on drift",
    )
    p_chaos.add_argument(
        "--update-golden", action="store_true",
        help="with --golden-failures: (re)write the snapshot instead "
        "of comparing",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_dot = sub.add_parser("export-dot", help="export Graphviz DOT pictures")
    p_dot.add_argument(
        "what", choices=("figure3", "random"), help="which picture"
    )
    p_dot.add_argument("--n", type=int, default=16)
    p_dot.add_argument("--k", type=int, default=10)
    p_dot.add_argument("--seed", type=int, default=0)
    p_dot.add_argument("--output", default=None)
    p_dot.set_defaults(func=_cmd_export_dot)

    p_lint = sub.add_parser(
        "lint",
        help="AST-based determinism / cache-safety analyzer (reprolint)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
