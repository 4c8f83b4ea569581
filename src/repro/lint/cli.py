"""The ``repro lint`` command line (also ``python -m repro.lint``).

Exit codes follow the convention of every other gate in CI: ``0`` for a
clean tree, ``1`` when findings exist, ``2`` for usage errors (unknown
rule selector, missing path) *and* for internal analysis failures -- so
a misconfigured or crashing invocation can never masquerade as a
passing gate.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Iterable, List, Optional

from repro.lint.engine import (
    LoadedModule,
    iter_python_files,
    lint_paths,
    load_modules,
)
from repro.lint.reporters import (
    render_all_json,
    render_json,
    render_rule_catalogue,
    render_text,
)

#: Default scan roots of the shallow rules; the whole-program pass wants
#: only the package tree (``DEEP_DEFAULT_PATHS``).
SHALLOW_DEFAULT_PATHS = ["src", "tests"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src tests; for "
        "the whole-program half of --all: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the schema-stable JSON report instead of text",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes or families to run "
        "(e.g. 'D' or 'D001,C'); default: all rules",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="run the shallow rules plus the whole-program pass "
        "(taint, fork safety, effect contracts, robot model) against "
        "the accepted baseline, with one merged report and exit code",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="with --all: the baseline snapshot to gate against "
        "(default: lint-baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --all: accept the tree's current whole-program "
        "findings as the new baseline",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="accepted for compatibility; lint keeps no cache",
    )


def _parsed_under(
    modules: List[LoadedModule], roots: Iterable[str]
) -> List[LoadedModule]:
    """The loaded modules under ``roots`` that parsed, in load order.

    ``roots`` lie inside the shallow scan's roots, so nothing is read
    twice; a file that does not parse is left to the shallow tier,
    which reports its one ``P001``.
    """
    wanted = {path.as_posix() for path in iter_python_files(roots)}
    return [
        module
        for module in modules
        if module.path in wanted and module.parse_error is None
    ]


def _run_all(args: argparse.Namespace) -> int:
    """Shallow rules plus the whole-program pass: one report, one exit."""
    from repro.lint.deep import (
        DEEP_DEFAULT_PATHS,
        DEFAULT_BASELINE_PATH,
        BaselineError,
        render_deep_summary,
        run_whole_program_analysis,
    )

    try:
        # One load serves both tiers: each file is read, parsed and
        # walked once per run.
        modules = load_modules(args.paths or SHALLOW_DEFAULT_PATHS)
        shallow = lint_paths(modules)
        result = run_whole_program_analysis(
            _parsed_under(modules, args.paths or DEEP_DEFAULT_PATHS),
            baseline_path=args.baseline or DEFAULT_BASELINE_PATH,
            update_baseline=args.update_baseline,
        )
    except (FileNotFoundError, BaselineError) as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    except Exception:
        # An analyzer crash is an infrastructure failure, not a clean
        # tree; exit 2 so CI distinguishes it from both outcomes.
        traceback.print_exc()
        print(
            "repro lint: internal error in whole-program analysis",
            file=sys.stderr,
        )
        return 2
    tiers = {"shallow": shallow, "whole_program": result.report}
    if args.json:
        print(render_all_json(tiers))
    else:
        print("== shallow ==")
        print(render_text(shallow))
        print("== whole-program ==")
        print(render_text(result.report))
        print(render_deep_summary(result))
    # After --update-baseline the whole-program report is empty; a
    # broken file's P001 (never baselined) still fails the shallow tier.
    return 0 if shallow.ok and result.report.ok else 1


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    if args.list_rules:
        print(render_rule_catalogue())
        return 0
    if args.all:
        if args.select:
            print(
                "repro lint: --select picks shallow rules; --all runs "
                "every rule",
                file=sys.stderr,
            )
            return 2
        return _run_all(args)
    if args.baseline or args.update_baseline:
        print(
            "repro lint: --baseline/--update-baseline require --all",
            file=sys.stderr,
        )
        return 2
    select = (
        [s for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    paths = args.paths if args.paths else SHALLOW_DEFAULT_PATHS
    try:
        report = lint_paths(paths, select=select)
    except (FileNotFoundError, ValueError) as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    print(render_json(report) if args.json else render_text(report))
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
