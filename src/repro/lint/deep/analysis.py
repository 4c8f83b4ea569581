"""The whole-program driver behind ``repro lint --all``.

Glues the subsystem together in one pass: index the loaded modules
(:mod:`~repro.lint.deep.modindex`), build the call graph
(:mod:`~repro.lint.deep.callgraph`) and infer effect summaries
(:mod:`~repro.lint.deep.effects`) once each, then run every checker
over that shared graph -- taint paths (:mod:`~repro.lint.deep.taint`),
fork safety (:mod:`~repro.lint.deep.concurrency`), the phase/hook/digest
contracts (:mod:`~repro.lint.deep.contracts`) and robot-model
conformance (:mod:`~repro.lint.deep.robotmodel`).  Their findings are
reconciled against one accepted baseline
(:mod:`~repro.lint.deep.baseline`); every fingerprint starts with its
rule code, so one flat file keeps the families apart.

The outcome is an ordinary :class:`~repro.lint.engine.LintReport`, so
the existing text/JSON reporters and exit-code convention apply
unchanged; what the report *contains* is only the drift -- new findings
not in the baseline, plus ``B001`` entries for baseline fingerprints the
tree no longer produces.  Parse failures surface as the loader's
``P001`` finding, exactly as in the shallow engine, and are never
baselined: an unparseable file can't be proven contract-clean.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.lint.deep.baseline import (
    DEFAULT_BASELINE_PATH,
    STALE_CODE,
    diff_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.deep.callgraph import CallGraph, build_call_graph
from repro.lint.deep.concurrency import check_fork_safety
from repro.lint.deep.contracts import check_contracts
from repro.lint.deep.effects import FunctionEffects, infer_effects
from repro.lint.deep.modindex import ProjectIndex, build_index
from repro.lint.deep.robotmodel import check_robot_model
from repro.lint.deep.taint import TAINT_CODE, trace_taint_paths
from repro.lint.engine import LintReport, Target, is_suppressed
from repro.lint.findings import Finding

#: Default scan roots for a whole-program run (the analysis wants the
#: package tree, not tests/benchmarks).
DEEP_DEFAULT_PATHS: Tuple[str, ...] = ("src",)


@dataclass
class DeepResult:
    """A whole-program run's report plus baseline reconciliation detail."""

    report: LintReport
    #: every fingerprint the tree currently produces
    fingerprints: Set[str] = field(default_factory=set)
    #: fingerprints reported as new (absent from the baseline)
    new: List[str] = field(default_factory=list)
    #: baseline fingerprints the tree no longer produces
    stale: List[str] = field(default_factory=list)
    #: how many findings the baseline accepted (matched, not reported)
    accepted: int = 0
    baseline_path: str = DEFAULT_BASELINE_PATH
    #: whether this run rewrote the baseline (``--update-baseline``)
    updated: bool = False
    call_graph: Optional[CallGraph] = None
    #: the shared effect summaries every checker read
    summaries: Dict[str, FunctionEffects] = field(default_factory=dict)


def _reconcile(
    result: DeepResult,
    candidates: List[Tuple[Finding, str]],
    index: ProjectIndex,
    baseline_path: Union[str, pathlib.Path],
    update_baseline: bool,
) -> DeepResult:
    """Screen candidates, then update or diff the accepted baseline."""
    report = result.report
    tables = {
        module.display_path: module.suppressions
        for module in index.modules.values()
    }
    fresh: List[Tuple[Finding, str]] = []
    for finding, fingerprint in candidates:
        table = tables.get(finding.path, {})
        if is_suppressed(table, finding.line, finding.code):
            report.suppressed += 1
            continue
        if fingerprint in result.fingerprints:
            continue  # one report per accepted-or-not identity
        result.fingerprints.add(fingerprint)
        fresh.append((finding, fingerprint))

    if update_baseline:
        write_baseline(baseline_path, result.fingerprints)
        result.updated = True
        result.accepted = len(result.fingerprints)
        report.findings.sort()
        return result

    accepted: Set[str] = set()
    if pathlib.Path(baseline_path).exists():
        accepted = load_baseline(baseline_path)
    new, stale = diff_baseline(result.fingerprints, accepted)
    result.new = new
    result.stale = stale
    result.accepted = len(result.fingerprints & accepted)
    new_set = set(new)
    for finding, fingerprint in fresh:
        if fingerprint in new_set:
            report.findings.append(finding)
    for fingerprint in stale:
        report.findings.append(
            Finding(
                path=str(baseline_path),
                line=1,
                column=1,
                code=STALE_CODE,
                message=(
                    f"stale baseline entry no longer produced by the "
                    f"tree: {fingerprint}; re-run with "
                    "--update-baseline to drop it"
                ),
            )
        )
    report.findings.sort()
    return result


def run_whole_program_analysis(
    paths: Iterable[Target] = DEEP_DEFAULT_PATHS,
    baseline_path: Union[str, pathlib.Path] = DEFAULT_BASELINE_PATH,
    update_baseline: bool = False,
) -> DeepResult:
    """Run every whole-program check and reconcile them with one baseline.

    The index, call graph and effect summaries are built once and shared
    by all four checkers (taint paths, fork safety, E/M/S contracts and
    the A-rule robot model); none of them mutates what it is given.
    With ``update_baseline=True`` the current fingerprints are written
    to ``baseline_path`` and the report carries no drift findings (only
    ``P001`` parse errors, which can never be accepted).  Otherwise a
    missing baseline file behaves as an empty one: every fingerprint in
    the tree is new.  ``paths`` may also be modules already loaded by
    :func:`~repro.lint.engine.load_modules`, which are not read again.
    """
    index = build_index(paths)
    graph = build_call_graph(index)
    summaries = infer_effects(graph)
    report = LintReport(
        findings=list(index.parse_errors),
        files_scanned=index.files_indexed + len(index.parse_errors),
    )

    taint = trace_taint_paths(graph)
    report.suppressed += taint.suppressed_seeds
    candidates: List[Tuple[Finding, str]] = [
        (
            Finding(
                path=path.root_path,
                line=path.site.lineno,
                column=path.site.col,
                code=TAINT_CODE,
                message=path.message,
            ),
            path.fingerprint,
        )
        for path in taint.paths
    ]
    candidates.extend(check_fork_safety(index))
    candidates.extend(check_contracts(graph, summaries))
    candidates.extend(check_robot_model(graph, summaries))

    result = DeepResult(
        report=report,
        baseline_path=str(baseline_path),
        call_graph=graph,
        summaries=summaries,
    )
    return _reconcile(result, candidates, index, baseline_path, update_baseline)


def render_deep_summary(result: DeepResult) -> str:
    """A drift summary for humans (appended after the standard report).

    This is what makes the CI job failure readable: the added/removed
    fingerprints, one per line, without digging through full messages.
    """
    lines = [
        f"whole-program analysis: {len(result.fingerprints)} finding(s) "
        f"in tree, {result.accepted} accepted by baseline "
        f"{result.baseline_path}"
    ]
    if result.updated:
        lines.append(f"baseline updated: {result.baseline_path}")
        return "\n".join(lines)
    for fingerprint in result.new:
        lines.append(f"  + new:   {fingerprint}")
    for fingerprint in result.stale:
        lines.append(f"  - stale: {fingerprint}")
    if not result.new and not result.stale:
        lines.append("  no drift against baseline")
    return "\n".join(lines)
