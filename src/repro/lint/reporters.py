"""Rendering of lint reports: human text and schema-stable JSON.

The JSON document is a machine interface (CI annotations, dashboards)
and is versioned like every other serialized artifact in this repo:
``format_version`` bumps on any key change, keys are emitted sorted, and
findings are sorted by location, so byte-identical trees produce
byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.lint.engine import LintReport
from repro.lint.rules import rule_catalogue

REPORT_FORMAT_VERSION = 1


def report_to_dict(report: LintReport) -> Dict[str, Any]:
    """The schema-stable dict form of a report (see module docstring)."""
    return {
        "kind": "reprolint_report",
        "format_version": REPORT_FORMAT_VERSION,
        "ok": report.ok,
        "files_scanned": report.files_scanned,
        "suppressed": report.suppressed,
        "counts": dict(sorted(report.counts().items())),
        "findings": [finding.to_dict() for finding in report.findings],
    }


def render_json(report: LintReport) -> str:
    """The report as canonical JSON text (sorted keys, 2-space indent)."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


#: Tier order in the merged ``--all`` report; keys are schema, not
#: display names, so they stay snake_case and never change.
ALL_TIER_KEYS = ("shallow", "whole_program")

#: Version of the merged ``--all`` document (its own schema; the
#: per-tier sub-reports keep ``REPORT_FORMAT_VERSION``).
ALL_REPORT_FORMAT_VERSION = 2


def all_report_to_dict(tiers: Dict[str, LintReport]) -> Dict[str, Any]:
    """The merged ``--all`` document: one sub-report per tier.

    ``ok`` is the conjunction over tiers, matching the combined exit
    code.  Tier sub-reports are the unchanged per-tier schema, so any
    consumer of ``reprolint_report`` can read one tier out of this
    document without new parsing code.
    """
    return {
        "kind": "reprolint_all_report",
        "format_version": ALL_REPORT_FORMAT_VERSION,
        "ok": all(report.ok for report in tiers.values()),
        "tiers": {
            key: report_to_dict(tiers[key])
            for key in ALL_TIER_KEYS
            if key in tiers
        },
    }


def render_all_json(tiers: Dict[str, LintReport]) -> str:
    """The merged report as canonical JSON text."""
    return json.dumps(all_report_to_dict(tiers), indent=2, sort_keys=True)


def render_text(report: LintReport) -> str:
    """One line per finding plus a one-line summary."""
    lines: List[str] = [finding.render() for finding in report.findings]
    if report.ok:
        summary = (
            f"reprolint: {report.files_scanned} file(s) clean"
        )
    else:
        by_code = ", ".join(
            f"{code} x{count}"
            for code, count in sorted(report.counts().items())
        )
        summary = (
            f"reprolint: {len(report.findings)} finding(s) in "
            f"{report.files_scanned} file(s) ({by_code})"
        )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


#: ``(code, name, summary)`` per whole-program rule.  These run in the
#: whole-program half of ``--all`` rather than the shallow per-file
#: engine, so they are listed here instead of the selectable catalogue.
WHOLE_PROGRAM_RULES = (
    ("T001", "deep-taint-path",
     "a deterministic-core function transitively reaches a "
     "nondeterminism source"),
    ("F001", "fork-unsafe-global",
     "a runner module mutates a module-level global that forked "
     "workers snapshot"),
    ("E001", "phase-engine-mutation",
     "a backend phase transitively mutates engine state outside its "
     "phase allowlist"),
    ("E002", "phase-payload-mutation",
     "a backend phase mutates a payload parameter that is not a "
     "documented out-parameter"),
    ("E003", "hook-payload-mutation",
     "an observer on_* hook mutates its payload, directly, through a "
     "local alias or through a helper"),
    ("E004", "phase-io", "a backend phase performs I/O"),
    ("M001", "mutation-after-submit",
     "an object captured by a submitted work unit is mutated after "
     "the submission"),
    ("S001", "digest-unstable-field",
     "a defaulted spec field is serialized unconditionally, drifting "
     "every digest"),
    ("S002", "digest-missing-field",
     "a spec field never reaches to_dict, so differing specs share a "
     "digest"),
    ("A001", "hidden-persistent-state",
     "an algorithm hook writes an attribute that persistent_state() "
     "never emits (state the memory audit cannot see)"),
    ("A002", "unbounded-declared-state",
     "a persistent_state() field has no bound in "
     "persistent_state_bounds(), so its bit cost is uncharged"),
    ("A003", "observation-scope-violation",
     "a LOCAL-communication algorithm reads a global-only Observation "
     "field"),
    ("A004", "model-escape",
     "decide() transitively reaches engine/graph/store internals, "
     "breaking robot anonymity"),
    ("A005", "observation-mutation",
     "a decide/detects_termination hook mutates its Observation"),
    ("P001", "parse-error",
     "a file under analysis does not parse (never baselined)"),
    ("B001", "stale-baseline-entry",
     "an accepted baseline fingerprint is no longer produced by the "
     "tree"),
)


def render_rule_catalogue() -> str:
    """The ``--list-rules`` text: code, name and summary per rule."""
    lines = []
    for info in rule_catalogue():
        scope = ", ".join(info.scopes) if info.scopes else "all files"
        lines.append(f"{info.code}  {info.name}  [{scope}]")
        lines.append(f"      {info.summary}")
    lines.append("")
    lines.append("whole-program rules (run by --all, not selectable):")
    for code, name, summary in WHOLE_PROGRAM_RULES:
        lines.append(f"{code}  {name}")
        lines.append(f"      {summary}")
    return "\n".join(lines)
