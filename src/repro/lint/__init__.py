"""``repro.lint`` -- AST-based determinism & cache-safety analyzer.

The reproduction's guarantees are deterministic claims, and the
content-addressed :class:`~repro.sim.store.RunStore` assumes a spec's
bytes fully determine a run.  ``repro lint`` machine-checks the
invariants that keep both true:

* **D-rules** -- determinism: no wall-clock reads (D001), no global or
  unseeded randomness (D002), no environment reads (D003) inside the
  simulation and digest path;
* **C-rules** -- cache safety: canonical JSON only (C001), no float
  formatting drift (C002), no process-salted ``hash()`` (C003) in the
  digest pipeline;
* **R-rules** -- registry hygiene: static component names (R001), no
  duplicate registrations (R002), factory arity matches the spec
  layer's calling convention (R003);
* **H-rules** -- observer purity: hooks never return values (H002).
  That hooks never mutate engine payloads is checked once, by the
  whole-program E003 below, which also sees aliases and helpers.

``repro lint --all`` adds one whole-program pass
(:mod:`repro.lint.deep`) over a single shared index, call graph and
effect-summary fixpoint: transitive nondeterminism taint paths from the
deterministic core (T001), fork safety of the runner modules
(F001-F003), engine-phase, hook, pool-capture and spec-digest contracts
(E/M/S), and robot-model conformance (A001-A005), gated by one
checked-in baseline (B001 for stale entries).  See the "Whole-program
analysis" section of ``docs/static-analysis.md``.

Violations carry per-rule codes and can be silenced inline with
``# reprolint: disable=CODE`` on the offending line.  Run it as
``repro-dispersion lint``, ``python -m repro.lint``, or through
:func:`lint_paths` / :func:`lint_source` programmatically.  See
``docs/static-analysis.md`` for the full rule catalogue.
"""

from repro.lint.engine import (
    PARSE_ERROR_CODE,
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding, RuleInfo
from repro.lint.reporters import (
    REPORT_FORMAT_VERSION,
    render_json,
    render_rule_catalogue,
    render_text,
    report_to_dict,
)
from repro.lint.deep import (
    DeepResult,
    render_deep_summary,
    run_whole_program_analysis,
)
from repro.lint.rules import (
    CACHE_SCOPE,
    DETERMINISM_SCOPE,
    Rule,
    all_rules,
    path_in_scope,
    register_rule,
    rule_catalogue,
    select_rules,
)

__all__ = [
    "CACHE_SCOPE",
    "DETERMINISM_SCOPE",
    "DeepResult",
    "Finding",
    "LintReport",
    "PARSE_ERROR_CODE",
    "REPORT_FORMAT_VERSION",
    "Rule",
    "RuleInfo",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "path_in_scope",
    "register_rule",
    "render_deep_summary",
    "render_json",
    "render_rule_catalogue",
    "render_text",
    "report_to_dict",
    "rule_catalogue",
    "run_whole_program_analysis",
    "select_rules",
]
