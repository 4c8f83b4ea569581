"""Whole-program analysis (the second half of ``repro lint --all``).

Layers, bottom to top (the index, call graph and effect summaries are
built once per run and shared by every checker above them):

* :mod:`~repro.lint.deep.modindex` -- parse every module once, index
  definitions, imports, aliases and registry dicts;
* :mod:`~repro.lint.deep.callgraph` -- resolve calls (including
  ``self.`` dispatch, re-exports and registry factories) into a
  whole-program call graph;
* :mod:`~repro.lint.deep.taint` -- seed nondeterminism sources and
  trace every call chain from the deterministic core to one;
* :mod:`~repro.lint.deep.concurrency` -- fork-safety checks on the
  runner modules;
* :mod:`~repro.lint.deep.effects` -- per-function side-effect summaries
  (parameter mutation, global writes, I/O) propagated through the call
  graph to a fixpoint;
* :mod:`~repro.lint.deep.contracts` -- the E/M/S contract rules
  evaluated over those summaries;
* :mod:`~repro.lint.deep.robotmodel` -- the A rule family: robot-model
  conformance of algorithm classes;
* :mod:`~repro.lint.deep.cache` -- content-addressed AST cache that
  lets repeated runs skip re-parsing unchanged modules;
* :mod:`~repro.lint.deep.baseline` -- the accepted-fingerprint snapshot
  that turns absolute findings into a drift gate;
* :mod:`~repro.lint.deep.analysis` -- the one driver the CLI calls.
"""

from repro.lint.deep.analysis import (
    DEEP_DEFAULT_PATHS,
    DeepResult,
    render_deep_summary,
    run_whole_program_analysis,
)
from repro.lint.deep.baseline import (
    BASELINE_FORMAT_VERSION,
    BASELINE_KIND,
    DEFAULT_BASELINE_PATH,
    BaselineError,
    diff_baseline,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.lint.deep.cache import (
    ANALYZER_VERSION,
    CACHE_FORMAT_VERSION,
    DEFAULT_CACHE_DIR,
    ModuleCache,
)
from repro.lint.deep.contracts import check_contracts
from repro.lint.deep.robotmodel import check_robot_model
from repro.lint.deep.effects import (
    FunctionEffects,
    Witness,
    infer_effects,
    witness_chain,
)
from repro.lint.deep.callgraph import CallGraph, CallSite, build_call_graph
from repro.lint.deep.modindex import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    build_index,
    module_name_for,
)
from repro.lint.deep.taint import (
    CORE_PATHS,
    Seed,
    TaintPath,
    collect_seeds,
    trace_taint_paths,
)

__all__ = [
    "ANALYZER_VERSION",
    "BASELINE_FORMAT_VERSION",
    "BASELINE_KIND",
    "BaselineError",
    "CACHE_FORMAT_VERSION",
    "CORE_PATHS",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "DEEP_DEFAULT_PATHS",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_CACHE_DIR",
    "DeepResult",
    "FunctionEffects",
    "FunctionInfo",
    "ModuleCache",
    "ModuleInfo",
    "ProjectIndex",
    "Seed",
    "TaintPath",
    "Witness",
    "build_call_graph",
    "build_index",
    "check_contracts",
    "check_robot_model",
    "collect_seeds",
    "diff_baseline",
    "infer_effects",
    "load_baseline",
    "module_name_for",
    "render_baseline",
    "render_deep_summary",
    "run_whole_program_analysis",
    "trace_taint_paths",
    "witness_chain",
    "write_baseline",
]
