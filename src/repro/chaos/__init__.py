"""Deterministic, seeded fault injection across the execution stack.

The paper's robustness results (Theorem 5's crash model, the KLO
adversary's per-round rewiring) treat faults as *schedulable events* the
algorithm must survive; this package applies the same discipline to the
reproduction's own infrastructure.  A :class:`~repro.chaos.plan.FaultPlan`
-- pure data, like a :class:`~repro.sim.spec.RunSpec` -- names every
fault to inject at three layers, each with one address:

* **runner** (:class:`~repro.chaos.runner.ChaosPoolRunner`) -- crash,
  hang or fail the worker unit that holds the ``spec_index``-th spec;
  the pool's retry/restart machinery must absorb the loss;
* **engine** (:class:`~repro.chaos.engine_faults.PhaseFaultObserver`) --
  raise from a named phase hook while the ``spec_index``-th spec runs;
* **filesystem** (:class:`~repro.chaos.fs.ChaosVFS`) -- the ``op_index``-th
  match of a named store operation.  On the write path: ``EIO`` /
  ``ENOSPC``, torn writes, lost renames, and simulated crashes, with a
  page-cache model that materializes adversarial post-crash disk
  images.  On the read path (``op="read_bytes"``): corrupt a cache
  entry as the store reads it back; the store's integrity layer must
  detect, quarantine and recompute.

Plans are ``format_version`` 2.  A version-1 plan is rejected: move each
``store`` entry into ``fs`` with ``op="read_bytes"``, and address each
runner fault by the ``spec_index`` its ``unit_index`` or
``spec_digest`` meant.

:func:`~repro.chaos.replay.replay_plan` replays a plan against one
committed spec grid (:func:`~repro.chaos.replay.chaos_grid`, or any
grid the caller passes) and checks *bit-identical convergence* against
a fault-free baseline, returning the tolerated faults as a canonical
:class:`~repro.chaos.failures.FailureRecord` stream.
:func:`~repro.chaos.replay.run_crash_matrix` is the crash-consistency
half: it simulates a crash at *every* filesystem-op boundary of the
store's write, recompute and gc workloads and asserts the recovery
invariants at each.  ``repro chaos --plan plan.json`` and
``repro chaos --crash-matrix`` are the CLI entry points;
``docs/robustness.md`` is the narrative.
"""

from repro.chaos.failures import (
    ChaosEngineFault,
    ChaosTransientError,
    FAILURE_KINDS,
    FAILURE_STREAM_FORMAT_VERSION,
    FAILURE_STREAM_KIND,
    FailureRecord,
    diff_failure_streams,
    load_failure_stream,
    render_failure_stream,
)
from repro.chaos.fs import (
    CRASH_IMAGE_MODES,
    ChaosVFS,
    SimulatedCrash,
    VfsOp,
    chaos_vfs_for_plan,
)
from repro.chaos.plan import (
    ENGINE_PHASES,
    EngineFault,
    FS_FAULT_KINDS,
    FS_OPS,
    FaultPlan,
    FsFault,
    PlanError,
    RUNNER_FAULT_KINDS,
    RunnerFault,
    plan_digest,
)
from repro.chaos.replay import (
    ChaosReport,
    CrashMatrixReport,
    chaos_grid,
    replay_plan,
    results_fingerprint,
    run_crash_matrix,
)
from repro.chaos.runner import ChaosPoolRunner
from repro.chaos.engine_faults import PhaseFaultObserver

__all__ = [
    "ChaosEngineFault",
    "ChaosPoolRunner",
    "ChaosReport",
    "ChaosTransientError",
    "ChaosVFS",
    "CRASH_IMAGE_MODES",
    "CrashMatrixReport",
    "ENGINE_PHASES",
    "EngineFault",
    "FAILURE_KINDS",
    "FAILURE_STREAM_FORMAT_VERSION",
    "FAILURE_STREAM_KIND",
    "FailureRecord",
    "FaultPlan",
    "FS_FAULT_KINDS",
    "FS_OPS",
    "FsFault",
    "PhaseFaultObserver",
    "PlanError",
    "RUNNER_FAULT_KINDS",
    "RunnerFault",
    "SimulatedCrash",
    "VfsOp",
    "chaos_grid",
    "chaos_vfs_for_plan",
    "diff_failure_streams",
    "load_failure_stream",
    "plan_digest",
    "render_failure_stream",
    "replay_plan",
    "results_fingerprint",
    "run_crash_matrix",
]
