"""Replay a fault plan against the committed spec grid and check convergence.

:func:`replay_plan` is the chaos harness's top half, what the ``repro
chaos`` CLI drives.  It runs one spec grid -- :func:`chaos_grid` unless
the caller passes another -- three times, each pass one ``run(specs)``
call:

1. **baseline** -- serially, no store, no faults: the ground truth
   fingerprint;
2. **cold chaos** -- through the full chaos stack (caching over a
   :class:`~repro.sim.store.RunStore` whose
   :class:`~repro.chaos.fs.ChaosVFS` carries the plan's fs faults -> a
   :class:`~repro.chaos.runner.ChaosPoolRunner` whose workers write
   through a clean store at the same root).  Runner, engine and
   write-path fs faults fire here, while the store populates;
3. **warm chaos** -- the same stack again.  Entry reads now find stored
   entries, so the plan's read faults bite in the ChaosVFS read path:
   corrupted entries must be detected, quarantined and recomputed.

Each pass's result list is folded into one sha256 *fingerprint*
(:func:`results_fingerprint`, over each result's
:func:`~repro.sim.traceio.run_fingerprint` in grid order), so "the
chaos run converged" is a bit-identity check, not a statistical one:
:attr:`ChaosReport.converged` holds iff both chaos fingerprints equal
the baseline.  The tolerated faults come back as the canonically sorted
:class:`~repro.chaos.failures.FailureRecord` stream, which a seeded plan
reproduces identically on every replay -- the golden-test property
``tests/test_chaos.py`` pins.

:func:`run_crash_matrix` is the harness's *crash-consistency* half, what
``repro chaos --crash-matrix`` drives.  Instead of replaying one plan,
it enumerates **every** filesystem-operation boundary of three store
workloads over the grid's first three specs -- cold write, cache-miss
recompute, and two-phase gc compaction (with a concurrent writer racing
the eviction) -- and, at each boundary, simulates a crash
(:class:`~repro.chaos.fs.SimulatedCrash`), materializes each reachable
post-crash disk image (:data:`~repro.chaos.fs.CRASH_IMAGE_MODES`),
restarts against the surviving tree, and asserts the recovery
invariants:

1. **no torn read** -- ``get`` never returns a result that differs from
   the fault-free baseline (torn/corrupt entries are misses, not lies);
2. **verify classifies all damage** -- any surviving entry that the
   read path would reject is flagged by :meth:`RunStore.verify`;
3. **staging swept** -- a restart one process-lifetime later holds no
   orphaned ``tmp/`` debris;
4. **warm convergence** -- a warm re-run through the recovered store is
   bit-identical to the baseline, and the store verifies clean after.

The matrix runs under both ``durability`` modes: ``"strict"`` because
its fsync points must make every adversarial image collapse to a clean
one, ``"fast"`` because recovery -- not durability -- is its guarantee.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.chaos.failures import FailureRecord
from repro.chaos.fs import (
    CRASH_IMAGE_MODES,
    ChaosVFS,
    SimulatedCrash,
    chaos_vfs_for_plan,
    corrupt_entry_bytes,
)
from repro.chaos.plan import FaultPlan, PlanError, plan_digest
from repro.chaos.runner import ChaosPoolRunner
from repro.sim.metrics import RunResult
from repro.sim.runner import SerialRunner
from repro.sim.spec import ComponentSpec, CrashSpec, RunSpec, make_spec
from repro.sim.store import (
    STALE_TMP_GRACE_SECONDS,
    CachingRunner,
    RunStore,
)
from repro.sim.traceio import run_fingerprint


def chaos_grid() -> List[RunSpec]:
    """The committed spec grid every plan replay runs against.

    Small enough that one serial pass takes a fraction of a second,
    varied enough that every layer of the stack sees distinct work: the
    crash matrix's three ring specs first (:func:`run_crash_matrix`
    re-runs them at every crash point), then each model -- FSYNC, the
    faithful compute, SSYNC, ASYNC and random crashes -- on a churning
    and a static graph, under both backends.  Every spec runs at least
    one round with records on, so an engine fault at round 0 always
    fires.  A plan's ``spec_index`` addresses a position in this list;
    each spec draws its own seed, its position.
    """
    specs = [
        make_spec(
            "ring",
            {"n": 6},
            k=4,
            seed=seed,
            label=f"crash-matrix seed={seed}",
        )
        for seed in range(3)
    ]
    graphs = (
        ("random_churn", {"n": 12, "extra_edges": 6}),
        ("static_family", {"n": 12, "family": "random_sparse"}),
    )
    models: Dict[str, Dict[str, Any]] = {
        "fsync": {},
        "faithful": {"algorithm_params": {"faithful": True}},
        "ssync": {
            "scheduler": ComponentSpec(
                "ssync", {"policy": "random_subset", "p": 0.6, "seed": 1}
            )
        },
        "async": {
            "scheduler": ComponentSpec("async", {"seed": 2, "max_delay": 3})
        },
        "crash": {"crash": CrashSpec(kind="random", f=2, max_round=3)},
    }
    for graph, params in graphs:
        for model, extra in models.items():
            for backend in ("reference", "vectorized"):
                specs.append(
                    make_spec(
                        graph,
                        params,
                        k=8,
                        seed=len(specs),
                        backend=ComponentSpec(backend),
                        label=f"chaos {graph} {model} {backend}",
                        **extra,
                    )
                )
    return specs


def results_fingerprint(results: Sequence[RunResult]) -> str:
    """One sha256 over each result's :func:`run_fingerprint`, in order.

    Two result lists fingerprint alike iff they are bit-identical run by
    run, in the same order -- across backends, stores and fault plans.
    """
    digest = hashlib.sha256()
    for result in results:
        digest.update(run_fingerprint(result).encode("ascii"))
    return digest.hexdigest()


@dataclass
class ChaosReport:
    """The outcome of one :func:`replay_plan` invocation."""

    plan: Dict[str, Any]
    plan_digest: str
    runs: int
    baseline_fingerprint: str
    cold_fingerprint: str
    warm_fingerprint: str
    corrupt_entries: int
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """Whether both chaos passes reproduced the baseline bits."""
        return (
            self.cold_fingerprint == self.baseline_fingerprint
            and self.warm_fingerprint == self.baseline_fingerprint
        )

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (what ``repro chaos --json`` writes)."""
        return {
            "kind": "chaos_report",
            "plan": self.plan,
            "plan_digest": self.plan_digest,
            "runs": self.runs,
            "baseline_fingerprint": self.baseline_fingerprint,
            "cold_fingerprint": self.cold_fingerprint,
            "warm_fingerprint": self.warm_fingerprint,
            "corrupt_entries": self.corrupt_entries,
            "converged": self.converged,
            "failures": [record.to_dict() for record in self.failures],
        }

    def render(self) -> str:
        """A human-readable verdict block."""
        verdict = "CONVERGED" if self.converged else "DIVERGED"
        lines = [
            f"chaos replay [{verdict}] plan {self.plan_digest[:12]} "
            f"({self.runs} runs/pass)",
            f"  faults tolerated: {len(self.failures)} "
            f"({self._kind_summary()})",
            f"  corrupt entries detected + quarantined: "
            f"{self.corrupt_entries}",
            f"  baseline {self.baseline_fingerprint[:16]} / "
            f"cold {self.cold_fingerprint[:16]} / "
            f"warm {self.warm_fingerprint[:16]}",
        ]
        for record in self.failures:
            lines.append(
                f"  unit {record.unit} attempt {record.attempt} "
                f"[{record.kind}] {record.detail}"
            )
        return "\n".join(lines)

    def _kind_summary(self) -> str:
        counts: Dict[str, int] = {}
        for record in self.failures:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        if not counts:
            return "none"
        return ", ".join(
            f"{kind}={count}" for kind, count in sorted(counts.items())
        )


def replay_plan(
    plan: FaultPlan,
    root: Union[str, os.PathLike],
    *,
    specs: Optional[Sequence[RunSpec]] = None,
    jobs: int = 2,
    timeout: float = 5.0,
    baseline_fingerprint: Optional[str] = None,
) -> ChaosReport:
    """Replay ``plan`` against a spec grid; see the module docstring.

    ``root`` must be a fresh directory per replay: it receives the chaos
    run's store (``<root>/store``) and the plan's fault-budget counters
    (``<root>/claims``), and a reused root would replay against spent
    budgets.  The grid is ``specs``, by default :func:`chaos_grid`; a
    runner or engine fault whose ``spec_index`` lies past its end
    addresses nothing and raises :class:`PlanError` before any pass
    runs.  ``baseline_fingerprint`` skips the baseline pass when the
    caller already knows it (e.g. the second replay of a golden pair).
    """
    grid = chaos_grid() if specs is None else list(specs)
    for fault in (*plan.runner, *plan.engine):
        if fault.spec_index >= len(grid):
            raise PlanError(
                f"{type(fault).__name__} spec_index {fault.spec_index} "
                f"addresses no spec of the {len(grid)}-spec grid"
            )
    root = pathlib.Path(root)
    store_root = root / "store"

    if baseline_fingerprint is None:
        baseline_fingerprint = results_fingerprint(SerialRunner().run(grid))

    # Only the parent-side store injects: its entry reads are counted
    # serially, so read faults land deterministically.
    vfs = chaos_vfs_for_plan(plan)
    store = RunStore(store_root, vfs=vfs)
    # Write-path faults disable worker write-through, so every store
    # write funnels through the parent-side CachingRunner path -- the
    # op stream they address.
    writes_faulted = any(fault.op != "read_bytes" for fault in plan.fs)
    pool = ChaosPoolRunner(
        plan,
        root / "claims",
        max_workers=jobs,
        timeout=timeout,
        store=None if writes_faulted else RunStore(store_root),
    )
    chaos_stack = CachingRunner(pool, store)
    try:
        cold_fingerprint = results_fingerprint(chaos_stack.run(grid))
        warm_fingerprint = results_fingerprint(chaos_stack.run(grid))
    finally:
        pool.close()

    return ChaosReport(
        plan=plan.to_dict(),
        plan_digest=plan_digest(plan),
        runs=len(grid),
        baseline_fingerprint=baseline_fingerprint,
        cold_fingerprint=cold_fingerprint,
        warm_fingerprint=warm_fingerprint,
        corrupt_entries=store.corrupt,
        failures=sorted(
            list(pool.failures)
            + (vfs.failures if vfs is not None else [])
            + list(chaos_stack.failures)
        ),
    )


# ----------------------------------------------------------------------
# Crash-point matrix
# ----------------------------------------------------------------------


class _MatrixScenario:
    """One faultable store workload of the crash matrix.

    ``prepare`` builds the pre-crash state with a clean store;
    ``execute`` performs the operations whose op stream is enumerated
    (by default, the grid through a caching runner, every miss
    computed and published); ``after_crash`` simulates activity racing
    the crashed process (the gc scenario's concurrent writer).
    """

    name = ""

    def __init__(
        self, specs: Sequence[RunSpec], results: Sequence[RunResult]
    ) -> None:
        self.specs = list(specs)
        self.results = list(results)

    def prepare(self, store_root: pathlib.Path, durability: str) -> None:
        """Build the clean pre-crash store state (no faults)."""

    def execute(self, store: RunStore) -> None:
        """The crash-point-enumerable operations."""
        CachingRunner(SerialRunner(), store).run(self.specs)

    def _put_all(self, store_root: pathlib.Path, durability: str) -> RunStore:
        """A clean store at ``store_root`` holding every grid result."""
        store = RunStore(store_root, durability=durability)
        for spec, result in zip(self.specs, self.results):
            store.put(spec, result)
        return store

    def after_crash(self, store_root: pathlib.Path, durability: str) -> None:
        """Concurrent activity between the crash and the restart."""


class _WriteScenario(_MatrixScenario):
    """Cold store writes: every spec is a miss and gets published."""

    name = "store-write"


class _RecomputeScenario(_MatrixScenario):
    """A corrupt entry is quarantined and recomputed on read."""

    name = "recompute"

    def prepare(self, store_root: pathlib.Path, durability: str) -> None:
        store = self._put_all(store_root, durability)
        victim = store.path_for(store.digest(self.specs[0]))
        victim.write_bytes(
            corrupt_entry_bytes(
                victim.read_bytes(),
                "bit_flip",
                random.Random("crash-matrix:recompute"),
            )
        )


class _GcScenario(_MatrixScenario):
    """Two-phase gc compaction racing a writer republishing a victim."""

    name = "gc-compaction"

    def prepare(self, store_root: pathlib.Path, durability: str) -> None:
        self._put_all(store_root, durability)
        stale = RunStore(store_root, salt="crash-matrix-stale-salt")
        for spec, result in zip(self.specs[:2], self.results[:2]):
            stale.put(spec, result)

    def execute(self, store: RunStore) -> None:
        store.gc(max_entries=1)

    def after_crash(self, store_root: pathlib.Path, durability: str) -> None:
        # The concurrent writer: republish a digest gc may just have
        # been evicting.  Two-phase deletion must leave this fresh
        # entry intact whatever point the gc died at.
        writer = RunStore(store_root, durability=durability)
        writer.put(self.specs[0], self.results[0])


@dataclass
class CrashMatrixReport:
    """The outcome of one :func:`run_crash_matrix` sweep."""

    durabilities: List[str]
    spec_count: int
    cells: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[Dict[str, str]] = field(default_factory=list)

    @property
    def crash_points(self) -> int:
        """Total crash points enumerated across all cells."""
        return sum(cell["crash_points"] for cell in self.cells)

    @property
    def images_checked(self) -> int:
        """Total (crash point, image) combinations actually asserted."""
        return sum(cell["images_checked"] for cell in self.cells)

    @property
    def ok(self) -> bool:
        """Whether every crash point recovered under every image."""
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (``repro chaos --crash-matrix --json``)."""
        return {
            "kind": "crash_matrix_report",
            "durabilities": list(self.durabilities),
            "spec_count": self.spec_count,
            "crash_points": self.crash_points,
            "images_checked": self.images_checked,
            "cells": list(self.cells),
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def render(self) -> str:
        """A verdict block plus one line per scenario cell."""
        verdict = "RECOVERED" if self.ok else "VIOLATED"
        lines = [
            f"crash matrix [{verdict}] {self.crash_points} crash points, "
            f"{self.images_checked} images checked "
            f"({self.spec_count} specs, "
            f"durability {'/'.join(self.durabilities)})"
        ]
        for cell in self.cells:
            lines.append(
                f"  {cell['scenario']:<14} durability={cell['durability']:<6} "
                f"{cell['crash_points']:>3} points, "
                f"{cell['images_checked']:>3} images, "
                f"{cell['images_skipped']:>3} collapsed to flush"
            )
        for violation in self.violations:
            lines.append(
                f"  VIOLATION [{violation['invariant']}] "
                f"{violation['scenario']} durability="
                f"{violation['durability']} op {violation['crash_point']} "
                f"({violation['op']}) image {violation['image']}: "
                f"{violation['detail']}"
            )
        return "\n".join(lines)


def _matrix_clock(store_root: pathlib.Path) -> Callable[[], float]:
    """A frozen clock 'one process lifetime after' the crash.

    Derived from on-disk mtimes rather than the wall clock, so the
    restart deterministically sees every staging orphan as stale --
    which lets the matrix assert the startup sweep at every crash
    point.
    """
    newest = 0.0
    staging = store_root / "tmp"
    if staging.is_dir():
        for leftover in staging.iterdir():
            try:
                newest = max(newest, leftover.stat().st_mtime)
            except OSError:
                continue
    horizon = newest + STALE_TMP_GRACE_SECONDS * 2.0
    return lambda: horizon


def _check_recovery(
    store_root: pathlib.Path,
    durability: str,
    specs: Sequence[RunSpec],
    baseline: Sequence[str],
) -> List[Dict[str, str]]:
    """Assert the four recovery invariants against the surviving tree.

    Returns one dict per violation (empty = this image recovered);
    keys ``invariant`` and ``detail`` are filled in, the caller adds
    the cell coordinates.
    """
    problems: List[Dict[str, str]] = []
    clock = _matrix_clock(store_root)
    probe = RunStore(store_root, durability=durability, clock=clock)
    flagged = {
        item["digest"] for item in probe.verify().corrupt
    }
    probe.recover()
    if probe.staging_usage() != 0:
        problems.append(
            {
                "invariant": "staging-swept",
                "detail": (
                    f"{probe.staging_usage()} orphaned tmp files survive "
                    f"the startup sweep"
                ),
            }
        )
    for spec, expected in zip(specs, baseline):
        digest = probe.digest(spec)
        existed = probe.path_for(digest).exists()
        got = probe.get(spec)
        if got is not None:
            if run_fingerprint(got) != expected:
                problems.append(
                    {
                        "invariant": "no-torn-read",
                        "detail": (
                            f"entry {digest[:12]} read back different "
                            f"bits than the baseline result"
                        ),
                    }
                )
        elif existed and digest not in flagged:
            problems.append(
                {
                    "invariant": "verify-classifies-damage",
                    "detail": (
                        f"entry {digest[:12]} was rejected by the read "
                        f"path but not flagged by verify"
                    ),
                }
            )
    # Warm convergence: recompute whatever was lost, then the store
    # must hold nothing but sound entries.
    warm_store = RunStore(store_root, durability=durability, clock=clock)
    warm = CachingRunner(SerialRunner(), warm_store)
    for spec, result, expected in zip(specs, warm.run(specs), baseline):
        if run_fingerprint(result) != expected:
            problems.append(
                {
                    "invariant": "warm-convergence",
                    "detail": (
                        f"warm re-run of {warm_store.digest(spec)[:12]} "
                        f"diverged from the baseline"
                    ),
                }
            )
    final = warm_store.verify()
    if not final.clean:
        problems.append(
            {
                "invariant": "warm-convergence",
                "detail": (
                    f"{len(final.corrupt)} corrupt entries survive the "
                    f"warm repair pass"
                ),
            }
        )
    return problems


def run_crash_matrix(
    workdir: Union[str, os.PathLike],
    *,
    durabilities: Sequence[str] = ("fast", "strict"),
    specs: Optional[Sequence[RunSpec]] = None,
    seed: int = 0,
) -> CrashMatrixReport:
    """Enumerate every crash point of the store workloads; see module doc.

    ``workdir`` hosts one throwaway store tree per (scenario,
    durability, crash point) cell -- use a fresh temporary directory.
    ``specs`` overrides the default micro-grid, the first three specs of
    :func:`chaos_grid` (keep it tiny: the full workload re-runs at every
    cell).
    """
    workdir = pathlib.Path(workdir)
    grid = list(specs) if specs is not None else chaos_grid()[:3]
    results = SerialRunner().run(grid)
    baseline = [run_fingerprint(result) for result in results]
    report = CrashMatrixReport(
        durabilities=list(durabilities), spec_count=len(grid)
    )
    scenarios = (_WriteScenario, _RecomputeScenario, _GcScenario)
    cell_serial = 0
    for durability in durabilities:
        for scenario_cls in scenarios:
            scenario = scenario_cls(grid, results)
            # Counting pass: same workload, no faults, to learn the
            # length of the deterministic op stream.
            cell_serial += 1
            count_root = workdir / f"cell-{cell_serial}"
            scenario.prepare(count_root / "store", durability)
            counting = ChaosVFS(seed=seed)
            scenario.execute(
                RunStore(
                    count_root / "store",
                    durability=durability,
                    vfs=counting,
                )
            )
            cell = {
                "scenario": scenario.name,
                "durability": durability,
                "crash_points": counting.op_count,
                "images_checked": 0,
                "images_skipped": 0,
            }
            for crash_point in range(counting.op_count):
                for image in CRASH_IMAGE_MODES:
                    cell_serial += 1
                    root = workdir / f"cell-{cell_serial}"
                    store_root = root / "store"
                    scenario.prepare(store_root, durability)
                    vfs = ChaosVFS(seed=seed, crash_at=crash_point)
                    store = RunStore(
                        store_root, durability=durability, vfs=vfs
                    )
                    try:
                        scenario.execute(store)
                    except SimulatedCrash:
                        pass
                    changed = vfs.apply_crash_image(image)
                    if image != "flush" and not changed:
                        # Indistinguishable from the flush image (all
                        # volatile state had been fsynced): already
                        # covered, skip the redundant recovery run.
                        cell["images_skipped"] += 1
                        continue
                    scenario.after_crash(store_root, durability)
                    cell["images_checked"] += 1
                    crashed_op = vfs.ops[crash_point]
                    for problem in _check_recovery(
                        store_root, durability, grid, baseline
                    ):
                        report.violations.append(
                            {
                                "scenario": scenario.name,
                                "durability": durability,
                                "crash_point": str(crash_point),
                                "op": crashed_op.name,
                                "image": image,
                                "invariant": problem["invariant"],
                                "detail": problem["detail"],
                            }
                        )
            report.cells.append(cell)
    return report
