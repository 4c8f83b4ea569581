"""Declarative, seeded fault plans.

A :class:`FaultPlan` is to chaos what a :class:`~repro.sim.spec.RunSpec`
is to a simulation run: pure data naming every fault to inject, JSON
round-trippable, and content-addressable (:func:`plan_digest`).  A plan
fully determines a chaos replay -- same plan, same campaign, same
failure stream, same results -- which is what lets the chaos suite
assert convergence as a golden test instead of eyeballing flaky logs.

Faults come in four layers, mirroring the execution stack:

* :class:`StoreFault` -- corrupts one on-disk store entry (bit flip,
  truncation, stale salt, undecodable bytes) as it is read, in the read
  path of the parent-side store's :class:`repro.chaos.fs.ChaosVFS`.
  ``op_index`` counts, per store instance, the reads that find an
  existing entry: fault ``op_index=2`` hits the third stored entry the
  replay reads back.
* :class:`RunnerFault` -- makes a dispatched work unit misbehave:
  ``crash`` SIGKILLs the worker mid-unit, ``hang`` stalls it past the
  pool timeout, ``transient`` raises a retriable exception, ``slow``
  injects latency without failing (the unit still completes and must
  still produce bit-identical results).
  A runner fault is addressed one of two ways: ``unit_index`` counts
  work units globally across every ``run()`` call the chaos runner
  serves ("the Nth unit of the campaign" -- which *physical* unit that
  is depends on the pool's ``chunksize``), while ``spec_digest`` names
  the :func:`~repro.sim.spec.spec_digest` of a spec the unit contains,
  which keeps the plan meaning the same work however the units are
  batched.
* :class:`EngineFault` -- raises from a named engine phase hook
  (:class:`repro.chaos.engine_faults.PhaseFaultObserver`) while the
  ``spec_index``-th dispatched spec executes.
* :class:`FsFault` -- sabotages one filesystem operation of the
  parent-side store's write path (:class:`repro.chaos.fs.ChaosVFS`):
  ``eio``/``enospc`` raise the corresponding ``OSError`` from the
  matched op, ``torn_write`` persists a partial buffer and simulates a
  crash, ``lost_rename`` crashes with the publish rename undone, and
  ``crash`` raises :class:`~repro.chaos.fs.SimulatedCrash` at the op
  boundary.  The target is addressed by operation name (``op``), the
  Nth matching occurrence (``op_index``), and optionally the store's
  ``writer`` tag (``"parent"`` hits only the
  :class:`~repro.sim.store.CachingRunner` write path).

``seed`` drives every stochastic choice an injector makes (currently the
bit-flip position), through ``random.Random`` instances derived from the
seed and the fault's position in the plan -- never ambient state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.sim.spec import canonical_json

PLAN_FORMAT_VERSION = 1

#: Ways a store entry can be corrupted on disk.
STORE_FAULT_KINDS: Tuple[str, ...] = (
    "bit_flip",
    "truncate",
    "stale_salt",
    "unreadable",
)

#: Ways a dispatched work unit can misbehave.
RUNNER_FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "transient", "slow")

#: Ways a filesystem operation can be sabotaged.
FS_FAULT_KINDS: Tuple[str, ...] = (
    "eio",
    "enospc",
    "torn_write",
    "lost_rename",
    "crash",
)

#: The :class:`~repro.sim.store.VirtualFS` operations an
#: :class:`FsFault` may target (``"any"`` matches every op).
FS_OPS: Tuple[str, ...] = (
    "any",
    "mkdir",
    "write_bytes",
    "fsync_file",
    "replace",
    "fsync_dir",
    "unlink",
)

#: The engine phase hooks an :class:`EngineFault` may target, in firing
#: order (see :class:`repro.sim.hooks.EngineObserver`).
ENGINE_PHASES: Tuple[str, ...] = (
    "on_run_start",
    "on_round_start",
    "on_communicate",
    "on_compute",
    "on_move",
    "on_round_end",
    "on_run_end",
)


class PlanError(ValueError):
    """A fault plan references an unknown kind or a bad value."""


@dataclass(frozen=True)
class StoreFault:
    """Corrupt the ``op_index``-th stored entry read back, by ``kind``."""

    kind: str
    op_index: int

    def __post_init__(self) -> None:
        if self.kind not in STORE_FAULT_KINDS:
            raise PlanError(
                f"unknown store fault kind {self.kind!r}; expected one of "
                f"{STORE_FAULT_KINDS}"
            )
        if self.op_index < 0:
            raise PlanError(f"op_index must be >= 0, got {self.op_index}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {"kind": self.kind, "op_index": self.op_index}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreFault":
        """Inverse of :meth:`to_dict`."""
        return cls(kind=str(data["kind"]), op_index=int(data["op_index"]))


@dataclass(frozen=True)
class RunnerFault:
    """Make one dispatched work unit misbehave.

    The target is addressed by exactly one of ``unit_index`` (the Nth
    unit dispatched globally -- chunksize-dependent) or ``spec_digest``
    (the unit containing the spec with that
    :func:`~repro.sim.spec.spec_digest` -- chunksize-portable; the
    failure stream then records the matched spec's global index as the
    canonical unit, so the stream is identical however units are
    batched).

    ``times`` bounds how often the fault fires (a re-dispatched unit
    would otherwise crash forever); ``seconds`` is the stall length of a
    ``hang`` fault (must exceed the chaos pool's timeout to matter) or
    the injected latency of a ``slow`` fault (must stay *under* the
    timeout, or it degenerates into a hang).
    """

    kind: str
    unit_index: Optional[int] = None
    times: int = 1
    seconds: float = 30.0
    spec_digest: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in RUNNER_FAULT_KINDS:
            raise PlanError(
                f"unknown runner fault kind {self.kind!r}; expected one of "
                f"{RUNNER_FAULT_KINDS}"
            )
        if (self.unit_index is None) == (self.spec_digest is None):
            raise PlanError(
                "a runner fault is addressed by exactly one of unit_index "
                "or spec_digest"
            )
        if self.unit_index is not None and self.unit_index < 0:
            raise PlanError(f"unit_index must be >= 0, got {self.unit_index}")
        if self.spec_digest is not None and not self.spec_digest:
            raise PlanError("spec_digest must be a non-empty digest string")
        if self.times < 1:
            raise PlanError(f"times must be >= 1, got {self.times}")
        if self.seconds <= 0:
            raise PlanError(f"seconds must be positive, got {self.seconds}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (only the addressing field in use is kept,
        so index-addressed plans serialize exactly as they always have).
        """
        data: Dict[str, Any] = {
            "kind": self.kind,
            "times": self.times,
            "seconds": self.seconds,
        }
        if self.unit_index is not None:
            data["unit_index"] = self.unit_index
        if self.spec_digest is not None:
            data["spec_digest"] = self.spec_digest
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunnerFault":
        """Inverse of :meth:`to_dict`."""
        unit_index = data.get("unit_index")
        digest = data.get("spec_digest")
        return cls(
            kind=str(data["kind"]),
            unit_index=int(unit_index) if unit_index is not None else None,
            times=int(data.get("times", 1)),
            seconds=float(data.get("seconds", 30.0)),
            spec_digest=str(digest) if digest is not None else None,
        )


@dataclass(frozen=True)
class EngineFault:
    """Raise from ``phase`` while the ``spec_index``-th spec executes.

    ``round_index`` delays the fault to the first firing of the phase at
    or after that round; ``times`` bounds how many executions of the
    spec the fault poisons before the retry succeeds.
    """

    phase: str
    spec_index: int
    round_index: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.phase not in ENGINE_PHASES:
            raise PlanError(
                f"unknown engine phase {self.phase!r}; expected one of "
                f"{ENGINE_PHASES}"
            )
        if self.spec_index < 0:
            raise PlanError(f"spec_index must be >= 0, got {self.spec_index}")
        if self.round_index < 0:
            raise PlanError(
                f"round_index must be >= 0, got {self.round_index}"
            )
        if self.times < 1:
            raise PlanError(f"times must be >= 1, got {self.times}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {
            "phase": self.phase,
            "spec_index": self.spec_index,
            "round_index": self.round_index,
            "times": self.times,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineFault":
        """Inverse of :meth:`to_dict`."""
        return cls(
            phase=str(data["phase"]),
            spec_index=int(data["spec_index"]),
            round_index=int(data.get("round_index", 0)),
            times=int(data.get("times", 1)),
        )


@dataclass(frozen=True)
class FsFault:
    """Sabotage the ``op_index``-th matching filesystem operation.

    ``op`` names the :class:`~repro.sim.store.VirtualFS` operation to
    match (``"any"`` matches all of them); ``writer`` restricts the
    match to ops tagged with that store address (``"parent"`` -- the
    :class:`~repro.sim.store.CachingRunner` write path, ``"worker"`` --
    pool-worker write-through; empty matches any writer).  ``op_index``
    counts the matching ops, per :class:`~repro.chaos.fs.ChaosVFS`
    instance; ``times`` makes the fault fire on that many *consecutive*
    matching ops (an ``enospc`` with ``times=3`` models a disk that
    stays full for three writes).

    ``eio``/``enospc`` are survivable (the write path degrades
    gracefully and records an ``io`` failure); ``torn_write``,
    ``lost_rename`` and ``crash`` raise
    :class:`~repro.chaos.fs.SimulatedCrash` and are meant for the
    crash-point harness, not for convergence replays.
    """

    kind: str
    op: str = "any"
    op_index: int = 0
    writer: str = ""
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FS_FAULT_KINDS:
            raise PlanError(
                f"unknown fs fault kind {self.kind!r}; expected one of "
                f"{FS_FAULT_KINDS}"
            )
        if self.op not in FS_OPS:
            raise PlanError(
                f"unknown fs op {self.op!r}; expected one of {FS_OPS}"
            )
        if self.kind == "torn_write" and self.op not in ("any", "write_bytes"):
            raise PlanError(
                f"torn_write targets write_bytes ops, not {self.op!r}"
            )
        if self.kind == "lost_rename" and self.op not in ("any", "replace"):
            raise PlanError(
                f"lost_rename targets replace ops, not {self.op!r}"
            )
        if self.op_index < 0:
            raise PlanError(f"op_index must be >= 0, got {self.op_index}")
        if self.times < 1:
            raise PlanError(f"times must be >= 1, got {self.times}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {
            "kind": self.kind,
            "op": self.op,
            "op_index": self.op_index,
            "writer": self.writer,
            "times": self.times,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FsFault":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=str(data["kind"]),
            op=str(data.get("op", "any")),
            op_index=int(data.get("op_index", 0)),
            writer=str(data.get("writer", "")),
            times=int(data.get("times", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Every fault one chaos replay injects, as pure data.

    Keep concurrent fault *windows* disjoint for a fully deterministic
    failure stream: a ``crash`` and a ``hang`` whose units are in flight
    simultaneously race over which one breaks the pool first.  Targeting
    units dispatched by different ``run()`` calls (different campaign
    sections) guarantees disjointness, since each call completes before
    the next begins.
    """

    seed: int = 0
    store: Tuple[StoreFault, ...] = ()
    runner: Tuple[RunnerFault, ...] = ()
    engine: Tuple[EngineFault, ...] = ()
    fs: Tuple[FsFault, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        # Tolerate lists from direct construction; store tuples so plans
        # are hashable frozen data like every other spec layer.
        object.__setattr__(self, "store", tuple(self.store))
        object.__setattr__(self, "runner", tuple(self.runner))
        object.__setattr__(self, "engine", tuple(self.engine))
        object.__setattr__(self, "fs", tuple(self.fs))

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-serializable dict export of the plan.

        The ``fs`` layer is omitted when empty (like ``label``), so
        plans predating it serialize -- and hash -- exactly as they
        always have.
        """
        data: Dict[str, Any] = {
            "format_version": PLAN_FORMAT_VERSION,
            "kind": "fault_plan",
            "seed": self.seed,
            "store": [fault.to_dict() for fault in self.store],
            "runner": [fault.to_dict() for fault in self.runner],
            "engine": [fault.to_dict() for fault in self.engine],
        }
        if self.fs:
            data["fs"] = [fault.to_dict() for fault in self.fs]
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        version = data.get("format_version", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"unsupported fault plan format_version {version}; this "
                f"library reads version {PLAN_FORMAT_VERSION}"
            )
        if data.get("kind", "fault_plan") != "fault_plan":
            raise PlanError(f"not a fault_plan document: {data.get('kind')!r}")
        return cls(
            seed=int(data.get("seed", 0)),
            store=tuple(
                StoreFault.from_dict(item) for item in data.get("store", ())
            ),
            runner=tuple(
                RunnerFault.from_dict(item) for item in data.get("runner", ())
            ),
            engine=tuple(
                EngineFault.from_dict(item) for item in data.get("engine", ())
            ),
            fs=tuple(
                FsFault.from_dict(item) for item in data.get("fs", ())
            ),
            label=str(data.get("label", "")),
        )

    def to_json(self, indent: int = 2) -> str:
        """The plan as a JSON string (what ``examples/*.json`` hold)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except ValueError as error:
            raise PlanError(
                f"fault plan does not parse as JSON: {error}"
            ) from error
        if not isinstance(data, dict):
            raise PlanError("fault plan document must be a JSON object")
        return cls.from_dict(data)

    @property
    def fault_count(self) -> int:
        """Total number of declared faults across all layers."""
        return (
            len(self.store)
            + len(self.runner)
            + len(self.engine)
            + len(self.fs)
        )


def plan_digest(plan: FaultPlan, *, salt: str = "faultplan1") -> str:
    """Stable content hash of a plan (display ``label`` excluded).

    Mirrors :func:`~repro.sim.spec.spec_digest`: sha256 of the salt plus
    the plan's canonical JSON, so two plans share a digest iff they
    inject the same faults from the same seed.
    """
    data = plan.to_dict()
    data.pop("label", None)
    payload = f"{salt}\n{canonical_json(data)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
