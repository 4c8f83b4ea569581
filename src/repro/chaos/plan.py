"""Declarative, seeded fault plans.

A :class:`FaultPlan` is to chaos what a :class:`~repro.sim.spec.RunSpec`
is to a simulation run: pure data naming every fault to inject, JSON
round-trippable, and content-addressable (:func:`plan_digest`).  A plan
fully determines a chaos replay -- same plan, same campaign, same
failure stream, same results -- which is what lets the chaos suite
assert convergence as a golden test instead of eyeballing flaky logs.

Faults come in three layers, mirroring the execution stack, and each
layer has one address:

* :class:`RunnerFault` -- makes the work unit containing the
  ``spec_index``-th dispatched spec misbehave: ``crash`` SIGKILLs the
  worker mid-unit, ``hang`` stalls it past the pool timeout,
  ``transient`` raises a retriable exception, ``slow`` injects latency
  without failing (the unit still completes and must still produce
  bit-identical results).  Specs are counted globally across every
  ``run()`` call the chaos runner serves, so the address names the same
  work however the pool batches its units.
* :class:`EngineFault` -- raises from a named engine phase hook
  (:class:`repro.chaos.engine_faults.PhaseFaultObserver`) while the
  ``spec_index``-th dispatched spec executes.
* :class:`FsFault` -- sabotages one filesystem operation of the
  parent-side store (:class:`repro.chaos.fs.ChaosVFS`), addressed by
  operation name (``op``), the Nth matching occurrence (``op_index``),
  and optionally the store's ``writer`` tag (``"parent"`` hits only the
  :class:`~repro.sim.store.CachingRunner` path).  On the write path
  ``eio``/``enospc`` raise the corresponding ``OSError`` from the
  matched op, ``torn_write`` persists a partial buffer and simulates a
  crash, ``lost_rename`` crashes with the publish rename undone, and
  ``crash`` raises :class:`~repro.chaos.fs.SimulatedCrash` at the op
  boundary.  On the read path (``op="read_bytes"``, the entry read of
  :meth:`~repro.sim.store.RunStore.get`) ``bit_flip``, ``truncate``,
  ``stale_salt`` and ``unreadable`` corrupt the entry as it is read
  back; ``op_index`` then counts the reads that find a stored entry.

``seed`` drives every stochastic choice an injector makes (currently the
bit-flip position), through ``random.Random`` instances derived from the
seed and the fault's position in the plan -- never ambient state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Tuple

from repro.sim.spec import canonical_json

PLAN_FORMAT_VERSION = 2

#: Ways a dispatched work unit can misbehave.
RUNNER_FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "transient", "slow")

#: The fs fault kinds that corrupt a stored entry as it is read back;
#: they take ``op="read_bytes"`` and no other op.
_READ_FAULT_KINDS = ("bit_flip", "truncate", "stale_salt", "unreadable")

#: Ways a filesystem operation can be sabotaged.
FS_FAULT_KINDS: Tuple[str, ...] = (
    "eio",
    "enospc",
    "torn_write",
    "lost_rename",
    "crash",
) + _READ_FAULT_KINDS

#: The :class:`~repro.sim.store.VirtualFS` operations an
#: :class:`FsFault` may target (``"any"`` matches every write-path op;
#: ``"read_bytes"`` is the entry read, outside the op stream).
FS_OPS: Tuple[str, ...] = (
    "any",
    "mkdir",
    "write_bytes",
    "fsync_file",
    "replace",
    "fsync_dir",
    "unlink",
    "read_bytes",
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


#: The top-level keys of a fault plan document.
_PLAN_KEYS = frozenset(
    ("format_version", "kind", "seed", "runner", "engine", "fs", "label")
)


class PlanError(ValueError):
    """A fault plan references an unknown kind or a bad value."""


def _check_entry_keys(layer: str, cls: type, data: Mapping[str, Any]) -> None:
    """Refuse a ``layer`` fault entry holding a key ``cls`` does not
    declare, so a typo or a stale address is an error, never dropped."""
    known = tuple(field.name for field in fields(cls))
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise PlanError(
            f"unknown {layer} fault keys {unknown}; expected keys from "
            f"{known}"
        )


@dataclass(frozen=True)
class RunnerFault:
    """Make the work unit containing the ``spec_index``-th spec misbehave.

    ``spec_index`` counts dispatched specs globally, as
    :class:`EngineFault` does; the failure stream records the unit as
    the global index of its first targeted spec, so the stream is
    identical however units are batched.

    ``times`` bounds how often the fault fires (a re-dispatched unit
    would otherwise crash forever); ``seconds`` is the stall length of a
    ``hang`` fault (must exceed the chaos pool's timeout to matter) or
    the injected latency of a ``slow`` fault (must stay *under* the
    timeout, or it degenerates into a hang).
    """

    kind: str
    spec_index: int
    times: int = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in RUNNER_FAULT_KINDS:
            raise PlanError(
                f"unknown runner fault kind {self.kind!r}; expected one of "
                f"{RUNNER_FAULT_KINDS}"
            )
        if self.spec_index < 0:
            raise PlanError(f"spec_index must be >= 0, got {self.spec_index}")
        if self.times < 1:
            raise PlanError(f"times must be >= 1, got {self.times}")
        if self.seconds <= 0:
            raise PlanError(f"seconds must be positive, got {self.seconds}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {
            "kind": self.kind,
            "spec_index": self.spec_index,
            "times": self.times,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunnerFault":
        """Inverse of :meth:`to_dict`; an unknown key raises
        :class:`PlanError`."""
        _check_entry_keys("runner", cls, data)
        return cls(
            kind=str(data["kind"]),
            spec_index=int(data["spec_index"]),
            times=int(data.get("times", 1)),
            seconds=float(data.get("seconds", 30.0)),
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
        """Inverse of :meth:`to_dict`; an unknown key raises
        :class:`PlanError`."""
        _check_entry_keys("engine", cls, data)
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
    match (``"any"`` matches every write-path op); ``writer`` restricts
    the match to ops tagged with that store address (``"parent"`` -- the
    :class:`~repro.sim.store.CachingRunner` path, ``"worker"`` --
    pool-worker write-through; empty matches any writer).  ``op_index``
    counts the matching ops, per :class:`~repro.chaos.fs.ChaosVFS`
    instance; ``times`` makes the fault fire on that many *consecutive*
    matching ops (an ``enospc`` with ``times=3`` models a disk that
    stays full for three writes).

    ``eio``/``enospc`` are survivable (the write path degrades
    gracefully and records an ``io`` failure); ``torn_write``,
    ``lost_rename`` and ``crash`` raise
    :class:`~repro.chaos.fs.SimulatedCrash` and are meant for the
    crash-point harness, not for convergence replays.  The read kinds
    (``bit_flip``, ``truncate``, ``stale_salt``, ``unreadable``) target
    ``op="read_bytes"`` and nothing else: they damage a stored entry as
    it is read back, which the store must detect, quarantine and
    recompute.
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
        if (self.kind in _READ_FAULT_KINDS) != (self.op == "read_bytes"):
            raise PlanError(
                f"read_bytes takes exactly the read fault kinds "
                f"{_READ_FAULT_KINDS}, not {self.kind!r} on {self.op!r}"
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
        """Inverse of :meth:`to_dict`; an unknown key raises
        :class:`PlanError`."""
        _check_entry_keys("fs", cls, data)
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
    runner: Tuple[RunnerFault, ...] = ()
    engine: Tuple[EngineFault, ...] = ()
    fs: Tuple[FsFault, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        # Tolerate lists from direct construction; store tuples so plans
        # are hashable frozen data like every other spec layer.
        object.__setattr__(self, "runner", tuple(self.runner))
        object.__setattr__(self, "engine", tuple(self.engine))
        object.__setattr__(self, "fs", tuple(self.fs))

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-serializable dict export of the plan (``fs`` and
        ``label`` are omitted when empty)."""
        data: Dict[str, Any] = {
            "format_version": PLAN_FORMAT_VERSION,
            "kind": "fault_plan",
            "seed": self.seed,
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
        unknown = sorted(set(data) - _PLAN_KEYS)
        if unknown:
            raise PlanError(f"unknown fault plan keys {unknown}")
        try:
            return cls(
                seed=int(data.get("seed", 0)),
                runner=tuple(
                    RunnerFault.from_dict(item)
                    for item in data.get("runner", ())
                ),
                engine=tuple(
                    EngineFault.from_dict(item)
                    for item in data.get("engine", ())
                ),
                fs=tuple(
                    FsFault.from_dict(item) for item in data.get("fs", ())
                ),
                label=str(data.get("label", "")),
            )
        except KeyError as error:
            raise PlanError(f"fault plan entry lacks {error}") from error

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
        return len(self.runner) + len(self.engine) + len(self.fs)


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
