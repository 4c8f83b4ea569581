"""Filesystem fault injection: a VirtualFS that sabotages store I/O.

:class:`ChaosVFS` substitutes the :class:`~repro.sim.store.VirtualFS` a
:class:`~repro.sim.store.RunStore` routes every mutation and its entry
read through, which turns the store's write path into an enumerable,
addressable *op stream*: op ``k`` is always the same operation on the
same path for the same workload, so a seeded
:class:`~repro.chaos.plan.FsFault` -- or the crash-point harness's
``crash_at=k`` -- names one exact syscall boundary, deterministically.

Two injection styles share the instance:

* **plan faults** -- each :class:`~repro.chaos.plan.FsFault` matched
  against ``(op name, writer tag)`` fires on its ``op_index``-th
  matching op (and the ``times - 1`` matches after it).  On the write
  path ``eio`` / ``enospc`` raise the corresponding ``OSError``
  *instead of* performing the op (survivable -- the write path degrades
  gracefully), ``torn_write`` persists a seeded partial prefix of the
  buffer and raises :class:`SimulatedCrash`, ``lost_rename`` crashes
  with the publish rename never applied, and ``crash`` crashes at the
  boundary before the op takes effect.  On the read path
  (``op="read_bytes"``) the corruption kinds damage the bytes of an
  entry read that finds a stored entry (:func:`corrupt_entry_bytes`),
  writing the damage back so quarantine keeps it.  Reads are counted
  apart from the op stream: they are never crash points, and no
  write-path fault (``op="any"`` included) matches them.
* **crash-points** -- ``crash_at=k`` raises :class:`SimulatedCrash`
  immediately before op ``k`` executes, which is how the replay
  harness's crash matrix visits *every* boundary of a workload in turn.

Beyond injecting, the shim *models the page cache*: writes are volatile
until ``fsync_file``, renames until ``fsync_dir`` of the destination
directory.  After a simulated crash, :meth:`ChaosVFS.apply_crash_image`
rewrites the surviving directory tree into one of the on-disk states a
real power loss could have left (ALICE/CrashMonkey-style):

* ``"flush"``      -- everything executed was persisted (best case);
* ``"lose-volatile"`` -- un-fsynced renames are rolled back and
  un-fsynced writes torn to a seeded prefix (ext3/4 ordered-mode loss);
* ``"torn-publish"``  -- renames persist but un-fsynced *data* is torn
  at the destination (metadata-before-data reordering -- the classic
  torn published entry ``durability="strict"`` exists to rule out).

Under ``durability="strict"`` the store fsyncs at both boundaries, so
the volatile set is (nearly) always empty and every image collapses to
``"flush"``; under ``"fast"`` the images are genuinely adversarial and
recovery (checksum validation, quarantine, recompute, staging sweep)
must absorb them -- the property the crash matrix proves point by
point.
"""

from __future__ import annotations

import errno
import json
import os
import pathlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.chaos.failures import FailureRecord
from repro.chaos.plan import FaultPlan, FsFault
from repro.sim.store import VirtualFS

#: The crash-image policies :meth:`ChaosVFS.apply_crash_image` can
#: materialize, mildest first.
CRASH_IMAGE_MODES: Tuple[str, ...] = (
    "flush",
    "lose-volatile",
    "torn-publish",
)


class SimulatedCrash(BaseException):
    """The process 'died' at a filesystem operation boundary.

    Derives from ``BaseException`` so no library-level ``except
    Exception`` handler can absorb it -- like a real SIGKILL, it
    propagates to whoever is simulating the process boundary.  The
    ``simulated_crash`` marker tells cleanup code (the store's staged
    write) to leave crash debris in place instead of tidying it.
    """

    simulated_crash = True


@dataclass(frozen=True)
class VfsOp:
    """One recorded filesystem operation of the op stream."""

    index: int
    name: str
    path: str
    writer: str


class ChaosVFS(VirtualFS):
    """A :class:`~repro.sim.store.VirtualFS` with planned sabotage.

    ``faults`` are the plan's :class:`~repro.chaos.plan.FsFault`
    entries; read-fault injections accumulate in :attr:`failures`.
    ``seed`` drives every stochastic choice (torn-write lengths,
    crash-image tear points, bit-flip positions) through derived
    ``random.Random`` instances, never ambient state.  ``crash_at`` arms
    the crash-point mode: :class:`SimulatedCrash` is raised immediately
    before the op with that stream index executes.

    One instance should serve one simulated process: the op counter,
    volatile-state model and fault budgets all reset with the instance.
    """

    def __init__(
        self,
        faults: Sequence[FsFault] = (),
        *,
        seed: int = 0,
        crash_at: Optional[int] = None,
    ) -> None:
        self.faults = tuple(faults)
        self.seed = seed
        self.crash_at = crash_at
        self.ops: List[VfsOp] = []
        self.failures: List[FailureRecord] = []
        #: Ops that matched each fault so far (fault index -> count).
        self._matches: Dict[int, int] = {}
        #: Data written but not yet fsynced: path -> whether a
        #: fsync_file has settled it (False = volatile).
        self._unsynced_data: Dict[str, bool] = {}
        #: Renames not yet settled by a fsync_dir of their destination
        #: directory, oldest first.
        self._volatile_renames: List[Dict[str, Any]] = []

    @property
    def op_count(self) -> int:
        """How many ops have entered the stream so far."""
        return len(self.ops)

    # ------------------------------------------------------------------
    # Fault matching
    # ------------------------------------------------------------------

    def _firing(
        self, name: str, writer: str
    ) -> Iterator[Tuple[int, FsFault, int, int]]:
        """Count the op against every fault matching it; yield
        ``(fault index, fault, match, firing)`` for those that fire."""
        for fault_index, fault in enumerate(self.faults):
            if not (
                fault.op == name
                or (fault.op == "any" and name != "read_bytes")
            ):
                continue
            if fault.writer and fault.writer != writer:
                continue
            match = self._matches.get(fault_index, 0)
            self._matches[fault_index] = match + 1
            if fault.op_index <= match < fault.op_index + fault.times:
                yield fault_index, fault, match, match - fault.op_index

    def _enter(self, name: str, path: pathlib.Path, writer: str) -> None:
        """Record the op, then fire any fault addressed to it."""
        index = len(self.ops)
        self.ops.append(VfsOp(index, name, str(path), writer))
        if self.crash_at is not None and index == self.crash_at:
            raise SimulatedCrash(
                f"crash-point {index}: before {name} {path}"
            )
        for fault_index, fault, _, firing in self._firing(name, writer):
            if fault.kind == "eio":
                raise OSError(
                    errno.EIO, f"injected EIO (fs fault {fault_index})"
                )
            if fault.kind == "enospc":
                raise OSError(
                    errno.ENOSPC,
                    f"injected ENOSPC (fs fault {fault_index})",
                )
            if fault.kind == "torn_write" and name == "write_bytes":
                raise _TornWrite(fault_index, firing)
            if fault.kind == "lost_rename" and name == "replace":
                raise SimulatedCrash(
                    f"injected lost rename at op {index} "
                    f"(fs fault {fault_index})"
                )
            if fault.kind == "crash":
                raise SimulatedCrash(
                    f"injected crash at op {index} "
                    f"(fs fault {fault_index})"
                )

    def _rng(self, *scope: Union[int, str]) -> random.Random:
        parts = ":".join(str(part) for part in scope)
        return random.Random(f"chaosfs:{self.seed}:{parts}")

    # ------------------------------------------------------------------
    # The op surface
    # ------------------------------------------------------------------

    def mkdir(self, path: pathlib.Path, *, writer: str = "") -> None:
        """Create ``path``; a crash-point / fault boundary."""
        self._enter("mkdir", path, writer)
        super().mkdir(path, writer=writer)

    def write_bytes(
        self, path: pathlib.Path, data: bytes, *, writer: str = ""
    ) -> None:
        """Write ``data``; volatile until :meth:`fsync_file`."""
        try:
            self._enter("write_bytes", path, writer)
        except _TornWrite as torn:
            # Persist a seeded partial prefix -- the bytes a dying
            # process actually got out -- then crash.
            rng = self._rng("torn", torn.fault_index, torn.firing)
            cut = rng.randrange(0, len(data)) if data else 0
            super().write_bytes(path, data[:cut], writer=writer)
            raise SimulatedCrash(
                f"injected torn write ({cut}/{len(data)} bytes) at {path}"
            ) from None
        super().write_bytes(path, data, writer=writer)
        self._unsynced_data[str(path)] = False

    def fsync_file(self, path: pathlib.Path, *, writer: str = "") -> None:
        """Settle ``path``'s data against crash images."""
        self._enter("fsync_file", path, writer)
        super().fsync_file(path, writer=writer)
        self._unsynced_data.pop(str(path), None)

    def replace(
        self, src: pathlib.Path, dst: pathlib.Path, *, writer: str = ""
    ) -> None:
        """Publish ``src`` at ``dst``; volatile until :meth:`fsync_dir`."""
        self._enter("replace", dst, writer)
        pre: Optional[bytes]
        try:
            pre = dst.read_bytes()
        except OSError:
            pre = None
        data_synced = str(src) not in self._unsynced_data
        super().replace(src, dst, writer=writer)
        self._unsynced_data.pop(str(src), None)
        if not data_synced:
            self._unsynced_data[str(dst)] = False
        self._volatile_renames.append(
            {
                "src": str(src),
                "dst": str(dst),
                "pre": pre,
                "data_synced": data_synced,
            }
        )

    def fsync_dir(self, path: pathlib.Path, *, writer: str = "") -> None:
        """Settle renames under ``path`` against crash images."""
        self._enter("fsync_dir", path, writer)
        super().fsync_dir(path, writer=writer)
        settled = str(path)
        kept = []
        for record in self._volatile_renames:
            if str(pathlib.PurePath(record["dst"]).parent) == settled:
                continue
            kept.append(record)
        self._volatile_renames = kept

    def unlink(self, path: pathlib.Path, *, writer: str = "") -> None:
        """Remove ``path``; a crash-point / fault boundary."""
        self._enter("unlink", path, writer)
        super().unlink(path, writer=writer)
        self._unsynced_data.pop(str(path), None)
        self._volatile_renames = [
            record
            for record in self._volatile_renames
            if record["dst"] != str(path)
        ]

    def read_bytes(self, path: pathlib.Path, *, writer: str = "") -> bytes:
        """Read an entry, damaged first if a read fault targets it.

        Not an op of the stream: no crash point, and only
        ``op="read_bytes"`` faults match.  A read that raises (a cold
        miss) never gets as far as counting.
        """
        data = super().read_bytes(path, writer=writer)
        for index, fault, match, _ in self._firing("read_bytes", writer):
            if not data:
                continue
            # The plan-level store seed (docs/robustness.md), not
            # _rng's "chaosfs:" scope: golden streams depend on it.
            rng = random.Random(f"chaos:{self.seed}:store:{index}")
            data = corrupt_entry_bytes(data, fault.kind, rng)
            path.write_bytes(data)
            self.failures.append(
                FailureRecord(
                    unit=match,
                    attempt=0,
                    kind="corrupt",
                    detail=(
                        f"injected {fault.kind} into entry {path.stem[:12]}"
                    ),
                )
            )
        return data

    # ------------------------------------------------------------------
    # Crash images
    # ------------------------------------------------------------------

    def apply_crash_image(self, mode: str) -> bool:
        """Rewrite the tree into the post-crash state ``mode`` describes.

        Call after catching :class:`SimulatedCrash` and before
        'restarting' against the surviving directory tree.  Returns
        whether anything on disk changed -- ``False`` means the image
        is indistinguishable from ``"flush"`` (everything relevant had
        been fsynced), so re-asserting recovery for it is redundant.
        """
        if mode not in CRASH_IMAGE_MODES:
            raise ValueError(
                f"unknown crash image mode {mode!r}; expected one of "
                f"{CRASH_IMAGE_MODES}"
            )
        if mode == "flush":
            return False
        changed = False
        rng = self._rng("image", mode, len(self.ops))
        if mode == "lose-volatile":
            # Undo un-fsynced renames newest-first: the destination
            # regains its pre-image and the staged bytes reappear at the
            # source -- torn, when the data itself was never synced.
            for record in reversed(self._volatile_renames):
                dst = pathlib.Path(record["dst"])
                src = pathlib.Path(record["src"])
                try:
                    moved = dst.read_bytes()
                except OSError:
                    continue
                self._unsynced_data.pop(record["dst"], None)
                if record["pre"] is None:
                    dst.unlink(missing_ok=True)
                else:
                    dst.write_bytes(record["pre"])
                if not record["data_synced"] and moved:
                    moved = moved[: rng.randrange(0, len(moved))]
                src.write_bytes(moved)
                changed = True
            self._volatile_renames = []
        # Both adversarial images tear whatever un-fsynced data remains
        # in place -- staged files a crash caught mid-write under
        # lose-volatile, published-but-unsynced entries under
        # torn-publish (metadata reached disk before the data).
        for path_str in sorted(self._unsynced_data):
            path = pathlib.Path(path_str)
            try:
                data = path.read_bytes()
            except OSError:
                continue
            if not data:
                continue
            path.write_bytes(data[: rng.randrange(0, len(data))])
            changed = True
        self._unsynced_data = {}
        return changed


class _TornWrite(Exception):
    """Internal signal from fault matching to the write op (never
    escapes :meth:`ChaosVFS.write_bytes`)."""

    def __init__(self, fault_index: int, firing: int) -> None:
        super().__init__(fault_index, firing)
        self.fault_index = fault_index
        self.firing = firing


def corrupt_entry_bytes(data: bytes, kind: str, rng: random.Random) -> bytes:
    """``data`` (a stored entry's bytes) damaged by ``kind``.

    ``bit_flip`` flips one bit at an ``rng``-chosen offset inside the
    checksummed region (at or after the ``"spec"`` key, so the flip can
    never land in provenance metadata the checksum ignores);
    ``truncate`` cuts at the midpoint; ``stale_salt`` rewrites the
    recorded salt (checksum and spec-digest validation must catch the
    lie); ``unreadable`` replaces the head with bytes that do not
    decode as UTF-8.
    """
    if kind == "truncate":
        return data[: len(data) // 2]
    if kind == "unreadable":
        return b"\xff\xfe" + data[:32]
    if kind == "stale_salt":
        try:
            payload = json.loads(data.decode("utf-8"))
            payload["salt"] = str(payload.get("salt", "")) + "-tampered"
        except ValueError:
            # Already unparsable (double-faulted entry): truncate instead.
            return data[: len(data) // 2]
        return json.dumps(
            payload, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    # bit_flip
    anchor = data.find(b'"spec"')
    start = anchor if 0 <= anchor < len(data) else len(data) // 2
    offset = rng.randrange(start, len(data))
    flipped = data[offset] ^ (1 << rng.randrange(8))
    return data[:offset] + bytes([flipped]) + data[offset + 1:]


def chaos_vfs_for_plan(plan: FaultPlan) -> Optional[ChaosVFS]:
    """The :class:`ChaosVFS` a plan's ``fs`` layer calls for, if any."""
    if not plan.fs:
        return None
    return ChaosVFS(plan.fs, seed=plan.seed)
