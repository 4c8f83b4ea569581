"""Content-addressed, persistent storage of run results.

A :class:`RunStore` keys :class:`~repro.sim.metrics.RunResult` records by
:func:`~repro.sim.spec.spec_digest` -- a sha256 of the spec's canonical
JSON mixed with a code-version salt -- and persists them on disk, one
JSON document per digest.  Because specs are pure data and execution is
deterministic, a stored result *is* the run: sweeps and campaigns that
route their grids through a store recompute a spec at most once per
code revision, across process boundaries and across
invocations.  An interrupted campaign that stored half its runs resumes
by recomputing only the other half.

Layout (``layout v1``)::

    <root>/v1/<digest[:2]>/<digest>.json        one entry per stored run
    <root>/v1/<digest[:2]>/<...>.json.tomb      gc tombstone (mid-delete)
    <root>/tmp/                                 staging area for writes
    <root>/quarantine/<digest>.json             entries that failed integrity

Each entry carries the digest, the salt, the full spec, the full result
(:func:`~repro.sim.traceio.run_result_to_dict`), the wall-clock seconds
the original execution took, a creation timestamp, and a sha256
``checksum`` over the content-bearing fields (digest, salt, spec,
result).  The read path re-derives that checksum on every hit: an entry
that fails to parse, whose checksum mismatches, or whose digest does not
match its address is *quarantined* (moved to ``<root>/quarantine/``,
preserving the evidence), counted in ``corrupt_entries``, and treated as
a miss -- the spec is recomputed and the fresh write repairs the store,
so a corrupt entry can never serve a wrong result.  :meth:`RunStore.verify`
runs the same integrity checks over the whole store offline.

**Write path and durability.**  Writes are staged in ``<root>/tmp`` and
published with ``os.replace``, which is atomic on POSIX: any number of
processes -- including the worker processes of a
:class:`~repro.sim.runner.ProcessPoolRunner` sharing one store -- may
read and write concurrently without torn entries.  Racing writers of the
same digest produce identical content, so last-writer-wins is lossless.
Two ``durability`` modes govern what a *system* crash (power loss, not
just a killed process) may take with it:

* ``"fast"`` (default) -- no fsync.  A crash can lose recently published
  entries (a lost rename is just a cache miss) or, on filesystems that
  persist the rename before the data, leave a *torn* published entry --
  which the checksum validation detects and quarantines on first read.
* ``"strict"`` -- fsync the staged file before ``os.replace`` and fsync
  the parent directory after it.  A published entry is durable the
  moment ``put`` returns; torn published entries are impossible.

Every filesystem mutation, and the entry read of :meth:`RunStore.get`,
goes through a :class:`VirtualFS`, a named-op surface
(:mod:`repro.chaos.fs` substitutes a fault-injecting one), and is tagged
with the owning store's ``writer`` address, so a chaos plan can target
e.g. the parent-side :class:`CachingRunner` write path specifically.
:meth:`RunStore.recover` sweeps crash debris -- stale ``tmp/`` staging
files and leftover gc tombstones; the stale-tmp sweep also runs lazily
on a store's first write.  :meth:`RunStore.gc` deletes in two phases
(rename to ``*.tomb``, then unlink) so a crash mid-gc never races a
concurrent writer republishing the same digest.

:class:`CachingRunner` is the read-through/write-through adapter: it
wraps any :class:`~repro.sim.runner.Runner` backend, serves hits from
the store, executes only the misses, and writes those back.  A failed
write-back (``ENOSPC``, ``EIO``) degrades gracefully: the computed
result is still returned and the fault is surfaced as a structured
``io`` failure record instead of aborting the campaign.  Explicit
:meth:`RunStore.invalidate`, :meth:`RunStore.gc` and
:meth:`RunStore.stats` operations complete the cache lifecycle; the CLI
exposes them as ``repro-dispersion cache stats|gc|clear``.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.sim.metrics import RunResult
from repro.sim.runner import Runner
from repro.sim.spec import (
    CODE_VERSION_SALT,
    RunSpec,
    canonical_json,
    spec_digest,
)
from repro.sim.traceio import run_result_from_dict, run_result_to_dict

LAYOUT_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The write-path durability modes a :class:`RunStore` supports.
DURABILITY_MODES = ("fast", "strict")

#: How old (seconds) an orphaned ``tmp/`` staging file must be before
#: the recovery sweep reclaims it.  Anything younger is presumed to
#: belong to a live concurrent writer.
STALE_TMP_GRACE_SECONDS = 3600.0

#: Per-process serial for unique staging names (uniqueness only; the
#: name never influences any stored content).
_TMP_SERIAL = itertools.count()

#: An injectable wall-clock (provenance timestamps only, never digest
#: inputs); tests substitute skewed clocks to prove age arithmetic
#: tolerates non-monotonic time.
Clock = Callable[[], float]


class VirtualFS:
    """The syscall surface of a store mutation, as named, addressable ops.

    Every way a :class:`RunStore` touches the filesystem -- staging
    writes, fsyncs, atomic publishes, directory syncs, unlinks, mkdirs
    -- is routed through one of these methods, each tagged with the
    owning store's ``writer`` address.  The base class simply performs
    the real operation; :class:`repro.chaos.fs.ChaosVFS` overrides it to
    inject torn writes, ``EIO``/``ENOSPC``, lost renames and
    crash-points at any op boundary, which is what makes the write path
    an enumerable *op stream* rather than opaque side effects.  The
    entry read of :meth:`RunStore.get` (:meth:`read_bytes`) goes
    through the same instance, so store corruption is injected there
    too, but reads never enter the op stream.
    """

    def mkdir(self, path: pathlib.Path, *, writer: str = "") -> None:
        """Create ``path`` (and parents); a no-op if it exists."""
        os.makedirs(path, exist_ok=True)

    def write_bytes(
        self, path: pathlib.Path, data: bytes, *, writer: str = ""
    ) -> None:
        """Write ``data`` to ``path`` (create or truncate)."""
        with open(path, "wb") as handle:
            handle.write(data)

    def fsync_file(self, path: pathlib.Path, *, writer: str = "") -> None:
        """Flush ``path``'s data to stable storage."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(
        self, src: pathlib.Path, dst: pathlib.Path, *, writer: str = ""
    ) -> None:
        """Atomically publish ``src`` at ``dst`` (``os.replace``)."""
        os.replace(src, dst)

    def fsync_dir(self, path: pathlib.Path, *, writer: str = "") -> None:
        """Flush the directory entry updates under ``path``."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def unlink(self, path: pathlib.Path, *, writer: str = "") -> None:
        """Remove ``path``."""
        os.unlink(path)

    def read_bytes(self, path: pathlib.Path, *, writer: str = "") -> bytes:
        """Read ``path`` whole (the entry read of :meth:`RunStore.get`)."""
        return path.read_bytes()


#: The shared pass-through instance every un-instrumented store uses.
_REAL_FS = VirtualFS()


def default_cache_dir() -> pathlib.Path:
    """The cache root used when none is given explicitly.

    ``$REPRO_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro-dispersion``,
    else ``~/.cache/repro-dispersion``.
    """
    # Cache *location* discovery only: where entries live cannot reach a
    # digest or a stored result, so the environment read is safe here.
    env = os.environ.get(CACHE_DIR_ENV)  # reprolint: disable=D003
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")  # reprolint: disable=D003
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-dispersion"


def _json_object(members: Mapping[str, str]) -> str:
    """A compact JSON object, keys sorted, from already-encoded values.

    The same bytes as ``json.dumps`` of the decoded object with
    ``separators=(",", ":")`` and ``sort_keys=True``, given values so
    encoded.  Names are this module's plain field names, which need no
    escaping.
    """
    return "{" + ",".join(
        f'"{name}":{text}' for name, text in sorted(members.items())
    ) + "}"


def _checksum(digest: str, salt: str, spec_json: str, result_json: str) -> str:
    """:func:`entry_checksum` over the spec's and result's canonical JSON."""
    preimage = _json_object({
        "digest": canonical_json(digest),
        "salt": canonical_json(salt),
        "spec": spec_json,
        "result": result_json,
    })
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


def entry_checksum(
    digest: str,
    salt: str,
    spec: Mapping[str, Any],
    result: Mapping[str, Any],
) -> str:
    """The integrity checksum of one store entry's content fields.

    A sha256 over the canonical JSON of the content-bearing fields only:
    provenance metadata (``created_at``, ``seconds``, ``label``) is
    excluded so equal results always carry equal checksums, mirroring how
    :func:`~repro.sim.spec.spec_digest` excludes the display label.
    """
    return _checksum(
        digest, salt, canonical_json(dict(spec)), canonical_json(dict(result))
    )


@dataclass(frozen=True)
class StoreEntry:
    """Metadata of one stored run (the payload stays on disk)."""

    digest: str
    salt: str
    label: str
    seconds: Optional[float]
    created_at: float
    size_bytes: int
    path: pathlib.Path


@dataclass
class StoreStats:
    """A point-in-time view of a store plus this session's counters."""

    entries: int
    size_bytes: int
    hits: int
    misses: int
    writes: int
    root: str
    corrupt_entries: int = 0
    quarantine_entries: int = 0
    quarantine_bytes: int = 0
    tmp_files: int = 0
    stale_tmp_removed: int = 0
    tombstones_swept: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (what ``cache stats --json`` emits)."""
        return {
            "kind": "run_store_stats",
            "root": self.root,
            "entries": self.entries,
            "size_bytes": self.size_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_entries": self.corrupt_entries,
            "quarantine_entries": self.quarantine_entries,
            "quarantine_bytes": self.quarantine_bytes,
            "tmp_files": self.tmp_files,
            "stale_tmp_removed": self.stale_tmp_removed,
            "tombstones_swept": self.tombstones_swept,
        }

    def render(self) -> str:
        """One human-readable line per field."""
        return (
            f"store {self.root}\n"
            f"  entries {self.entries}, {self.size_bytes} bytes\n"
            f"  quarantine: {self.quarantine_entries} entries, "
            f"{self.quarantine_bytes} bytes\n"
            f"  staging: {self.tmp_files} tmp files "
            f"({self.stale_tmp_removed} stale removed, "
            f"{self.tombstones_swept} tombstones swept)\n"
            f"  session: {self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.corrupt_entries} corrupt"
        )


@dataclass
class VerifyReport:
    """The outcome of one :meth:`RunStore.verify` integrity scan."""

    checked: int = 0
    ok: int = 0
    corrupt: List[Dict[str, str]] = field(default_factory=list)
    quarantined: int = 0
    quarantine_entries: int = 0
    quarantine_bytes: int = 0

    @property
    def clean(self) -> bool:
        """Whether every checked entry passed integrity validation."""
        return not self.corrupt

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (what ``cache verify --json`` emits)."""
        return {
            "kind": "run_store_verify",
            "checked": self.checked,
            "ok": self.ok,
            "corrupt": list(self.corrupt),
            "quarantined": self.quarantined,
            "quarantine_entries": self.quarantine_entries,
            "quarantine_bytes": self.quarantine_bytes,
            "clean": self.clean,
        }

    def render(self) -> str:
        """A summary line plus one line per corrupt entry."""
        lines = [
            f"verify: {self.checked} entries checked, {self.ok} ok, "
            f"{len(self.corrupt)} corrupt, {self.quarantined} quarantined; "
            f"quarantine holds {self.quarantine_entries} entries, "
            f"{self.quarantine_bytes} bytes"
        ]
        for item in self.corrupt:
            lines.append(
                f"  corrupt {item['digest'][:12]}...: {item['reason']}"
            )
        return "\n".join(lines)


class RunStore:
    """Content-addressed on-disk cache of spec -> result.

    ``root`` is the cache directory (created lazily on first write;
    default :func:`default_cache_dir`).  ``salt`` is the code-version
    salt mixed into every digest (default
    :data:`~repro.sim.spec.CODE_VERSION_SALT`); bumping it makes every
    previously stored entry unreachable -- the library-wide invalidation
    lever -- while :meth:`gc` can reclaim the orphaned bytes.

    ``durability`` selects the write-path crash guarantee (``"fast"`` or
    ``"strict"``, see the module docstring).  ``vfs`` substitutes the
    :class:`VirtualFS` every filesystem mutation and the entry read of
    :meth:`get` route through (chaos injection); ``writer`` is the
    address tag those ops carry (:class:`CachingRunner` tags its store
    ``"parent"``, pool workers tag theirs ``"worker"``).  ``clock`` is
    the provenance timestamp source (default ``time.time``); it feeds
    ``created_at`` and age arithmetic only, never a digest, and all age
    checks tolerate a non-monotonic clock (an mtime in the future reads
    as age zero).

    Session counters (``hits`` / ``misses`` / ``writes`` /
    ``stale_tmp_removed`` / ``tombstones_swept``) accumulate per store
    instance; :meth:`stats` combines them with a disk scan.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike, None] = None,
        *,
        salt: str = CODE_VERSION_SALT,
        durability: str = "fast",
        vfs: Optional[VirtualFS] = None,
        writer: str = "",
        clock: Optional[Clock] = None,
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.salt = salt
        self.durability = durability
        self.vfs = vfs if vfs is not None else _REAL_FS
        self.writer = writer
        # Reference only, never called here: created_at is provenance
        # metadata and the injection point is what the skew tests drive.
        self._clock: Clock = clock if clock is not None else time.time
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.stale_tmp_removed = 0
        self.tombstones_swept = 0
        self._recovered = False

    def __repr__(self) -> str:
        return (
            f"RunStore({str(self.root)!r}, salt={self.salt!r}, "
            f"durability={self.durability!r})"
        )

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @property
    def _objects(self) -> pathlib.Path:
        return self.root / f"v{LAYOUT_VERSION}"

    @property
    def staging_dir(self) -> pathlib.Path:
        """Where in-flight writes are staged before publication."""
        return self.root / "tmp"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        """Where entries that fail integrity validation are moved."""
        return self.root / "quarantine"

    def digest(self, spec: RunSpec) -> str:
        """The content address of ``spec`` under this store's salt."""
        return spec_digest(spec, salt=self.salt)

    def path_for(self, digest: str) -> pathlib.Path:
        """Where the entry for ``digest`` lives (whether or not it exists)."""
        return self._objects / digest[:2] / f"{digest}.json"

    def same_target(self, other: "RunStore") -> bool:
        """Whether ``other`` addresses the same on-disk entries."""
        return self.root == other.root and self.salt == other.salt

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def _check_integrity(self, digest: str, payload: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` unless ``payload`` is a sound entry for
        ``digest`` (right kind, address matches, checksum re-derives)."""
        if payload.get("kind") != "run_store_entry":
            raise ValueError("not a run_store_entry")
        if payload.get("digest") != digest:
            raise ValueError("entry digest does not match its address")
        expected = entry_checksum(
            digest,
            str(payload.get("salt", "")),
            payload["spec"],
            payload["result"],
        )
        if payload.get("checksum") != expected:
            raise ValueError("payload checksum mismatch")

    def _quarantine(self, path: pathlib.Path) -> bool:
        """Move a corrupt entry aside (preserving the evidence); True on
        success, False if it could not be moved *or* removed."""
        target = self.quarantine_dir / path.name
        try:
            self.vfs.mkdir(self.quarantine_dir, writer=self.writer)
            self.vfs.replace(path, target, writer=self.writer)
            return True
        except OSError:
            try:
                self.vfs.unlink(path, writer=self.writer)
                return True
            except OSError:
                return False

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The stored result for ``spec``, or ``None`` on a miss.

        A hit reconstructs a :class:`RunResult` equal, field for field,
        to the one originally stored.  An entry that fails integrity
        validation (does not parse, wrong kind, digest/address mismatch,
        checksum mismatch) is counted in :attr:`corrupt`, quarantined to
        ``<root>/quarantine/`` and treated as a miss -- the caller
        recomputes and the fresh :meth:`put` repairs the store, so a
        corrupt entry can never serve a wrong result.
        """
        digest = self.digest(spec)
        path = self.path_for(digest)
        try:
            raw = self.vfs.read_bytes(path, writer=self.writer)
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
            self._check_integrity(digest, payload)
            result = run_result_from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            # Corrupt entry (bit rot, a torn write published by a crash
            # under durability="fast", or injected tampering): surface
            # it in the corrupt counter, keep the bytes for diagnosis,
            # recompute.
            self.corrupt += 1
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def put(
        self,
        spec: RunSpec,
        result: RunResult,
        *,
        seconds: Optional[float] = None,
    ) -> str:
        """Persist ``result`` under ``spec``'s digest; returns the digest.

        The write is atomic (staged in ``<root>/tmp`` and published via
        ``os.replace``), so concurrent readers and writers -- including
        pool workers sharing the store -- never observe a torn entry.
        Under ``durability="strict"`` the staged file is fsynced before
        publication and the parent directory after it, making the entry
        durable against system crashes, not just process deaths.  The
        first write of a store instance also sweeps stale ``tmp/``
        staging debris left by crashed earlier writers.
        """
        digest = self.digest(spec)
        path = self.path_for(digest)
        if not self._recovered:
            self.recover(sweep_tombstones=False)
        spec_dict = spec.to_dict()
        # The result is encoded once: its canonical JSON is both the
        # checksum's pre-image part and the entry's "result" member.
        result_json = canonical_json(run_result_to_dict(result))
        fields = {
            "kind": "run_store_entry",
            "layout_version": LAYOUT_VERSION,
            "digest": digest,
            "salt": self.salt,
            "label": spec.label,
            # Provenance metadata only: created_at orders entries for
            # gc eviction and is never part of the digest pre-image or
            # the reconstructed RunResult, so the (injectable) clock
            # read cannot leak into any content-addressed key.
            "created_at": self._clock(),
            "seconds": seconds,
            # Integrity checksum over the content-bearing fields only
            # (provenance excluded), re-derived by every read.
            "checksum": _checksum(
                digest, self.salt, canonical_json(spec_dict), result_json
            ),
            "spec": spec_dict,
        }
        members = {
            name: json.dumps(value, separators=(",", ":"), sort_keys=True)
            for name, value in fields.items()
        }
        members["result"] = result_json
        data = _json_object(members)
        vfs = self.vfs
        vfs.mkdir(path.parent, writer=self.writer)
        vfs.mkdir(self.staging_dir, writer=self.writer)
        # Unique per process+serial; the name never reaches any content.
        tmp = self.staging_dir / (
            f"{digest[:8]}.{os.getpid()}.{next(_TMP_SERIAL)}.json"
        )
        try:
            vfs.write_bytes(tmp, data.encode("utf-8"), writer=self.writer)
            if self.durability == "strict":
                vfs.fsync_file(tmp, writer=self.writer)
            vfs.replace(tmp, path, writer=self.writer)
            if self.durability == "strict":
                vfs.fsync_dir(path.parent, writer=self.writer)
        except BaseException as error:
            # A *simulated* crash must leave the staging debris a real
            # crash would -- that torn tmp file is exactly what the
            # recovery sweep exists to reclaim.
            if not getattr(error, "simulated_crash", False):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise
        self.writes += 1
        return digest

    def __contains__(self, spec: RunSpec) -> bool:
        """Whether ``spec`` has a stored entry (no counters touched)."""
        return self.path_for(self.digest(spec)).exists()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(
        self,
        *,
        stale_tmp_seconds: float = STALE_TMP_GRACE_SECONDS,
        sweep_tombstones: bool = True,
    ) -> Dict[str, int]:
        """Sweep crash debris; returns per-category removal counts.

        Two kinds of debris survive an interrupted process:

        * **stale staging files** -- a writer that died between staging
          and publishing leaves a (possibly torn) file in ``tmp/``.
          Files older than ``stale_tmp_seconds`` are reclaimed; younger
          ones are presumed to belong to live concurrent writers.  Age
          is clamped at zero, so a skewed clock that stamps files in
          the future can never make a fresh write look ancient.
        * **gc tombstones** -- a :meth:`gc` that died between its mark
          and sweep phases leaves ``*.json.tomb`` files.  A tombstone is
          a committed deletion (readers already cannot see it), so the
          sweep simply finishes the unlink.

        Runs implicitly before a store instance's first write (staging
        sweep only) and at the start of every :meth:`gc`; the CLI
        surfaces the counts via ``cache stats`` / ``cache gc``.
        """
        self._recovered = True
        swept_tmp = 0
        swept_tombs = 0
        if self.staging_dir.is_dir():
            now = self._clock()
            for leftover in sorted(self.staging_dir.iterdir()):
                try:
                    age = now - leftover.stat().st_mtime
                except OSError:
                    continue
                if max(age, 0.0) < stale_tmp_seconds:
                    continue
                try:
                    self.vfs.unlink(leftover, writer=self.writer)
                    swept_tmp += 1
                except OSError:
                    continue
        if sweep_tombstones and self._objects.is_dir():
            for tomb in sorted(self._objects.glob("*/*.json.tomb")):
                try:
                    self.vfs.unlink(tomb, writer=self.writer)
                    swept_tombs += 1
                except OSError:
                    continue
        self.stale_tmp_removed += swept_tmp
        self.tombstones_swept += swept_tombs
        return {
            "stale_tmp_removed": swept_tmp,
            "tombstones_swept": swept_tombs,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[StoreEntry]:
        """Iterate the metadata of every stored entry (any salt)."""
        if not self._objects.is_dir():
            return
        for path in sorted(self._objects.glob("*/*.json")):
            try:
                payload = json.loads(path.read_text())
                stat = path.stat()
            except (OSError, ValueError):
                continue
            if payload.get("kind") != "run_store_entry":
                continue
            yield StoreEntry(
                digest=str(payload.get("digest", path.stem)),
                salt=str(payload.get("salt", "")),
                label=str(payload.get("label", "")),
                seconds=payload.get("seconds"),
                created_at=float(payload.get("created_at", 0.0)),
                size_bytes=stat.st_size,
                path=path,
            )

    def staging_usage(self) -> int:
        """How many in-flight (or orphaned) files ``tmp/`` holds."""
        if not self.staging_dir.is_dir():
            return 0
        count = 0
        for path in self.staging_dir.iterdir():
            count += 1
        return count

    def quarantine_usage(self) -> Dict[str, int]:
        """Entry count and total bytes currently held in quarantine."""
        entries = 0
        size = 0
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.glob("*.json")):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {"entries": entries, "bytes": size}

    def purge_quarantine(self, *, older_than_days: float = 0.0) -> int:
        """Delete quarantined entries older than ``older_than_days``.

        Quarantined files exist only as diagnostic evidence; once old
        enough to be uninteresting they are reclaimable.  ``0`` purges
        everything.  Returns the number of files removed.  A skewed
        clock cannot over-purge: an mtime in the future reads as age
        zero, which only ever keeps evidence longer.
        """
        if older_than_days < 0:
            raise ValueError(
                f"older_than_days must be >= 0, got {older_than_days}"
            )
        if not self.quarantine_dir.is_dir():
            return 0
        # Age is judged against the (injectable) wall clock on purpose:
        # quarantine timestamps are filesystem provenance, never digest
        # inputs.
        now = self._clock()
        removed = 0
        for path in sorted(self.quarantine_dir.glob("*.json")):
            try:
                age = max(now - path.stat().st_mtime, 0.0)
                if age >= older_than_days * 86400.0:
                    self.vfs.unlink(path, writer=self.writer)
                    removed += 1
            except OSError:
                continue
        return removed

    def invalidate(self, spec: RunSpec) -> bool:
        """Drop ``spec``'s entry; returns whether one existed."""
        path = self.path_for(self.digest(spec))
        try:
            self.vfs.unlink(path, writer=self.writer)
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Drop every entry (any salt); returns the number removed."""
        removed = 0
        for entry in list(self.entries()):
            try:
                self.vfs.unlink(entry.path, writer=self.writer)
                removed += 1
            except OSError:
                pass
        return removed

    def gc(
        self,
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        drop_stale: bool = True,
        purge_quarantine_days: Optional[float] = None,
    ) -> Dict[str, int]:
        """Reclaim disk space; returns removed/kept/unlink-error counts.

        ``drop_stale`` removes entries written under a different salt
        (unreachable since the salt bump).  ``max_entries`` /
        ``max_bytes`` then evict oldest-first until the survivors fit
        both budgets (a non-monotonic ``created_at`` ordering is
        tolerated -- eviction order is simply the sorted timestamps,
        however skewed).

        Deletion is **two-phase** so compaction is safe under
        concurrent writers and crashes: every victim is first *marked*
        by an atomic rename to ``<entry>.json.tomb`` (phase one), then
        the tombstones are unlinked (phase two).  A writer republishing
        a victim digest mid-gc creates a fresh file at the original
        path, which the tombstone sweep never touches -- the new entry
        survives.  A crash between the phases leaves only tombstones,
        which are invisible to readers and reclaimed by
        :meth:`recover` (which also runs first, so debris from a
        previously crashed gc is finished here).

        ``unlink_errors`` counts victims whose *mark* rename failed
        with ``OSError`` (the entry is left in place and still counted
        as kept) -- surfaced rather than swallowed, so a permission
        problem in a shared cache is visible.
        ``purge_quarantine_days`` additionally deletes quarantined
        entries at least that many days old (``0`` purges all), counted
        separately under ``quarantine_purged``.
        """
        recovered = self.recover()
        quarantine_purged = 0
        if purge_quarantine_days is not None:
            quarantine_purged = self.purge_quarantine(
                older_than_days=purge_quarantine_days
            )
        live: List[StoreEntry] = []
        victims: List[StoreEntry] = []
        for entry in self.entries():
            if drop_stale and entry.salt != self.salt:
                victims.append(entry)
                continue
            live.append(entry)
        live.sort(key=lambda e: e.created_at)
        total_bytes = sum(e.size_bytes for e in live)
        while live and (
            (max_entries is not None and len(live) > max_entries)
            or (max_bytes is not None and total_bytes > max_bytes)
        ):
            victim = live.pop(0)
            victims.append(victim)
            total_bytes -= victim.size_bytes
        # Phase one: mark every victim with an atomic tombstone rename.
        # From this point each marked entry is invisible to readers; a
        # concurrent writer republishing the digest lands at the
        # original path, untouched by phase two.
        removed = 0
        unlink_errors = 0
        stuck: List[StoreEntry] = []
        tombs: List[pathlib.Path] = []
        for victim in victims:
            tomb = victim.path.with_name(victim.path.name + ".tomb")
            try:
                self.vfs.replace(victim.path, tomb, writer=self.writer)
            except OSError:
                unlink_errors += 1
                stuck.append(victim)
                continue
            removed += 1
            tombs.append(tomb)
        # Phase two: sweep the tombstones.  A failure here is already a
        # committed deletion -- recover() finishes it later.
        for tomb in tombs:
            try:
                self.vfs.unlink(tomb, writer=self.writer)
            except OSError:
                continue
        return {
            "removed": removed,
            "kept": len(live) + len(stuck),
            "unlink_errors": unlink_errors,
            "quarantine_purged": quarantine_purged,
            "stale_tmp_removed": recovered["stale_tmp_removed"],
            "tombstones_swept": recovered["tombstones_swept"],
        }

    def stats(self) -> StoreStats:
        """Disk usage plus this session's hit/miss/write counters."""
        entries = 0
        size = 0
        for entry in self.entries():
            entries += 1
            size += entry.size_bytes
        quarantine = self.quarantine_usage()
        return StoreStats(
            entries=entries,
            size_bytes=size,
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            root=str(self.root),
            corrupt_entries=self.corrupt,
            quarantine_entries=quarantine["entries"],
            quarantine_bytes=quarantine["bytes"],
            tmp_files=self.staging_usage(),
            stale_tmp_removed=self.stale_tmp_removed,
            tombstones_swept=self.tombstones_swept,
        )

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def _verify_entry(self, path: pathlib.Path) -> Optional[str]:
        """Why the entry at ``path`` is corrupt, or ``None`` if sound."""
        try:
            raw = path.read_bytes()
        except OSError as error:
            return f"unreadable: {type(error).__name__}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            return "does not decode as JSON"
        try:
            self._check_integrity(path.stem, payload)
        except (ValueError, KeyError, TypeError) as error:
            return str(error) or type(error).__name__
        # Deep check: the stored spec must hash back to the address under
        # the recorded salt, so a tampered salt or spec cannot hide
        # behind a recomputed checksum.
        try:
            spec = RunSpec.from_dict(payload["spec"])
            derived = spec_digest(spec, salt=str(payload.get("salt", "")))
        except (ValueError, KeyError, TypeError) as error:
            return f"stored spec does not reconstruct: {error}"
        if derived != path.stem:
            return "stored spec does not hash to the entry address"
        return None

    def verify(self, *, quarantine: bool = False) -> VerifyReport:
        """Scan every entry (any salt) and validate its integrity.

        Checks, per entry: JSON decodes, kind marker, digest matches the
        file's address, the sha256 payload checksum re-derives, and the
        stored spec hashes back to the address under its recorded salt.
        With ``quarantine=True`` corrupt entries are moved to
        ``<root>/quarantine/`` so the next read recomputes them; the
        report lists each corrupt entry with its reason either way.
        """
        report = VerifyReport()
        if self._objects.is_dir():
            for path in sorted(self._objects.glob("*/*.json")):
                report.checked += 1
                reason = self._verify_entry(path)
                if reason is None:
                    report.ok += 1
                    continue
                report.corrupt.append(
                    {"digest": path.stem, "path": str(path), "reason": reason}
                )
                if quarantine and self._quarantine(path):
                    report.quarantined += 1
        # Snapshot quarantine usage after the scan, so entries this very
        # call moved aside are included in the reported holdings.
        usage = self.quarantine_usage()
        report.quarantine_entries = usage["entries"]
        report.quarantine_bytes = usage["bytes"]
        return report


def execute_through_store(
    spec: RunSpec,
    root: Union[str, os.PathLike],
    salt: str = CODE_VERSION_SALT,
    durability: str = "fast",
) -> RunResult:
    """Hit-or-execute-and-store one spec against the store at ``root``.

    A module-level pure function of its arguments, hence picklable: this
    is the task :class:`~repro.sim.runner.ProcessPoolRunner` dispatches
    when it carries a store, which is what lets every worker process
    read and write-through one shared cache directly.  Worker-side
    store ops are tagged ``writer="worker"``, distinguishing them from
    the parent-side :class:`CachingRunner` write path.
    """
    from repro.sim.spec import execute

    store = RunStore(root, salt=salt, durability=durability, writer="worker")
    cached = store.get(spec)
    if cached is not None:
        return cached
    t0 = time.perf_counter()
    result = execute(spec)
    store.put(spec, result, seconds=time.perf_counter() - t0)
    return result


class CachingRunner(Runner):
    """Read-through / write-through cache around any runner backend.

    Hits are served from ``store`` without touching the backend; misses
    are executed through it (in spec order relative to each other) and
    written back.  Results come back in spec order, equal to what the
    bare backend would have produced -- caching is semantically
    invisible.  If the wrapped backend already writes through the same
    store (a :class:`~repro.sim.runner.ProcessPoolRunner` constructed
    with ``store=``), the duplicate parent-side write is skipped.

    The wrapped store's filesystem ops are tagged ``writer="parent"``
    (unless already tagged), which is the address a
    :class:`~repro.chaos.plan.FsFault` uses to target this write path
    specifically.  A write-back that fails with ``OSError`` (``ENOSPC``,
    ``EIO``) degrades gracefully: the freshly computed result is still
    returned, the write is skipped, and a structured ``io``
    :class:`~repro.chaos.failures.FailureRecord` is appended to
    :attr:`failures` (surfaced by campaign reports via the duck-typed
    ``failure_records`` protocol).
    """

    name = "caching"

    def __init__(self, inner: Runner, store: RunStore) -> None:
        self.inner = inner
        self.store = store
        if not store.writer:
            store.writer = "parent"
        self.failures: List[Any] = []
        self._spec_base = 0
        self.name = f"caching[{inner.name}]"

    def _record_write_failure(self, unit: int, error: OSError) -> None:
        """Append a deterministic ``io`` failure record for a skipped
        write-back (errno name only -- paths carry nondeterministic
        staging serials)."""
        # Imported lazily: repro.chaos depends on this module, so a
        # top-level import would be circular; by the time a write can
        # fail, both packages are importable.
        from repro.chaos.failures import FailureRecord

        code = errno.errorcode.get(error.errno or 0, type(error).__name__)
        self.failures.append(
            FailureRecord(
                unit=unit,
                attempt=0,
                kind="io",
                detail=f"store write skipped: {code}",
            )
        )

    @property
    def failure_records(self) -> List[Any]:
        """The tolerated write-failure records, in canonical order."""
        return sorted(self.failures)

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Serve hits from the store, execute misses via the backend."""
        spec_base = self._spec_base
        self._spec_base += len(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        miss_indices: List[int] = []
        for index, spec in enumerate(specs):
            cached = self.store.get(spec)
            if cached is not None:
                results[index] = cached
            else:
                miss_indices.append(index)
        if miss_indices:
            inner_store = getattr(self.inner, "store", None)
            worker_writes = (
                isinstance(inner_store, RunStore)
                and self.store.same_target(inner_store)
            )
            t0 = time.perf_counter()
            computed = self.inner.run([specs[i] for i in miss_indices])
            mean_seconds = (
                (time.perf_counter() - t0) / len(miss_indices)
            )
            for index, result in zip(miss_indices, computed):
                results[index] = result
                if not worker_writes:
                    try:
                        self.store.put(
                            specs[index], result, seconds=mean_seconds
                        )
                    except OSError as error:
                        # Graceful degradation: the result is already
                        # computed and correct; a full disk only costs
                        # the cache entry, never the campaign.
                        self._record_write_failure(spec_base + index, error)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Close the wrapped backend."""
        self.inner.close()
