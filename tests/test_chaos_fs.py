"""Filesystem fault injection and crash consistency (:mod:`repro.chaos.fs`).

Covers the crash-consistency contracts the ISSUE pins:

* an :class:`FsFault` is pure plan data: validated, JSON
  round-trippable, and a plan without an ``fs`` layer keeps its
  pre-existing digest (the layer is omitted when empty);
* :class:`ChaosVFS` turns the store write path into a deterministic op
  stream: ``eio``/``enospc`` fire as ``OSError`` at the addressed op,
  torn writes persist a seeded prefix before crashing, crash images
  materialize the post-crash states a real power loss could leave;
* the entry read of ``RunStore.get`` goes through the store's
  :class:`VirtualFS` but never enters the op stream;
* the crash matrix recovers at *every* op boundary of the write,
  recompute and gc workloads, under both durability modes, and each
  cell's op-stream length is pinned;
* an ENOSPC mid-campaign degrades to a structured ``io``
  :class:`FailureRecord` and a converged warm resume -- never a wrong
  or missing result;
* gc deletion is two-phase: a crash between tombstone and unlink never
  loses a concurrently republished entry, and recovery finishes the
  sweep;
* provenance timestamps come from an injectable clock, and every age
  check tolerates a skewed (non-monotonic) clock.
"""

import errno
import json

import pytest

import repro
from repro.chaos import (
    CRASH_IMAGE_MODES,
    ChaosVFS,
    CrashMatrixReport,
    FaultPlan,
    FsFault,
    PlanError,
    SimulatedCrash,
    chaos_vfs_for_plan,
    plan_digest,
    replay_plan,
    run_crash_matrix,
)
from repro.sim.runner import SerialRunner
from repro.sim.spec import canonical_json, make_spec
from repro.sim.store import (
    STALE_TMP_GRACE_SECONDS,
    CachingRunner,
    RunStore,
    VirtualFS,
)
from repro.sim.traceio import run_result_to_dict


def _spec(seed=0, **kwargs):
    defaults = {"k": 4, "seed": seed, "label": f"chaos fs seed={seed}"}
    defaults.update(kwargs)
    return make_spec("ring", {"n": 6}, **defaults)


def _grid(count=3):
    return [_spec(seed=s) for s in range(count)]


def _fingerprint(results):
    return [canonical_json(run_result_to_dict(r)) for r in results]


class TestFsFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=5,
            fs=(
                FsFault(kind="enospc", op="write_bytes", writer="parent"),
                FsFault(kind="crash", op_index=3, times=2),
            ),
            label="fs round trip",
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.fault_count == 2

    def test_empty_fs_layer_preserves_plan_digest(self):
        # The fs layer must be omitted from the canonical form when
        # empty, so plans (and golden digests) from before the layer
        # existed are unchanged.
        plan = FaultPlan(seed=9, label="pre-fs plan")
        assert "fs" not in plan.to_dict()
        with_empty = FaultPlan.from_dict(dict(plan.to_dict(), fs=[]))
        assert plan_digest(with_empty) == plan_digest(plan)

    def test_validation(self):
        with pytest.raises(PlanError):
            FsFault(kind="brownout")
        with pytest.raises(PlanError):
            FsFault(kind="eio", op="chmod")
        with pytest.raises(PlanError):
            FsFault(kind="torn_write", op="replace")
        with pytest.raises(PlanError):
            FsFault(kind="lost_rename", op="unlink")
        with pytest.raises(PlanError):
            FsFault(kind="eio", op_index=-1)
        with pytest.raises(PlanError):
            FsFault(kind="eio", times=0)
        # Reads are never crash points: the corruption kinds take the
        # read op and nothing else, and no write-path kind takes it.
        with pytest.raises(PlanError, match="read_bytes"):
            FsFault(kind="bit_flip")
        with pytest.raises(PlanError, match="read_bytes"):
            FsFault(kind="truncate", op="write_bytes")
        with pytest.raises(PlanError, match="read_bytes"):
            FsFault(kind="crash", op="read_bytes")

    def test_vfs_for_plan(self):
        assert chaos_vfs_for_plan(FaultPlan()) is None
        vfs = chaos_vfs_for_plan(
            FaultPlan(seed=3, fs=(FsFault(kind="eio"),))
        )
        assert isinstance(vfs, ChaosVFS)
        assert vfs.seed == 3


class TestChaosVFS:
    def test_eio_fires_at_addressed_op(self, tmp_path):
        vfs = ChaosVFS(
            [FsFault(kind="eio", op="write_bytes", op_index=1)]
        )
        vfs.write_bytes(tmp_path / "a", b"first")
        with pytest.raises(OSError) as caught:
            vfs.write_bytes(tmp_path / "b", b"second")
        assert caught.value.errno == errno.EIO
        assert (tmp_path / "a").read_bytes() == b"first"
        assert not (tmp_path / "b").exists()

    def test_enospc_respects_writer_address(self, tmp_path):
        vfs = ChaosVFS(
            [FsFault(kind="enospc", op="write_bytes", writer="parent")]
        )
        vfs.write_bytes(tmp_path / "w", b"worker", writer="worker")
        with pytest.raises(OSError) as caught:
            vfs.write_bytes(tmp_path / "p", b"parent", writer="parent")
        assert caught.value.errno == errno.ENOSPC

    def test_torn_write_persists_seeded_prefix(self, tmp_path):
        data = b"x" * 4096
        torn = []
        for seed in (0, 1):
            vfs = ChaosVFS(
                [FsFault(kind="torn_write", op="write_bytes")], seed=seed
            )
            with pytest.raises(SimulatedCrash):
                vfs.write_bytes(tmp_path / f"t{seed}", b"" + data)
            torn.append((tmp_path / f"t{seed}").read_bytes())
        for prefix in torn:
            assert len(prefix) < len(data)
            assert data.startswith(prefix)
        # Seeded, not ambient: different seeds tear differently (with
        # overwhelming probability over a 4096-byte range).
        assert torn[0] != torn[1]

    def test_crash_at_op_boundary_leaves_prior_state(self, tmp_path):
        vfs = ChaosVFS(crash_at=1)
        vfs.write_bytes(tmp_path / "done", b"persisted")
        with pytest.raises(SimulatedCrash):
            vfs.write_bytes(tmp_path / "never", b"lost")
        assert (tmp_path / "done").read_bytes() == b"persisted"
        assert not (tmp_path / "never").exists()
        assert [op.name for op in vfs.ops] == ["write_bytes", "write_bytes"]

    def test_lose_volatile_image_rolls_back_unsynced_rename(self, tmp_path):
        vfs = ChaosVFS()
        staged = tmp_path / "staged"
        published = tmp_path / "published"
        vfs.write_bytes(staged, b"payload-bytes")
        vfs.fsync_file(staged)
        vfs.replace(staged, published)
        assert vfs.apply_crash_image("lose-volatile") is True
        # The un-fsync_dir'd rename is undone; the synced data survives
        # intact back at the staging path.
        assert not published.exists()
        assert staged.read_bytes() == b"payload-bytes"

    def test_torn_publish_image_tears_unsynced_data(self, tmp_path):
        vfs = ChaosVFS()
        staged = tmp_path / "staged"
        published = tmp_path / "published"
        vfs.write_bytes(staged, b"y" * 2048)
        vfs.replace(staged, published)  # data never fsynced
        assert vfs.apply_crash_image("torn-publish") is True
        survivor = published.read_bytes()
        assert len(survivor) < 2048
        assert b"y" * 2048 == b"y" * 2048 and (b"y" * 2048).startswith(
            survivor
        )

    def test_fsynced_state_collapses_every_image_to_flush(self, tmp_path):
        vfs = ChaosVFS()
        staged = tmp_path / "staged"
        published = tmp_path / "published"
        vfs.write_bytes(staged, b"durable")
        vfs.fsync_file(staged)
        vfs.replace(staged, published)
        vfs.fsync_dir(tmp_path)
        for mode in CRASH_IMAGE_MODES:
            assert vfs.apply_crash_image(mode) is False
        assert published.read_bytes() == b"durable"

    def test_unknown_image_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ChaosVFS().apply_crash_image("rollback")


class TestReadSeam:
    def test_every_get_reads_once_through_the_vfs(self, tmp_path):
        class RecordingFS(VirtualFS):
            def __init__(self):
                self.reads = []

            def read_bytes(self, path, *, writer=""):
                self.reads.append(path)
                return super().read_bytes(path, writer=writer)

        vfs = RecordingFS()
        store = RunStore(tmp_path, vfs=vfs)
        spec = _spec()
        entry = store.path_for(store.digest(spec))
        assert store.get(spec) is None  # miss
        assert vfs.reads == [entry]
        result = repro.execute(spec)
        store.put(spec, result)
        assert store.get(spec) == result  # hit
        assert vfs.reads == [entry, entry]

    def test_reads_are_not_ops_of_the_stream(self, tmp_path):
        spec = _spec()
        result = repro.execute(spec)
        RunStore(tmp_path).put(spec, result)
        vfs = ChaosVFS([FsFault(kind="eio", op="any", op_index=0)])
        store = RunStore(tmp_path, vfs=vfs)
        assert store.get(spec) == result
        assert store.get(spec) == result
        assert vfs.op_count == 0


class TestDurableStore:
    def test_rejects_unknown_durability(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path, durability="paranoid")

    def test_strict_mode_fsyncs_file_and_parent_dir(self, tmp_path):
        streams = {}
        for durability in ("fast", "strict"):
            vfs = ChaosVFS()
            store = RunStore(
                tmp_path / durability, durability=durability, vfs=vfs
            )
            spec = _spec()
            store.put(spec, repro.execute(spec))
            streams[durability] = [op.name for op in vfs.ops]
            assert store.get(spec) is not None
        assert "fsync_file" not in streams["fast"]
        assert "fsync_dir" not in streams["fast"]
        publish = streams["strict"].index("replace")
        assert streams["strict"][publish - 1] == "fsync_file"
        assert streams["strict"][publish + 1] == "fsync_dir"

    def test_simulated_crash_leaves_staging_debris(self, tmp_path):
        vfs = ChaosVFS(
            [FsFault(kind="torn_write", op="write_bytes", writer="parent")]
        )
        store = RunStore(tmp_path, vfs=vfs, writer="parent")
        spec = _spec()
        with pytest.raises(SimulatedCrash):
            store.put(spec, repro.execute(spec))
        assert store.staging_usage() == 1
        assert store.get(spec) is None

    def test_stale_staging_swept_on_restart(self, tmp_path):
        vfs = ChaosVFS(
            [FsFault(kind="torn_write", op="write_bytes")]
        )
        crashed = RunStore(tmp_path, vfs=vfs)
        with pytest.raises(SimulatedCrash):
            crashed.put(_spec(), repro.execute(_spec()))
        orphan = next(crashed.staging_dir.iterdir())
        # A restart inside the grace window keeps the orphan (another
        # process may still be mid-write); one past it sweeps.
        base = orphan.stat().st_mtime
        young = RunStore(tmp_path, clock=lambda: base + 1.0)
        assert young.recover() == {
            "stale_tmp_removed": 0,
            "tombstones_swept": 0,
        }
        later = RunStore(
            tmp_path, clock=lambda: base + STALE_TMP_GRACE_SECONDS + 1.0
        )
        outcome = later.recover()
        assert outcome["stale_tmp_removed"] == 1
        assert later.staging_usage() == 0
        assert later.stats().to_dict()["stale_tmp_removed"] == 1

    def test_gc_crash_between_tombstone_and_unlink_is_recoverable(
        self, tmp_path
    ):
        specs = _grid(3)
        seed_store = RunStore(tmp_path)
        for spec in specs:
            seed_store.put(spec, repro.execute(spec))
        stale = RunStore(tmp_path, salt="old-salt")
        stale.put(specs[0], repro.execute(specs[0]))
        # Crash the gc right after the first tombstone rename commits.
        vfs = ChaosVFS(
            [FsFault(kind="crash", op="unlink")]
        )
        crashing = RunStore(tmp_path, vfs=vfs)
        with pytest.raises(SimulatedCrash):
            crashing.gc()
        tombs = list(crashing.root.glob("**/*.json.tomb"))
        assert len(tombs) == 1
        # The concurrent writer republishes the tombstoned digest at
        # its original path; recovery then finishes the crashed sweep
        # without touching the fresh entry.
        writer = RunStore(tmp_path, salt="old-salt")
        writer.put(specs[0], repro.execute(specs[0]))
        recovered = RunStore(tmp_path)
        outcome = recovered.recover()
        assert outcome["tombstones_swept"] == 1
        assert not list(recovered.root.glob("**/*.json.tomb"))
        assert writer.get(specs[0]) is not None
        for spec in specs:
            assert recovered.get(spec) is not None

    def test_lost_rename_is_a_clean_miss(self, tmp_path):
        vfs = ChaosVFS([FsFault(kind="lost_rename", op="replace")])
        store = RunStore(tmp_path, vfs=vfs)
        spec = _spec()
        with pytest.raises(SimulatedCrash):
            store.put(spec, repro.execute(spec))
        vfs.apply_crash_image("lose-volatile")
        reopened = RunStore(tmp_path)
        assert reopened.get(spec) is None
        assert reopened.verify().clean


class TestGracefulWriteDegradation:
    def test_enospc_mid_campaign_records_io_failure_and_resumes(
        self, tmp_path
    ):
        specs = _grid(4)
        baseline = _fingerprint(SerialRunner().run(specs))
        vfs = ChaosVFS(
            [
                FsFault(
                    kind="enospc",
                    op="write_bytes",
                    op_index=1,
                    writer="parent",
                    times=2,
                )
            ]
        )
        store = RunStore(tmp_path, vfs=vfs)
        runner = CachingRunner(SerialRunner(), store)
        cold = runner.run(specs)
        # Every result is still computed and correct; only the two
        # cache entries the full disk rejected are missing.
        assert _fingerprint(cold) == baseline
        records = runner.failure_records
        assert [r.kind for r in records] == ["io", "io"]
        assert [r.unit for r in records] == [1, 2]
        assert all(
            r.detail == "store write skipped: ENOSPC" for r in records
        )
        # The resume is clean: the disk has space again, the warm pass
        # repairs the gaps, and a third pass is all hits.
        warm = runner.run(specs)
        assert _fingerprint(warm) == baseline
        hits_before = store.hits
        assert _fingerprint(runner.run(specs)) == baseline
        assert store.hits == hits_before + len(specs)
        assert store.verify().clean

    def test_replay_plan_routes_writes_through_parent(self, tmp_path):
        plan = FaultPlan(
            seed=2,
            fs=(
                FsFault(
                    kind="enospc",
                    op="write_bytes",
                    op_index=0,
                    writer="parent",
                ),
            ),
        )
        report = replay_plan(plan, tmp_path, specs=_grid(3), jobs=1)
        assert report.converged
        assert [r.kind for r in report.failures] == ["io"]

    def test_unit_numbering_spans_run_calls(self, tmp_path):
        vfs = ChaosVFS(
            [
                FsFault(
                    kind="eio", op="write_bytes", op_index=3, writer="parent"
                )
            ]
        )
        store = RunStore(tmp_path, vfs=vfs)
        runner = CachingRunner(SerialRunner(), store)
        runner.run(_grid(3))
        runner.run([_spec(seed=7)])
        [record] = runner.failure_records
        assert record.unit == 3


class TestInjectableClock:
    def test_created_at_comes_from_injected_clock(self, tmp_path):
        store = RunStore(tmp_path, clock=lambda: 1234.5)
        spec = _spec()
        store.put(spec, repro.execute(spec))
        [entry] = list(store.entries())
        payload = json.loads(entry.path.read_text())
        assert payload["created_at"] == 1234.5

    def test_purge_quarantine_tolerates_future_mtimes(self, tmp_path):
        store = RunStore(tmp_path, clock=lambda: 0.0)
        spec = _spec()
        store.put(spec, repro.execute(spec))
        path = store.path_for(store.digest(spec))
        path.write_text(path.read_text()[:10])
        assert store.get(spec) is None  # quarantined
        # The quarantined file's real mtime is decades after the skewed
        # clock's "now"; a negative age must read as zero and keep the
        # evidence rather than over-purging it.
        assert store.purge_quarantine(older_than_days=1.0) == 0
        assert store.quarantine_usage()["entries"] == 1
        assert store.purge_quarantine(older_than_days=0.0) == 1

    def test_recover_tolerates_future_staging_mtimes(self, tmp_path):
        vfs = ChaosVFS([FsFault(kind="torn_write", op="write_bytes")])
        crashed = RunStore(tmp_path, vfs=vfs)
        with pytest.raises(SimulatedCrash):
            crashed.put(_spec(), repro.execute(_spec()))
        # now == 0 makes every age negative: nothing may be swept.
        skewed = RunStore(tmp_path, clock=lambda: 0.0)
        assert skewed.recover()["stale_tmp_removed"] == 0
        assert skewed.staging_usage() == 1

    def test_gc_order_survives_non_monotonic_created_at(self, tmp_path):
        ticks = iter([100.0, 50.0, 75.0])
        store = RunStore(tmp_path, clock=lambda: next(ticks, 200.0))
        specs = _grid(3)
        for spec in specs:
            store.put(spec, repro.execute(spec))
        outcome = store.gc(max_entries=2)
        # Eviction is oldest-created_at-first over the *recorded*
        # stamps; a backwards clock reorders victims but never breaks
        # the bound or the arithmetic.
        assert outcome["removed"] == 1
        assert outcome["kept"] == 2
        assert store.get(specs[1]) is None
        assert store.get(specs[0]) is not None
        assert store.get(specs[2]) is not None


class TestCrashMatrix:
    def test_matrix_recovers_under_both_durability_modes(self, tmp_path):
        report = run_crash_matrix(tmp_path)
        assert isinstance(report, CrashMatrixReport)
        assert report.ok, report.render()
        assert report.durabilities == ["fast", "strict"]
        assert {cell["scenario"] for cell in report.cells} == {
            "store-write",
            "recompute",
            "gc-compaction",
        }
        # Each cell's op-stream length and the images recovery has to
        # re-check.  Any op entering or leaving the stream (a read
        # leaking into it, say) moves these numbers.
        cells = {
            (cell["durability"], cell["scenario"]): (
                cell["crash_points"],
                cell["images_checked"],
                cell["images_skipped"],
            )
            for cell in report.cells
        }
        assert cells == {
            ("fast", "store-write"): (12, 30, 6),
            ("fast", "recompute"): (6, 11, 7),
            ("fast", "gc-compaction"): (8, 15, 9),
            ("strict", "store-write"): (18, 27, 27),
            ("strict", "recompute"): (8, 15, 9),
            ("strict", "gc-compaction"): (8, 15, 9),
        }
        assert report.crash_points == 60
        assert report.images_checked == 113
        data = report.to_dict()
        assert data["ok"] is True
        assert data["kind"] == "crash_matrix_report"
        assert "RECOVERED" in report.render()

    def test_strict_write_path_collapses_adversarial_images(self, tmp_path):
        report = run_crash_matrix(tmp_path, durabilities=("strict",))
        assert report.ok, report.render()
        [write_cell] = [
            cell
            for cell in report.cells
            if cell["scenario"] == "store-write"
        ]
        # Strict's guarantee is no torn *published* entry: once replace
        # runs, both fsyncs have settled the bytes, so every post-
        # publish adversarial image collapses to flush.  Mid-write
        # boundaries legitimately stay adversarial -- per entry, the
        # fsync_file boundary leaves a tearable staging file (2 images)
        # and the fsync_dir boundary a rollback-able rename (1 image) --
        # 3 of each entry's 12 adversarial images, 9 of 36 total.
        adversarial = write_cell["crash_points"] * (
            len(CRASH_IMAGE_MODES) - 1
        )
        assert adversarial == 36
        assert write_cell["images_skipped"] == adversarial - 9

