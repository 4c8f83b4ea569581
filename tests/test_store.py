"""The content-addressed run store and the caching runner.

Covers the ISSUE's cache-semantics contracts:

* a cache hit returns a ``RunResult`` bit-identical to the original --
  including per-round records and snapshots;
* bumping the code-version salt invalidates every old entry;
* concurrent pool workers writing through one store never corrupt it;
* an interrupted sweep/campaign resumes with zero recomputed specs;
* ``gc`` / ``clear`` / ``stats`` behave as documented.
"""

import hashlib
import json
import multiprocessing
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.campaign import run_campaign
from repro.analysis.experiments import rounds_vs_k_specs
from repro.sim.runner import ProcessPoolRunner, SerialRunner
from repro.sim.spec import canonical_json, execute, make_spec, spec_digest
from repro.sim.store import (
    LAYOUT_VERSION,
    CachingRunner,
    RunStore,
    default_cache_dir,
    entry_checksum,
)
from repro.sim.traceio import run_result_to_dict
from tests.test_backend import generated_specs


def _spec(seed=0, **kwargs):
    defaults = {
        "k": 6,
        "seed": seed,
        "collect_records": True,
        "label": f"store test seed={seed}",
    }
    defaults.update(kwargs)
    return make_spec("random_churn", {"n": 12, "extra_edges": 6}, **defaults)


def _grid(count=6):
    return [_spec(seed=s) for s in range(count)]


class TestRunStore:
    def test_miss_then_hit_is_bit_identical(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec(collect_snapshots=True)
        assert store.get(spec) is None
        result = repro.execute(spec)
        store.put(spec, result)
        cached = store.get(spec)
        assert cached == result
        assert run_result_to_dict(cached) == run_result_to_dict(result)
        assert [r.snapshot for r in cached.records] == [
            r.snapshot for r in result.records
        ]

    def test_contains_and_invalidate(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        assert spec not in store
        store.put(spec, repro.execute(spec))
        assert spec in store
        assert store.invalidate(spec) is True
        assert spec not in store
        assert store.invalidate(spec) is False

    def test_salt_bump_invalidates(self, tmp_path):
        spec = _spec()
        old = RunStore(tmp_path, salt="results1")
        old.put(spec, repro.execute(spec))
        new = RunStore(tmp_path, salt="results2")
        assert spec_digest(spec, salt="results1") != spec_digest(
            spec, salt="results2"
        )
        assert new.get(spec) is None  # old entry invisible under new salt
        assert old.get(spec) is not None  # ...but still there for old code

    def test_corrupt_entry_is_a_miss_and_dropped(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.put(spec, repro.execute(spec))
        path = store.path_for(store.digest(spec))
        path.write_text("{not json")
        assert store.get(spec) is None
        assert not path.exists()
        # The next put repairs the store.
        store.put(spec, repro.execute(spec))
        assert store.get(spec) is not None

    def test_gc_drops_stale_salts_and_bounds_entries(self, tmp_path):
        stale = RunStore(tmp_path, salt="old-salt")
        for spec in _grid(3):
            stale.put(spec, repro.execute(spec))
        store = RunStore(tmp_path)
        for spec in _grid(4):
            store.put(spec, repro.execute(spec))
        outcome = store.gc()
        assert outcome == {
            "removed": 3,
            "kept": 4,
            "unlink_errors": 0,
            "quarantine_purged": 0,
            "stale_tmp_removed": 0,
            "tombstones_swept": 0,
        }
        outcome = store.gc(max_entries=2)
        assert outcome["kept"] == 2
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_stats_counts_session_traffic(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.get(spec)
        store.put(spec, repro.execute(spec))
        store.get(spec)
        stats = store.stats()
        assert stats.entries == 1 and stats.size_bytes > 0
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)

    def test_default_cache_dir_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "here"))
        assert default_cache_dir() == tmp_path / "here"
        assert RunStore().root == tmp_path / "here"


class TestStoreIntegrity:
    def test_entries_carry_a_rederivable_checksum(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.put(spec, repro.execute(spec))
        path = store.path_for(store.digest(spec))
        payload = json.loads(path.read_text())
        assert payload["checksum"] == entry_checksum(
            payload["digest"],
            payload["salt"],
            payload["spec"],
            payload["result"],
        )

    def test_known_entry_is_pinned(self, tmp_path):
        # Regression pin on the canonical form and the entry layout, as
        # test_known_digest_is_pinned is on the spec digest: if either
        # moves, entries written by earlier code stop re-deriving their
        # checksum.  Re-pin only together with a CODE_VERSION_SALT bump
        # or a LAYOUT_VERSION change.
        store = RunStore(tmp_path, clock=lambda: 1_700_000_000.0)
        spec = _spec()
        path = store.path_for(store.put(spec, repro.execute(spec)))
        raw = path.read_bytes()
        assert json.loads(raw)["checksum"] == (
            "7b53ef738ab8848853727cebf51cb1590954f49580b9a9a165cdbc87706a7627"
        )
        assert hashlib.sha256(raw).hexdigest() == (
            "1f2c8769748116fb103113d0cc182ccd8fe98ef0ef08e610755e92190f840013"
        )

    def test_checksum_mismatch_is_quarantined_and_recomputed(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        result = repro.execute(spec)
        store.put(spec, result)
        path = store.path_for(store.digest(spec))
        payload = json.loads(path.read_text())
        # Tamper with the stored result but leave the checksum alone.
        payload["result"]["rounds"] = payload["result"]["rounds"] + 1
        path.write_text(json.dumps(payload, sort_keys=True))
        assert store.get(spec) is None  # never serves the wrong bits
        assert store.corrupt == 1
        assert not path.exists()
        assert (store.quarantine_dir / path.name).exists()
        # Recompute-and-put repairs the store; the repaired read is a hit.
        store.put(spec, repro.execute(spec))
        assert store.get(spec) == result

    def test_verify_clean_store(self, tmp_path):
        store = RunStore(tmp_path)
        for spec in _grid(3):
            store.put(spec, repro.execute(spec))
        report = store.verify()
        assert report.clean
        assert (report.checked, report.ok) == (3, 3)
        assert report.to_dict()["clean"] is True

    def test_verify_detects_and_quarantines_corruption(self, tmp_path):
        store = RunStore(tmp_path)
        specs = _grid(4)
        for spec in specs:
            store.put(spec, repro.execute(spec))
        bad = store.path_for(store.digest(specs[0]))
        bad.write_bytes(bad.read_bytes()[:50])  # torn write
        listed = store.verify()
        assert not listed.clean
        assert len(listed.corrupt) == 1
        assert listed.corrupt[0]["digest"] == bad.stem
        assert listed.quarantined == 0 and bad.exists()  # list-only
        fixed = store.verify(quarantine=True)
        assert fixed.quarantined == 1
        assert not bad.exists()
        assert (store.quarantine_dir / bad.name).exists()
        assert store.verify().clean

    def test_verify_catches_relocated_entry(self, tmp_path):
        # A checksum-valid payload parked under the wrong address must
        # fail the digest/address cross-check.
        store = RunStore(tmp_path)
        spec = _spec()
        store.put(spec, repro.execute(spec))
        path = store.path_for(store.digest(spec))
        fake = "0" * 64
        target = path.parent.parent / fake[:2] / f"{fake}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        report = store.verify()
        assert not report.clean
        assert "address" in report.corrupt[0]["reason"]

    def test_stats_report_corrupt_entries(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.put(spec, repro.execute(spec))
        store.path_for(store.digest(spec)).write_text("{not json")
        assert store.get(spec) is None
        stats = store.stats()
        assert stats.corrupt_entries == 1
        assert stats.to_dict()["corrupt_entries"] == 1
        assert "1 corrupt" in stats.render()


def _oracle_checksum(digest, salt, spec, result):
    """The checksum as one canonical encode of the four content fields."""
    payload = canonical_json(
        {"digest": digest, "salt": salt, "spec": dict(spec), "result": dict(result)}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _oracle_entry(store, spec, result, *, created_at, seconds):
    """The entry file as one ``json.dumps`` of the whole payload: the bytes
    ``put``, which encodes the result once, must write."""
    digest = store.digest(spec)
    spec_dict = spec.to_dict()
    result_dict = run_result_to_dict(result)
    payload = {
        "kind": "run_store_entry",
        "layout_version": LAYOUT_VERSION,
        "digest": digest,
        "salt": store.salt,
        "label": spec.label,
        "created_at": created_at,
        "seconds": seconds,
        "checksum": _oracle_checksum(digest, store.salt, spec_dict, result_dict),
        "spec": spec_dict,
        "result": result_dict,
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")


class TestEntryEncoding:
    """``put`` encodes each result once and assembles the entry around it;
    the whole-payload encoding is the oracle for its bytes."""

    CREATED_AT = 1_700_000_000.25

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        spec=generated_specs(),
        snapshots=st.booleans(),
        label=st.text(max_size=12),
        seconds=st.one_of(st.none(), st.floats(0, 1e6)),
    )
    def test_entry_bytes_match_the_oracle(self, spec, snapshots, label, seconds):
        spec = spec.with_(collect_snapshots=snapshots, label=label)
        result = execute(spec)
        with tempfile.TemporaryDirectory() as root:
            store = RunStore(root, clock=lambda: self.CREATED_AT)
            path = store.path_for(store.put(spec, result, seconds=seconds))
            raw = path.read_bytes()
            assert raw == _oracle_entry(
                store, spec, result, created_at=self.CREATED_AT, seconds=seconds
            )
            payload = json.loads(raw)
            assert entry_checksum(
                payload["digest"], payload["salt"], payload["spec"], payload["result"]
            ) == _oracle_checksum(
                payload["digest"], payload["salt"], payload["spec"], payload["result"]
            )
            assert store.get(spec) == result
            assert store.verify().clean

    def test_checksum_matches_the_oracle_on_non_canonical_fields(self):
        # Integral floats and tuples reach the checksum only through the
        # canonical encoder; encoding the parts apart must not change it.
        spec = {"graph": {"params": {"n": 8.0}}, "placement": (1, 2.5)}
        result = {"rounds": 3.0, "records": [{"moved": (1, 2)}]}
        assert entry_checksum("ab", "salt", spec, result) == (
            _oracle_checksum("ab", "salt", spec, result)
        )


class TestQuarantineLifecycle:
    @staticmethod
    def _quarantine_one(store, spec):
        """Corrupt ``spec``'s entry and trip the read-path quarantine."""
        path = store.path_for(store.digest(spec))
        path.write_text("{not json")
        assert store.get(spec) is None
        return store.quarantine_dir / path.name

    def test_stats_and_verify_report_quarantine_usage(self, tmp_path):
        store = RunStore(tmp_path)
        specs = _grid(3)
        for spec in specs:
            store.put(spec, repro.execute(spec))
        held = self._quarantine_one(store, specs[0])
        stats = store.stats()
        assert stats.quarantine_entries == 1
        assert stats.quarantine_bytes == held.stat().st_size
        assert stats.to_dict()["quarantine_entries"] == 1
        assert "quarantine: 1 entries" in stats.render()
        report = store.verify()
        assert report.quarantine_entries == 1
        assert report.quarantine_bytes == held.stat().st_size
        assert "quarantine holds 1 entries" in report.render()

    def test_verify_counts_entries_it_just_quarantined(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.put(spec, repro.execute(spec))
        path = store.path_for(store.digest(spec))
        path.write_bytes(path.read_bytes()[:40])
        report = store.verify(quarantine=True)
        assert report.quarantined == 1
        assert report.quarantine_entries == 1

    def test_purge_honors_age_cutoff(self, tmp_path):
        store = RunStore(tmp_path)
        specs = _grid(2)
        for spec in specs:
            store.put(spec, repro.execute(spec))
        old = self._quarantine_one(store, specs[0])
        young = self._quarantine_one(store, specs[1])
        two_days_ago = time.time() - 2 * 86400
        os.utime(old, (two_days_ago, two_days_ago))
        assert store.purge_quarantine(older_than_days=1.0) == 1
        assert not old.exists() and young.exists()
        assert store.purge_quarantine() == 1  # 0 days: purge everything
        assert store.quarantine_usage() == {"entries": 0, "bytes": 0}

    def test_purge_rejects_negative_age(self, tmp_path):
        with pytest.raises(ValueError, match="older_than_days"):
            RunStore(tmp_path).purge_quarantine(older_than_days=-1.0)

    def test_gc_purges_quarantine_only_when_asked(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.put(spec, repro.execute(spec))
        self._quarantine_one(store, spec)
        outcome = store.gc()
        assert outcome["quarantine_purged"] == 0
        assert store.quarantine_usage()["entries"] == 1
        outcome = store.gc(purge_quarantine_days=0.0)
        assert outcome["quarantine_purged"] == 1
        assert store.quarantine_usage()["entries"] == 0


class TestCachingRunner:
    def test_semantically_invisible(self, tmp_path):
        specs = _grid()
        bare = SerialRunner().run(specs)
        runner = CachingRunner(SerialRunner(), RunStore(tmp_path))
        cold = runner.run(specs)
        warm = runner.run(specs)
        for a, b, c in zip(bare, cold, warm):
            assert run_result_to_dict(a) == run_result_to_dict(b)
            assert run_result_to_dict(b) == run_result_to_dict(c)

    def test_hit_miss_accounting(self, tmp_path):
        store = RunStore(tmp_path)
        runner = CachingRunner(SerialRunner(), store)
        specs = _grid(4)
        runner.run(specs)
        assert (store.hits, store.misses, store.writes) == (0, 4, 4)
        runner.run(specs)
        assert (store.hits, store.misses, store.writes) == (4, 4, 4)

    def test_interrupted_sweep_resumes_with_zero_recomputed(self, tmp_path):
        store = RunStore(tmp_path)
        specs = _grid(6)
        # "Interrupted" run: only a prefix of the grid completed.
        CachingRunner(SerialRunner(), store).run(specs[:4])
        resumed = RunStore(tmp_path)
        results = CachingRunner(SerialRunner(), resumed).run(specs)
        assert (resumed.hits, resumed.misses) == (4, 2)
        # The rerun after that recomputes nothing at all.
        rerun = RunStore(tmp_path)
        again = CachingRunner(SerialRunner(), rerun).run(specs)
        assert (rerun.hits, rerun.misses) == (6, 0)
        for a, b in zip(results, again):
            assert run_result_to_dict(a) == run_result_to_dict(b)


class TestConcurrentWriters:
    def test_pool_workers_share_one_store(self, tmp_path):
        specs = rounds_vs_k_specs([4, 8], seeds=(0, 1, 2))
        store = RunStore(tmp_path)
        with ProcessPoolRunner(max_workers=4, store=store) as pool:
            runner = CachingRunner(pool, store)
            cold = runner.run(specs)
        # Every entry on disk parses and carries the right digest.
        entries = list(store.entries())
        assert len(entries) == len(specs)
        for entry in entries:
            payload = json.loads(entry.path.read_text())
            assert payload["digest"] == entry.digest
        # A second pass is pure hits, bit-identical across processes.
        warm_store = RunStore(tmp_path)
        warm = CachingRunner(SerialRunner(), warm_store).run(specs)
        assert (warm_store.hits, warm_store.misses) == (len(specs), 0)
        serial = SerialRunner().run(specs)
        for a, b, c in zip(cold, warm, serial):
            assert run_result_to_dict(a) == run_result_to_dict(b)
            assert run_result_to_dict(b) == run_result_to_dict(c)

    def test_racing_identical_writers_are_lossless(self, tmp_path):
        # Many processes computing and publishing the SAME entry must
        # leave exactly one valid file behind.
        spec = _spec()
        root = str(tmp_path)
        procs = [
            multiprocessing.Process(target=_put_one, args=(root, 0))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        store = RunStore(tmp_path)
        assert store.stats().entries == 1
        assert store.get(spec) == repro.execute(spec)


def _put_one(root, seed):
    store = RunStore(root)
    spec = _spec(seed=seed)
    store.put(spec, repro.execute(spec))


class TestResumableCampaign:
    def test_second_campaign_recomputes_nothing(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        cold = run_campaign("quick", store=store)
        assert cold.all_passed
        assert cold.cache["hits"] == 0 and cold.cache["recomputed"] > 0

        def no_engine(*args, **kwargs):
            raise AssertionError("a warm campaign built an engine")

        # Every section goes through the store: the warm pass builds
        # no engine at all.
        monkeypatch.setattr("repro.sim.spec.build_engine", no_engine)
        warm = run_campaign("quick", store=RunStore(tmp_path))
        assert warm.all_passed
        assert warm.cache["recomputed"] == 0
        assert warm.cache["hits"] == cold.cache["recomputed"]
        assert warm.to_dict()["cache"] == warm.cache

    def test_campaign_without_store_reports_no_cache(self, quick_campaign):
        report = quick_campaign
        assert report.cache is None
        assert report.to_dict()["cache"] is None


class TestTopLevelAPI:
    def test_run_and_sweep_round_trip_through_store(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        first = repro.run(spec, store=store)
        second = repro.run(spec, store=store)
        assert run_result_to_dict(first) == run_result_to_dict(second)
        assert (store.hits, store.misses) == (1, 1)
        specs = _grid(4)
        results = repro.sweep(specs, store=store)
        again = repro.sweep(specs, jobs=2, store=store)
        for a, b in zip(results, again):
            assert run_result_to_dict(a) == run_result_to_dict(b)

    def test_declared_surface_exists(self):
        for name in ("run", "sweep", "RunSpec", "RunStore", "make_spec"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_version_matches_packaging_metadata(self):
        import pathlib
        import re

        pyproject = (
            pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        )
        declared = re.search(
            r'^version = "([^"]+)"', pyproject.read_text(), re.M
        ).group(1)
        assert repro.__version__ == declared


@pytest.mark.parametrize("jobs", [None, 2])
def test_store_is_backend_agnostic(tmp_path, jobs):
    """The same store serves serial and pool backends interchangeably."""
    specs = _grid(4)
    store = RunStore(tmp_path)
    cold = repro.sweep(specs, jobs=jobs, store=store)
    flipped = repro.sweep(specs, jobs=2 if jobs is None else None, store=store)
    for a, b in zip(cold, flipped):
        assert run_result_to_dict(a) == run_result_to_dict(b)
