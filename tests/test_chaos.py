"""The chaos fault-injection subsystem (:mod:`repro.chaos`).

Covers the robustness contracts the ISSUE pins:

* a :class:`FaultPlan` is pure data: JSON round-trippable, validated,
  content-addressable with a label-independent digest;
* every read-fault kind produces corruption the store's integrity
  layer detects, quarantines and recomputes -- zero wrong results;
* runner and engine faults are tolerated by the pool's recovery
  machinery and surface as structured :class:`FailureRecord` s;
* the golden property: replaying the same seeded plan twice yields an
  identical failure stream and bit-identical results.
"""

import pathlib

import pytest

import repro
from repro.chaos import (
    ChaosEngineFault,
    ChaosPoolRunner,
    EngineFault,
    FailureRecord,
    FaultPlan,
    FsFault,
    PhaseFaultObserver,
    PlanError,
    RunnerFault,
    chaos_grid,
    chaos_vfs_for_plan,
    diff_failure_streams,
    load_failure_stream,
    plan_digest,
    render_failure_stream,
    replay_plan,
)
from repro.sim.runner import SerialRunner
from repro.sim.spec import build_engine, make_spec, spec_digest
from repro.sim.store import CachingRunner, RunStore
from repro.sim.traceio import run_result_to_dict

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

def _spec(seed=0, **kwargs):
    defaults = {"k": 6, "seed": seed, "label": f"chaos test seed={seed}"}
    defaults.update(kwargs)
    return make_spec("random_churn", {"n": 12, "extra_edges": 6}, **defaults)


def _grid(count=6):
    return [_spec(seed=s) for s in range(count)]


def _read_fault(kind, op_index, **kwargs):
    return FsFault(kind=kind, op="read_bytes", op_index=op_index, **kwargs)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=11,
            runner=(RunnerFault(kind="crash", spec_index=4),),
            engine=(EngineFault(phase="on_move", spec_index=7),),
            fs=(_read_fault("bit_flip", 2),),
            label="round trip",
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.fault_count == 3
        assert again.runner[0].spec_index == 4
        assert again.fs[0].op == "read_bytes"
        assert plan_digest(plan) != plan_digest(
            FaultPlan(
                seed=11,
                runner=(RunnerFault(kind="crash", spec_index=5),),
                engine=plan.engine,
                fs=plan.fs,
            )
        )

    def test_digest_addressed_fault_round_trips(self):
        # The version-1 spec_digest address is gone: a runner fault
        # serializes only its spec_index, and the plan's content digest
        # survives the JSON round trip unchanged.
        plan = FaultPlan(
            seed=2,
            runner=(RunnerFault(kind="crash", spec_index=3),),
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert plan_digest(again) == plan_digest(plan)
        entry = again.runner[0].to_dict()
        assert entry["spec_index"] == 3
        assert "spec_digest" not in entry
        assert "unit_index" not in entry
        assert plan_digest(plan) != plan_digest(
            FaultPlan(seed=2, runner=(RunnerFault("crash", 0),))
        )

    def test_digest_ignores_label_but_not_faults(self):
        base = FaultPlan(seed=1, runner=(RunnerFault("transient", 0),))
        relabeled = FaultPlan(
            seed=1, runner=(RunnerFault("transient", 0),), label="other"
        )
        different = FaultPlan(seed=2, runner=(RunnerFault("transient", 0),))
        assert plan_digest(base) == plan_digest(relabeled)
        assert plan_digest(base) != plan_digest(different)

    def test_validation_rejects_bad_values(self):
        with pytest.raises(PlanError, match="fs fault kind"):
            _read_fault("gamma_ray", 0)
        with pytest.raises(PlanError, match="runner fault kind"):
            RunnerFault(kind="explode", spec_index=0)
        with pytest.raises(PlanError, match="engine phase"):
            EngineFault(phase="on_lunch", spec_index=0)
        with pytest.raises(PlanError, match="op_index"):
            _read_fault("truncate", -1)
        with pytest.raises(PlanError, match="spec_index"):
            RunnerFault(kind="crash", spec_index=-1)
        with pytest.raises(PlanError, match="times"):
            RunnerFault(kind="transient", spec_index=0, times=0)
        with pytest.raises(PlanError, match="format_version"):
            FaultPlan.from_dict({"format_version": 99, "kind": "fault_plan"})
        # A version-1 plan is rejected, and relabelling its version is
        # not a migration: the old store layer is refused, never dropped.
        legacy = {"format_version": 1, "store": [{"kind": "truncate"}]}
        with pytest.raises(PlanError, match="format_version 1"):
            FaultPlan.from_dict(legacy)
        with pytest.raises(PlanError, match="store"):
            FaultPlan.from_dict(dict(legacy, format_version=2))
        with pytest.raises(PlanError, match="JSON"):
            FaultPlan.from_json("{nope")

    def test_runner_fault_requires_exactly_one_address(self):
        # spec_index is the one address: a version-1 address in its
        # place is refused.
        for legacy in ({"unit_index": 2}, {"spec_digest": "ab12cd34"}):
            with pytest.raises(PlanError, match="spec_index"):
                FaultPlan.from_dict(
                    {"runner": [dict(legacy, kind="crash")]}
                )
        with pytest.raises(TypeError):
            RunnerFault(kind="crash")

    def test_unknown_entry_keys_are_refused_by_name(self):
        # A stale address or a typo inside an entry is an error, not a
        # key dropped on the way to a fault at the default round.
        plan = {
            "format_version": 2,
            "runner": [{"kind": "crash", "spec_index": 3, "unit_index": 7}],
            "engine": [{"phase": "on_move", "spec_index": 1, "rounds": 4}],
        }
        with pytest.raises(PlanError, match=r"runner fault keys \['unit_index'\]"):
            FaultPlan.from_dict(plan)
        with pytest.raises(PlanError, match=r"engine fault keys \['rounds'\]"):
            FaultPlan.from_dict(dict(plan, runner=[]))
        with pytest.raises(PlanError, match=r"fs fault keys \['index'\]"):
            FaultPlan.from_dict(
                {"fs": [{"kind": "eio", "op": "replace", "index": 2}]}
            )

    def test_failure_record_round_trip_and_order(self):
        records = [
            FailureRecord(unit=3, attempt=1, kind="timeout", detail="b"),
            FailureRecord(unit=1, attempt=2, kind="crash", detail="a"),
        ]
        assert sorted(records)[0].unit == 1
        for record in records:
            assert FailureRecord.from_dict(record.to_dict()) == record
        with pytest.raises(ValueError, match="failure kind"):
            FailureRecord(unit=0, attempt=0, kind="cosmic", detail="")


class TestFaultyStore:
    """A store whose ChaosVFS carries the plan's read faults."""

    @pytest.mark.parametrize(
        "kind", ["bit_flip", "truncate", "stale_salt", "unreadable"]
    )
    def test_every_corruption_kind_is_detected(self, tmp_path, kind):
        clean = RunStore(tmp_path)
        spec = _spec()
        result = repro.execute(spec)
        clean.put(spec, result)
        stored = clean.path_for(clean.digest(spec)).read_bytes()
        plan = FaultPlan(seed=5, fs=(_read_fault(kind, 0),))
        vfs = chaos_vfs_for_plan(plan)
        faulty = RunStore(tmp_path, vfs=vfs)
        assert faulty.get(spec) is None  # corrupted, detected, missed
        assert faulty.corrupt == 1
        assert [r.kind for r in vfs.failures] == ["corrupt"]
        assert kind in vfs.failures[0].detail
        # The entry was quarantined with the damaged bytes; a
        # recompute-and-put repairs it.
        quarantined = faulty.quarantine_dir / faulty.path_for(
            faulty.digest(spec)
        ).name
        assert quarantined.read_bytes() != stored
        faulty.put(spec, result)
        assert faulty.get(spec) == result

    def test_op_index_counts_only_stored_reads(self, tmp_path):
        clean = RunStore(tmp_path)
        specs = _grid(3)
        for spec in specs[1:]:
            clean.put(spec, repro.execute(spec))
        # Fault at op 1: the *second* read that finds an entry.  The cold
        # miss of specs[0] must not consume it.
        plan = FaultPlan(seed=0, fs=(_read_fault("truncate", 1),))
        faulty = RunStore(tmp_path, vfs=chaos_vfs_for_plan(plan))
        assert faulty.get(specs[0]) is None  # plain miss, no fault burned
        assert faulty.get(specs[1]) is not None  # op 0: untouched
        assert faulty.get(specs[2]) is None  # op 1: corrupted
        assert faulty.corrupt == 1

    def test_read_fault_honours_writer_and_times(self, tmp_path):
        clean = RunStore(tmp_path)
        specs = _grid(3)
        for spec in specs:
            clean.put(spec, repro.execute(spec))
        plan = FaultPlan(
            seed=0,
            fs=(
                _read_fault("unreadable", 0, writer="worker"),
                _read_fault("truncate", 1, writer="parent", times=2),
            ),
        )
        vfs = chaos_vfs_for_plan(plan)
        faulty = RunStore(tmp_path, vfs=vfs, writer="parent")
        assert [faulty.get(spec) is None for spec in specs] == [
            False, True, True
        ]
        assert [(r.unit, r.kind) for r in vfs.failures] == [
            (1, "corrupt"),
            (2, "corrupt"),
        ]
        assert all("truncate" in r.detail for r in vfs.failures)


class TestEngineFaults:
    def test_observer_raises_at_phase(self):
        observer = PhaseFaultObserver("on_compute", detail="boom")
        with pytest.raises(ChaosEngineFault, match="boom"):
            build_engine(_spec(), observers=[observer]).run()

    def test_observer_waits_for_round_index(self):
        fired_at = []

        class Probe(PhaseFaultObserver):
            def _fire(self, phase, round_index):
                if phase == self.phase and round_index >= self.round_index:
                    fired_at.append(round_index)
                super()._fire(phase, round_index)

        with pytest.raises(ChaosEngineFault):
            build_engine(
                _spec(), observers=[Probe("on_round_end", 2)]
            ).run()
        assert fired_at == [2]

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            PhaseFaultObserver("on_coffee")


class TestChaosPoolRunner:
    def test_transient_fault_is_retried_bit_identical(self, tmp_path):
        specs = _grid(6)
        plan = FaultPlan(
            seed=3, runner=(RunnerFault("transient", spec_index=2),)
        )
        with ChaosPoolRunner(plan, tmp_path / "claims", max_workers=2) as pool:
            results = pool.run(specs)
        serial = SerialRunner().run(specs)
        assert [run_result_to_dict(r) for r in results] == [
            run_result_to_dict(r) for r in serial
        ]
        assert [(r.unit, r.kind) for r in pool.failure_records] == [
            (2, "transient")
        ]

    def test_engine_fault_is_retried_bit_identical(self, tmp_path):
        specs = _grid(4)
        plan = FaultPlan(
            seed=3, engine=(EngineFault("on_move", spec_index=1),)
        )
        with ChaosPoolRunner(plan, tmp_path / "claims", max_workers=2) as pool:
            results = pool.run(specs)
        serial = SerialRunner().run(specs)
        assert [run_result_to_dict(r) for r in results] == [
            run_result_to_dict(r) for r in serial
        ]
        assert [(r.unit, r.kind) for r in pool.failure_records] == [
            (1, "engine")
        ]

    def test_spec_indexed_plan_is_chunksize_portable(self, tmp_path):
        """The same plan yields identical results and an identical
        failure stream under chunksize=1 and chunksize=3: the fault
        follows its spec into whatever unit contains it, and the stream
        records the spec's global index as the canonical unit."""
        specs = _grid(6)
        # Disjoint fault windows (separate run() calls), per the plan
        # contract: concurrent breakage windows race over attempt
        # numbers.
        plan = FaultPlan(
            seed=4,
            runner=(
                RunnerFault("crash", spec_index=1),
                RunnerFault("transient", spec_index=4),
            ),
        )
        serial = [run_result_to_dict(r) for r in SerialRunner().run(specs)]
        streams = []
        for chunksize in (1, 3):
            with ChaosPoolRunner(
                plan,
                tmp_path / f"claims-{chunksize}",
                max_workers=2,
                chunksize=chunksize,
            ) as pool:
                results = pool.run(specs[:3]) + pool.run(specs[3:])
            assert [run_result_to_dict(r) for r in results] == serial
            streams.append(pool.failure_records)
        assert streams[0] == streams[1]
        assert [(r.unit, r.kind) for r in streams[0]] == [
            (1, "crash"),
            (4, "transient"),
        ]

    def test_unit_indices_are_global_across_runs(self, tmp_path):
        # Fault on spec 4 must hit the second run() call's second spec.
        plan = FaultPlan(
            seed=0, runner=(RunnerFault("transient", spec_index=4),)
        )
        with ChaosPoolRunner(plan, tmp_path / "claims", max_workers=2) as pool:
            pool.run(_grid(3))  # specs 0..2, fault not in range
            assert pool.failure_records == []
            pool.run(_grid(3))  # specs 3..5, fault fires on the middle one
        assert [(r.unit, r.kind) for r in pool.failure_records] == [
            (4, "transient")
        ]


class TestReplayGolden:
    def test_same_plan_replays_identically(self, tmp_path):
        """The acceptance golden: the example plan, replayed twice
        against the chaos grid, yields the committed failure stream
        both times -- one record per declared fault, so a fault that
        silently addresses nothing fails here -- and bit-identical
        results (fingerprints equal to the baseline)."""
        plan = FaultPlan.from_json(
            (EXAMPLES / "chaos_plan.json").read_text()
        )
        _, golden = load_failure_stream(
            (EXAMPLES / "chaos_failures.golden.json").read_text()
        )
        first = replay_plan(plan, tmp_path / "a", jobs=2)
        second = replay_plan(
            plan,
            tmp_path / "b",
            jobs=2,
            baseline_fingerprint=first.baseline_fingerprint,
        )
        assert first.converged and second.converged
        assert first.failures == golden
        assert second.failures == golden
        assert len(golden) == plan.fault_count
        assert first.cold_fingerprint == second.cold_fingerprint
        assert first.warm_fingerprint == second.warm_fingerprint
        assert first.warm_fingerprint == first.baseline_fingerprint
        assert first.corrupt_entries == 3

    def test_campaign_tolerates_three_corrupt_entries(self, tmp_path):
        """The acceptance store criterion: three injected corrupt entries,
        the grid completes, corrupt_entries=3 reported, entries
        quarantined, every affected spec recomputed -- zero wrong
        results served (convergence is bit-identity)."""
        plan = FaultPlan(
            seed=9,
            fs=(
                _read_fault("bit_flip", 2),
                _read_fault("unreadable", 10),
                _read_fault("truncate", 20),
            ),
        )
        report = replay_plan(plan, tmp_path, jobs=2)
        assert report.converged
        assert report.corrupt_entries == 3
        assert [r.kind for r in report.failures] == ["corrupt"] * 3
        quarantined = list((tmp_path / "store" / "quarantine").glob("*.json"))
        assert len(quarantined) == 3
        # The machine-readable report round-trips.
        data = report.to_dict()
        assert data["converged"] and data["corrupt_entries"] == 3
        assert len(data["failures"]) == 3
        assert "CONVERGED" in report.render()

    def test_grid_workload_and_divergence_detection(self, tmp_path):
        specs = _grid(4)
        plan = FaultPlan(seed=1)
        report = replay_plan(plan, tmp_path, specs=specs, jobs=2)
        assert report.converged and report.runs == len(specs)
        # A wrong baseline fingerprint must be flagged as divergence.
        bad = replay_plan(
            plan,
            tmp_path / "again",
            specs=specs,
            jobs=2,
            baseline_fingerprint="0" * 64,
        )
        assert not bad.converged
        assert "DIVERGED" in bad.render()


class TestChaosGrid:
    def test_every_spec_runs_records_and_disperses(self):
        for spec in chaos_grid():
            result = repro.execute(spec)
            assert spec.collect_records, spec.label
            assert result.rounds >= 1 and result.records, spec.label
            assert result.dispersed, spec.label

    def test_grid_covers_backends_schedulers_and_faults(self):
        specs = chaos_grid()
        assert 20 <= len(specs) <= 30
        assert len({spec_digest(spec) for spec in specs}) == len(specs)
        assert {
            spec.backend.name for spec in specs if spec.backend is not None
        } == {"reference", "vectorized"}
        assert {
            spec.scheduler.name if spec.scheduler is not None else "fsync"
            for spec in specs
        } == {"fsync", "ssync", "async"}
        graphs = {spec.graph.name for spec in specs}
        assert {"random_churn", "static_family"} <= graphs
        assert any(spec.crash is not None for spec in specs)

    def test_first_three_specs_are_the_crash_matrix_grid(self):
        assert chaos_grid()[:3] == [
            make_spec(
                "ring",
                {"n": 6},
                k=4,
                seed=seed,
                label=f"crash-matrix seed={seed}",
            )
            for seed in range(3)
        ]

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(runner=(RunnerFault("crash", spec_index=4),)),
            FaultPlan(engine=(EngineFault("on_compute", spec_index=9),)),
        ],
    )
    def test_address_past_the_grid_raises_before_any_pass(
        self, tmp_path, plan
    ):
        with pytest.raises(PlanError, match="4-spec grid"):
            replay_plan(plan, tmp_path / "root", specs=_grid(4))
        assert not (tmp_path / "root").exists()


class TestCampaignFailureReporting:
    def test_campaign_json_carries_failure_records(self, tmp_path):
        from repro.analysis.campaign import run_campaign

        store_root = tmp_path / "store"
        plan = FaultPlan(
            seed=6, runner=(RunnerFault("transient", spec_index=1),)
        )
        store = RunStore(store_root, vfs=chaos_vfs_for_plan(plan))
        with ChaosPoolRunner(
            plan,
            tmp_path / "claims",
            max_workers=2,
            store=RunStore(store_root),
        ) as pool:
            report = run_campaign("quick", runner=CachingRunner(pool, store))
        assert report.all_passed
        assert [f["kind"] for f in report.failures] == ["transient"]
        assert report.to_dict()["failures"] == report.failures
        assert "faults tolerated" in report.render()

    def test_clean_campaign_reports_no_failures(self, quick_campaign):
        report = quick_campaign
        assert report.failures == []
        assert report.to_dict()["failures"] == []


class TestSlowFault:
    def test_latency_is_invisible_in_results_and_stream(self, tmp_path):
        """A ``slow`` fault delays a unit under the pool timeout: the
        unit completes, results stay bit-identical with a fault-free
        serial pass, and nothing enters the failure stream."""
        specs = _grid(4)
        plan = FaultPlan(
            seed=1, runner=(RunnerFault("slow", spec_index=1, seconds=0.2),)
        )
        with ChaosPoolRunner(plan, tmp_path / "claims", max_workers=2) as pool:
            results = pool.run(specs)
        serial = SerialRunner().run(specs)
        assert [run_result_to_dict(r) for r in results] == [
            run_result_to_dict(r) for r in serial
        ]
        assert pool.failure_records == []

    def test_slow_kind_is_a_valid_plan_entry(self):
        plan = FaultPlan(
            runner=(RunnerFault("slow", spec_index=0, seconds=0.1),)
        )
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestFailureStreamGolden:
    RECORDS = [
        FailureRecord(unit=3, attempt=0, kind="crash", detail="lost"),
        FailureRecord(unit=1, attempt=1, kind="transient", detail="retried"),
    ]

    def test_render_load_round_trip_is_canonical(self):
        text = render_failure_stream("abc123", self.RECORDS)
        digest, loaded = load_failure_stream(text)
        assert digest == "abc123"
        assert loaded == sorted(self.RECORDS)
        # re-rendering the loaded stream reproduces the exact bytes
        assert render_failure_stream("abc123", loaded) == text

    def test_diff_uses_multiset_semantics(self):
        base = [self.RECORDS[1]]
        assert diff_failure_streams(base, base) == []
        assert diff_failure_streams(base + base, base) == [
            "+ unexpected (x1): unit 1 attempt 1 [transient] retried"
        ]
        assert diff_failure_streams([], base) == [
            "- missing (x1): unit 1 attempt 1 [transient] retried"
        ]

    def test_load_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="chaos_failure_stream"):
            load_failure_stream('{"kind": "something_else"}')
        with pytest.raises(ValueError, match="JSON"):
            load_failure_stream("{not json")

    def test_committed_golden_matches_the_example_plan(self):
        """The checked-in snapshot must stay addressed to the checked-in
        plan; CI replays the plan and diffs the streams."""
        plan = FaultPlan.from_json(
            (EXAMPLES / "chaos_plan.json").read_text()
        )
        digest, records = load_failure_stream(
            (EXAMPLES / "chaos_failures.golden.json").read_text()
        )
        assert digest == plan_digest(plan)
        assert len(records) == plan.fault_count
