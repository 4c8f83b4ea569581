"""Tests for JSON serialization and replay of runs and graph scripts."""

import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import RandomChurnDynamicGraph
from repro.graph.generators import path_graph, random_connected_graph
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.spec import ComponentSpec, CrashSpec, execute, make_spec
from repro.sim.metrics import TerminationReason
from repro.sim.traceio import (
    dynamic_graph_to_script,
    replay_and_verify,
    run_fingerprint,
    run_result_from_dict,
    run_result_to_dict,
    run_result_to_json,
    script_from_dict,
    script_to_dict,
    snapshot_from_dict,
    snapshot_to_dict,
)
from tests.test_backend import generated_specs


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_preserves_everything(self, seed):
        rng = random.Random(seed)
        snapshot = random_connected_graph(12, 8, rng)
        restored = snapshot_from_dict(snapshot_to_dict(snapshot))
        assert restored == snapshot  # ports included

    def test_json_serializable(self):
        payload = snapshot_to_dict(path_graph(5))
        assert snapshot_from_dict(json.loads(json.dumps(payload))) == path_graph(5)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError):
            snapshot_from_dict({"n": 3})
        with pytest.raises(ValueError):
            snapshot_from_dict({"n": "x", "ports": []})


class TestScripts:
    def test_freeze_oblivious_process(self):
        dyn = RandomChurnDynamicGraph(10, extra_edges=4, seed=1)
        script = dynamic_graph_to_script(dyn, 5)
        for r in range(5):
            assert script.snapshot(r) == dyn.snapshot(r)
        # tail holds the last snapshot
        assert script.snapshot(9) == dyn.snapshot(4)

    def test_adaptive_process_rejected(self):
        from repro.adversary.star_lower_bound import StarStarAdversary

        with pytest.raises(ValueError):
            dynamic_graph_to_script(StarStarAdversary(8, [0]), 3)

    def test_rejects_zero_rounds(self):
        dyn = RandomChurnDynamicGraph(6, seed=2)
        with pytest.raises(ValueError):
            dynamic_graph_to_script(dyn, 0)

    def test_script_dict_roundtrip(self):
        dyn = RandomChurnDynamicGraph(8, extra_edges=3, seed=3)
        script = dynamic_graph_to_script(dyn, 4)
        payload = script_to_dict(script, 4)
        restored = script_from_dict(json.loads(json.dumps(payload)))
        for r in range(4):
            assert restored.snapshot(r) == script.snapshot(r)

    def test_script_from_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            script_from_dict({"kind": "something_else", "snapshots": []})


class TestRunResultExport:
    def run(self):
        dyn = RandomChurnDynamicGraph(12, extra_edges=5, seed=4)
        return SimulationEngine(
            dyn, RobotSet.rooted(8, 12), DispersionDynamic()
        ).run()

    def test_dict_fields(self):
        result = self.run()
        payload = run_result_to_dict(result)
        assert payload["kind"] == "run_result"
        assert payload["reason"] == "dispersed"
        assert payload["rounds"] == result.rounds
        assert len(payload["records"]) == result.rounds
        assert payload["final_positions"] == {
            str(r): v for r, v in result.final_positions.items()
        }

    def test_json_string(self):
        result = self.run()
        text = run_result_to_json(result, indent=1)
        decoded = json.loads(text)
        assert decoded["k"] == 8 and decoded["n"] == 12

    def test_records_round_numbers_contiguous(self):
        payload = run_result_to_dict(self.run())
        rounds = [rec["round"] for rec in payload["records"]]
        assert rounds == list(range(len(rounds)))

    def test_fsync_export_has_no_scheduler_fields(self):
        """FSYNC exports stay byte-identical to the historical format:
        no epoch/activated keys in records, no final_epoch."""
        payload = run_result_to_dict(self.run())
        assert "final_epoch" not in payload
        for record in payload["records"]:
            assert "epoch" not in record
            assert "activated" not in record

    def test_scheduler_timeline_round_trips(self):
        from repro.sim.scheduling import AsyncScheduler

        dyn = RandomChurnDynamicGraph(12, extra_edges=5, seed=4)
        result = SimulationEngine(
            dyn,
            RobotSet.rooted(8, 12),
            DispersionDynamic(),
            scheduler=AsyncScheduler(seed=6, max_delay=3, move_max_delay=2),
            max_rounds=20000,
        ).run()
        assert result.final_epoch is not None
        payload = json.loads(json.dumps(run_result_to_dict(result)))
        restored = run_result_from_dict(payload)
        assert restored == result
        assert restored.final_epoch == result.final_epoch
        assert restored.activation_timeline() == result.activation_timeline()
        assert restored.activation_timeline()


def _per_record_dict(result):
    """The export with every record's containers converted afresh: the
    layout ``run_result_to_dict`` must match byte for byte."""
    payload = run_result_to_dict(result)
    for entry, record in zip(payload["records"], result.records):
        for field in ("positions_before", "positions_after"):
            entry[field] = {
                str(r): v for r, v in getattr(record, field).items()
            }
        for field in ("occupied_before", "occupied_after"):
            entry[field] = sorted(getattr(record, field))
    return payload


class TestSharedRecordContainers:
    """Each configuration container of the records is converted once, and
    the export shares the converted dict or list as the records do."""

    BEFORE_COMMUNICATE_ROUND = 2

    def crash_run(self):
        return execute(
            make_spec(
                "random_churn",
                {"n": 16, "extra_edges": 8},
                k=10,
                seed=5,
                collect_records=True,
                crash=CrashSpec(
                    kind="events",
                    events=(
                        (1, self.BEFORE_COMMUNICATE_ROUND, "before_communicate"),
                        (3, 3, "after_compute"),
                    ),
                ),
            )
        )

    def ssync_run(self):
        return execute(
            make_spec(
                "random_churn",
                {"n": 16, "extra_edges": 8},
                k=10,
                seed=5,
                collect_records=True,
                scheduler=ComponentSpec(
                    "ssync", {"policy": "random_subset", "p": 0.3, "seed": 3}
                ),
            )
        )

    def test_consecutive_fsync_records_share_containers(self):
        records = run_result_to_dict(TestRunResultExport().run())["records"]
        assert len(records) >= 2
        for previous, entry in zip(records, records[1:]):
            assert entry["positions_before"] is previous["positions_after"]
            assert entry["occupied_before"] is previous["occupied_after"]

    def test_before_communicate_crash_breaks_sharing(self):
        result = self.crash_run()
        crash = self.BEFORE_COMMUNICATE_ROUND
        assert result.rounds > crash
        records = run_result_to_dict(result)["records"]
        previous, entry = records[crash - 1], records[crash]
        assert entry["positions_before"] is not previous["positions_after"]
        assert entry["occupied_before"] is not previous["occupied_after"]
        assert "1" in previous["positions_after"]
        assert "1" not in entry["positions_before"]
        record = result.records[crash]
        assert entry["positions_before"] == {
            str(r): v for r, v in record.positions_before.items()
        }
        assert entry["occupied_before"] == sorted(record.occupied_before)

    @pytest.mark.parametrize("run", ["crash_run", "ssync_run"])
    def test_bytes_match_a_per_record_conversion(self, run):
        result = getattr(self, run)()
        assert json.dumps(run_result_to_dict(result), sort_keys=True) == (
            json.dumps(_per_record_dict(result), sort_keys=True)
        )

    @pytest.mark.parametrize("run", ["crash_run", "ssync_run"])
    def test_round_trips(self, run):
        result = getattr(self, run)()
        payload = json.loads(json.dumps(run_result_to_dict(result)))
        assert run_result_from_dict(payload) == result


def _oracle_json(result, indent=None):
    """The whole-tree export the streaming encoder must reproduce."""
    return json.dumps(run_result_to_dict(result), indent=indent, sort_keys=True)


def _oracle_fingerprint(result):
    return hashlib.sha256(_oracle_json(result).encode("utf-8")).hexdigest()


def _assert_matches_oracle(result):
    for indent in (None, 1, 2):
        assert run_result_to_json(result, indent=indent) == (
            _oracle_json(result, indent)
        ), indent
    assert run_fingerprint(result) == _oracle_fingerprint(result)


_CHURN = ("random_churn", {"n": 16, "extra_edges": 8})

#: One run per shape of record the export must stream.
STREAM_CASES = {
    "snapshots": make_spec(*_CHURN, k=10, seed=5, collect_snapshots=True),
    "ssync": make_spec(*_CHURN, k=10, seed=5, scheduler=ComponentSpec(
        "ssync", {"policy": "random_subset", "p": 0.3, "seed": 3})),
    "async": make_spec(*_CHURN, k=10, seed=5, scheduler=ComponentSpec(
        "async", {"seed": 5, "distribution": "uniform", "max_delay": 3})),
    "crash": make_spec(*_CHURN, k=10, seed=5, crash=CrashSpec(
        kind="events",
        events=((1, 2, "before_communicate"), (3, 3, "after_compute")),
    )),
    "byzantine": make_spec(
        *_CHURN, k=10, seed=5, max_rounds=60,
        byzantine={1: ComponentSpec("hide_multiplicity")},
    ),
    "already_dispersed": make_spec(*_CHURN, k=1, seed=5),
}


class TestStreamingExport:
    """``run_result_to_json`` and ``run_fingerprint`` stream the export one
    record at a time; the whole-tree ``json.dumps`` is the oracle."""

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_bytes_match_the_whole_tree_encoding(self, case):
        result = execute(STREAM_CASES[case])
        if case == "already_dispersed":
            assert result.reason is TerminationReason.ALREADY_DISPERSED
            assert result.records == []
        else:
            assert result.records
        if case == "snapshots":
            assert all(record.snapshot is not None for record in result.records)
        if case in ("ssync", "async"):
            assert result.final_epoch is not None
        _assert_matches_oracle(result)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(spec=generated_specs(), snapshots=st.booleans())
    def test_generated_runs_match_the_oracle(self, spec, snapshots):
        _assert_matches_oracle(execute(spec.with_(collect_snapshots=snapshots)))

    def test_fingerprint_never_holds_the_whole_export(self):
        result = execute(make_spec(
            "static_family", {"family": "random_dense", "n": 256}, k=200,
            seed=3, backend=ComponentSpec("vectorized"),
        ))
        assert len(result.records) >= 100
        size = len(run_result_to_json(result))
        tracemalloc.start()
        try:
            fingerprint = run_fingerprint(result)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fingerprint == _oracle_fingerprint(result)
        assert peak < size / 4, (peak, size)


class TestReplay:
    def test_replay_matches(self):
        dyn = RandomChurnDynamicGraph(14, extra_edges=6, seed=5)
        robots = RobotSet.rooted(10, 14)
        original = SimulationEngine(dyn, robots, DispersionDynamic()).run()
        script = dynamic_graph_to_script(
            RandomChurnDynamicGraph(14, extra_edges=6, seed=5),
            original.rounds + 1,
        )
        replayed = replay_and_verify(script, robots.positions, original)
        assert replayed.final_positions == original.final_positions

    def test_replay_detects_divergence(self):
        dyn = RandomChurnDynamicGraph(14, extra_edges=6, seed=6)
        robots = RobotSet.rooted(10, 14)
        original = SimulationEngine(dyn, robots, DispersionDynamic()).run()
        # a script from a different seed will not reproduce the run
        wrong_script = dynamic_graph_to_script(
            RandomChurnDynamicGraph(14, extra_edges=6, seed=7),
            original.rounds + 1,
        )
        with pytest.raises(AssertionError):
            replay_and_verify(wrong_script, robots.positions, original)


class TestRecordingWrapper:
    """RecordingDynamicGraph: adaptive adversary runs become replayable."""

    def test_records_and_replays_adversary_run(self):
        from repro.adversary.star_lower_bound import StarStarAdversary
        from repro.graph.dynamic import RecordingDynamicGraph

        k, n = 10, 14
        recorder = RecordingDynamicGraph(StarStarAdversary(n, [0], seed=4))
        robots = RobotSet.rooted(k, n)
        original = SimulationEngine(
            recorder, robots, DispersionDynamic()
        ).run()
        assert original.dispersed and original.rounds == k - 1
        assert recorder.recorded_rounds >= original.rounds

        script = recorder.to_script()
        replayed = replay_and_verify(script, robots.positions, original)
        assert replayed.rounds == original.rounds

    def test_adaptive_flag_passthrough(self):
        from repro.adversary.star_lower_bound import StarStarAdversary
        from repro.graph.dynamic import RecordingDynamicGraph

        assert RecordingDynamicGraph(
            StarStarAdversary(6, [0])
        ).is_adaptive
        assert not RecordingDynamicGraph(
            RandomChurnDynamicGraph(6, seed=1)
        ).is_adaptive

    def test_empty_recording_rejected(self):
        from repro.graph.dynamic import RecordingDynamicGraph

        recorder = RecordingDynamicGraph(RandomChurnDynamicGraph(6, seed=1))
        with pytest.raises(ValueError):
            recorder.to_script()

    def test_recorded_script_serializes(self):
        from repro.graph.dynamic import RecordingDynamicGraph

        recorder = RecordingDynamicGraph(
            RandomChurnDynamicGraph(8, extra_edges=3, seed=2)
        )
        SimulationEngine(
            recorder, RobotSet.rooted(5, 8), DispersionDynamic()
        ).run()
        script = recorder.to_script()
        payload = script_to_dict(script, recorder.recorded_rounds)
        restored = script_from_dict(json.loads(json.dumps(payload)))
        for r in range(recorder.recorded_rounds):
            assert restored.snapshot(r) == script.snapshot(r)
