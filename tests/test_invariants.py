"""Tests for post-hoc run invariant verification."""

import dataclasses
import random

import pytest

from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import RandomChurnDynamicGraph
from repro.robots.faults import CrashSchedule
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.invariants import (
    PotentialViolation,
    check_moves_bounded_by_paths,
    check_moves_cross_edges,
    check_potential,
    check_potential_round,
    check_robots_conserved,
    check_round_indices,
    verify_run,
)
from repro.sim.scheduling import RandomSubsetActivation, SsyncScheduler


def canonical_run(seed=0, k=12, n=18, **kwargs):
    dyn = RandomChurnDynamicGraph(n, extra_edges=n // 2, seed=seed)
    return SimulationEngine(
        dyn,
        RobotSet.rooted(k, n),
        DispersionDynamic(),
        collect_snapshots=True,
        **kwargs,
    ).run()


class TestCleanRuns:
    @pytest.mark.parametrize("seed", range(5))
    def test_canonical_run_is_clean(self, seed):
        result = canonical_run(seed)
        assert verify_run(result) == []

    def test_arbitrary_start_clean(self):
        n, k = 20, 14
        dyn = RandomChurnDynamicGraph(n, extra_edges=8, seed=3)
        robots = RobotSet.arbitrary(k, n, random.Random(3))
        result = SimulationEngine(
            dyn, robots, DispersionDynamic(), collect_snapshots=True
        ).run()
        assert verify_run(result) == []


class TestFaultyRuns:
    def test_paper_invariants_hold_for_faulty(self):
        schedule = CrashSchedule.random_schedule(12, 3, 4, random.Random(1))
        result = canonical_run(1, crash_schedule=schedule)
        assert result.crashed_robots
        assert verify_run(result) == []

    def test_after_compute_crash_may_empty_a_sending_node(self):
        # Seed 18: in round 2 node 9 sends its only robot (2) away, and
        # robot 6, sliding in from node 0 to replace it, crashes after
        # Compute, so node 9 ends empty.
        schedule = CrashSchedule.random_schedule(12, 4, 4, random.Random(18))
        result = canonical_run(18, crash_schedule=schedule)
        record = result.records[2]
        assert record.crashed_after_compute == (6,)
        assert record.occupied_before - record.occupied_after == {9}
        assert record.positions_before[2] == 9 != record.positions_after[2]
        assert check_moves_bounded_by_paths(result) == []
        assert verify_run(result) == []
        # The same round without the crash excuse is flagged.
        result.records[2] = dataclasses.replace(
            record, crashed_after_compute=()
        )
        assert check_moves_bounded_by_paths(result) == [
            "round 2: node 9 sent [2] away and ended empty"
        ]

    def test_model_invariants_hold_for_faulty(self):
        schedule = CrashSchedule.random_schedule(12, 3, 4, random.Random(2))
        result = canonical_run(2, crash_schedule=schedule)
        assert verify_run(result, expect_paper_invariants=False) == []


class TestSemiSyncRuns:
    def test_model_holds_paper_may_break(self):
        dyn = RandomChurnDynamicGraph(16, extra_edges=6, seed=5)
        result = SimulationEngine(
            dyn,
            RobotSet.rooted(10, 16),
            DispersionDynamic(),
            scheduler=SsyncScheduler(RandomSubsetActivation(0.5, seed=5)),
            collect_snapshots=True,
            max_rounds=4000,
        ).run()
        assert result.dispersed
        assert verify_run(result, expect_paper_invariants=False) == []
        # Lemma 7's potential is expected to stall somewhere under sparse
        # activation (the E5 finding)
        assert check_potential(result)  # at least one violation recorded


class TestDetectors:
    """Hand-corrupted records must trip the checkers."""

    def corrupted(self, mutate):
        result = canonical_run(7)
        record = result.records[0]
        result.records[0] = dataclasses.replace(record, **mutate(record))
        return result

    def test_round_index_corruption(self):
        result = self.corrupted(lambda r: {"round_index": 5})
        assert check_round_indices(result)

    def test_teleport_detected(self):
        def mutate(record):
            robot = min(record.positions_after)
            positions = dict(record.positions_after)
            # move the robot to a node that is never adjacent: itself + 2
            # may be adjacent, so pick a node with no edge in the snapshot
            snapshot = record.snapshot
            current = record.positions_before[robot]
            non_neighbors = [
                v
                for v in snapshot.nodes()
                if v != current and not snapshot.has_edge(current, v)
            ]
            positions[robot] = non_neighbors[0]
            return {"positions_after": positions}

        result = self.corrupted(mutate)
        assert check_moves_cross_edges(result)

    def test_vanishing_robot_detected(self):
        def mutate(record):
            positions = dict(record.positions_after)
            positions.pop(min(positions))
            return {"positions_after": positions}

        result = self.corrupted(mutate)
        assert check_robots_conserved(result)

    def test_missing_snapshot_reported(self):
        result = self.corrupted(lambda r: {"snapshot": None})
        assert any(
            "collect_snapshots" in v for v in check_moves_cross_edges(result)
        )

    def test_vacated_node_detected(self):
        def mutate(record):
            return {
                "occupied_after": frozenset(
                    list(record.occupied_after)[:-1]
                ) - record.occupied_before
            }

        result = self.corrupted(mutate)
        assert any("vacated" in v for v in check_potential(result))

    def test_zero_progress_detected(self):
        def mutate(record):
            return {"occupied_after": record.occupied_before}

        result = self.corrupted(mutate)
        assert any("did not fall" in v for v in check_potential(result))

    @staticmethod
    def lone_robot_crash(record):
        """``record`` with one lone robot that stayed put crashing after
        Compute: its node empties, and U falls exactly as before."""
        before = record.positions_before
        loads = {}
        for node in before.values():
            loads[node] = loads.get(node, 0) + 1
        robot = next(
            r for r, node in sorted(before.items())
            if loads[node] == 1 and record.positions_after[r] == node
            and list(record.positions_after.values()).count(node) == 1
        )
        positions = dict(record.positions_after)
        node = positions.pop(robot)
        return dataclasses.replace(
            record,
            positions_after=positions,
            occupied_after=record.occupied_after - {node},
            crashed_after_compute=(robot,),
        )

    def settled_round(self):
        """A clean round that starts with a lone robot and makes progress."""
        result = canonical_run(7)
        record = next(
            r for r in result.records
            if len(r.occupied_before) >= 2 and r.newly_occupied
        )
        assert check_potential_round(record) == PotentialViolation.NONE
        return record

    def test_after_compute_crash_may_vacate(self):
        crashed = self.lone_robot_crash(self.settled_round())
        assert not crashed.occupied_before <= crashed.occupied_after
        assert check_potential_round(crashed) == PotentialViolation.NONE

    def test_vacating_without_crash_flagged(self):
        crashed = self.lone_robot_crash(self.settled_round())
        record = dataclasses.replace(crashed, crashed_after_compute=())
        assert check_potential_round(record) == PotentialViolation.VACATED

    def test_potential_stall_flagged(self):
        record = self.settled_round()
        # every move undone: U stays where it was although a robot crashed
        stalled = self.lone_robot_crash(dataclasses.replace(
            record,
            positions_after=dict(record.positions_before),
            occupied_after=record.occupied_before,
        ))
        assert (
            check_potential_round(stalled) == PotentialViolation.NO_PROGRESS
        )
