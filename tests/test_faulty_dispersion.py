"""Tests for FAULTYDISPERSION (Section VII): crash faults.

Covers Definition 6 (survivors reach distinct nodes), the O(k - f) round
shape of Theorem 5, both crash phases, component splits caused by crashes,
and the "vacated node becomes fresh empty territory" behavior.
"""

import random

import pytest

from repro.analysis.bounds import check_rounds_upper_bound
from repro.core.dispersion import DispersionDynamic
from repro.graph.dynamic import RandomChurnDynamicGraph, StaticDynamicGraph
from repro.graph.generators import path_graph, star_graph
from repro.robots.faults import CrashEvent, CrashPhase, CrashSchedule
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import TerminationReason


def run_with_schedule(n, k, schedule, seed=0, **kwargs):
    dyn = RandomChurnDynamicGraph(n, extra_edges=n // 2, seed=seed)
    return SimulationEngine(
        dyn,
        RobotSet.rooted(k, n),
        DispersionDynamic(),
        crash_schedule=schedule,
        **kwargs,
    ).run()


class TestSurvivorDispersion:
    @pytest.mark.parametrize("f", [1, 3, 6, 10])
    def test_survivors_on_distinct_nodes(self, f):
        k, n = 16, 24
        rng = random.Random(f)
        schedule = CrashSchedule.random_schedule(k, f, k // 2, rng)
        result = run_with_schedule(n, k, schedule, seed=f)
        assert result.dispersed
        # crashes scheduled after the run ended never strike
        applied = set(result.crashed_robots)
        assert applied <= {e.robot_id for e in schedule.events()}
        assert result.alive_count == k - len(applied)
        assert len(set(result.final_positions.values())) == result.alive_count

    @pytest.mark.parametrize("phase", list(CrashPhase))
    def test_single_crash_each_phase(self, phase):
        k, n = 10, 16
        schedule = CrashSchedule([CrashEvent(4, 2, phase)])
        result = run_with_schedule(n, k, schedule, seed=7)
        assert result.dispersed
        assert result.crashed_robots == (4,)
        assert 4 not in result.final_positions

    def test_crash_of_settled_robot_vacates_node(self):
        """A robot alone on its node crashes after Compute: its node empties
        and is re-colonized in later rounds."""
        k, n = 8, 12
        # robot 1 settles at the root node from round 0; crash it late.
        schedule = CrashSchedule([CrashEvent(1, 3, CrashPhase.AFTER_COMPUTE)])
        result = run_with_schedule(n, k, schedule, seed=5)
        assert result.dispersed
        assert result.alive_count == k - 1

    def test_all_crash(self):
        k, n = 5, 8
        schedule = CrashSchedule(
            [
                CrashEvent(i, 1, CrashPhase.BEFORE_COMMUNICATE)
                for i in range(1, k + 1)
            ]
        )
        result = run_with_schedule(n, k, schedule, seed=2)
        assert result.reason is TerminationReason.ALL_CRASHED
        assert result.alive_count == 0

    def test_crash_before_round_zero(self):
        k, n = 8, 12
        schedule = CrashSchedule(
            [CrashEvent(8, 0, CrashPhase.BEFORE_COMMUNICATE)]
        )
        result = run_with_schedule(n, k, schedule, seed=1)
        assert result.dispersed
        assert result.alive_count == 7


class TestTheorem5Shape:
    @pytest.mark.parametrize("f", [0, 4, 8, 12])
    def test_rounds_bounded_by_k_minus_f(self, f):
        """Every crash run meets the potential bound ``k - alpha_0``
        (docs/model.md)."""
        k, n = 16, 26
        rng = random.Random(100 + f)
        schedule = CrashSchedule.random_schedule(
            k, f, 2, rng, phases=[CrashPhase.BEFORE_COMMUNICATE]
        )
        result = run_with_schedule(n, k, schedule, seed=3)
        assert result.dispersed
        assert check_rounds_upper_bound(result), (
            f,
            result.rounds,
        )

    def test_fewer_rounds_with_more_early_faults(self):
        """Monotone trend over f (averaged over seeds)."""
        k, n = 24, 36

        def mean_rounds(f):
            totals = 0
            for seed in range(4):
                rng = random.Random(f * 37 + seed)
                schedule = CrashSchedule.random_schedule(
                    k, f, 1, rng, phases=[CrashPhase.BEFORE_COMMUNICATE]
                )
                result = run_with_schedule(n, k, schedule, seed=seed)
                assert result.dispersed
                totals += result.rounds
            return totals / 4

        assert mean_rounds(16) < mean_rounds(0)


class TestComponentSplitByCrash:
    def test_path_component_splits(self):
        """Crashing the middle robot of an occupied path splits the
        component; both halves keep working."""
        snap = path_graph(7)
        positions = {1: 1, 2: 1, 3: 2, 4: 3, 5: 3}  # occupied 1,2,3
        schedule = CrashSchedule(
            [CrashEvent(3, 1, CrashPhase.BEFORE_COMMUNICATE)]
        )
        result = SimulationEngine(
            StaticDynamicGraph(snap),
            positions,
            DispersionDynamic(),
            crash_schedule=schedule,
        ).run()
        assert result.dispersed
        assert result.alive_count == 4
        assert len(set(result.final_positions.values())) == 4

    def test_crash_at_multiplicity_node(self):
        """Crashing one of two co-located robots resolves that node."""
        snap = star_graph(6)
        positions = {1: 0, 2: 0, 3: 1}
        schedule = CrashSchedule(
            [CrashEvent(2, 0, CrashPhase.BEFORE_COMMUNICATE)]
        )
        result = SimulationEngine(
            StaticDynamicGraph(snap),
            positions,
            DispersionDynamic(),
            crash_schedule=schedule,
        ).run()
        assert result.reason is TerminationReason.DISPERSED
        assert result.rounds == 0  # crash alone completed the dispersion


class TestFaultyMemory:
    def test_memory_unchanged_by_faults(self):
        k, n = 32, 48
        rng = random.Random(9)
        schedule = CrashSchedule.random_schedule(k, 10, 8, rng)
        result = run_with_schedule(n, k, schedule, seed=9)
        assert result.dispersed
        assert result.max_persistent_bits == 6  # ceil(log2(32+1))

    def test_memory_audited_when_round_zero_crashes_disperse(self):
        """Crashes before round 0's Communicate that leave the robots
        dispersed execute no round; the audit still reports the IDs'
        width, as an already-dispersed start does."""
        positions = {1: 0, 2: 0, 3: 1, 4: 2}
        schedule = CrashSchedule(
            [CrashEvent(2, 0, CrashPhase.BEFORE_COMMUNICATE)]
        )
        result = SimulationEngine(
            StaticDynamicGraph(path_graph(4)),
            positions,
            DispersionDynamic(),
            crash_schedule=schedule,
        ).run()
        assert result.reason is TerminationReason.DISPERSED
        assert result.rounds == 0
        assert result.max_persistent_bits == 3  # ceil(log2(4+1))
        already = SimulationEngine(
            StaticDynamicGraph(path_graph(4)),
            {1: 0, 2: 1, 3: 2, 4: 3},
            DispersionDynamic(),
        ).run()
        assert already.reason is TerminationReason.ALREADY_DISPERSED
        assert already.max_persistent_bits == result.max_persistent_bits


class TestFaithfulModeWithFaults:
    def test_faithful_equals_fast_under_crashes(self):
        k, n, seed = 12, 18, 4
        rng = random.Random(seed)
        schedule = CrashSchedule.random_schedule(k, 4, 5, rng)

        def one(faithful):
            dyn = RandomChurnDynamicGraph(n, extra_edges=6, seed=seed)
            return SimulationEngine(
                dyn,
                RobotSet.rooted(k, n),
                DispersionDynamic(faithful=faithful),
                crash_schedule=schedule,
            ).run()

        fast, faithful = one(False), one(True)
        assert fast.rounds == faithful.rounds
        assert fast.final_positions == faithful.final_positions
