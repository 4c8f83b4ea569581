"""Tests for robot identities, placements, memory accounting, and faults."""

import math
import random

import pytest

from repro.robots.faults import CrashEvent, CrashPhase, CrashSchedule
from repro.robots.memory import bits_for_state, bits_for_value, bound_bits
from repro.robots.robot import RobotSet, validate_robot_ids


class TestValidateRobotIds:
    def test_accepts_contiguous(self):
        assert validate_robot_ids([3, 1, 2]) == [1, 2, 3]

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            validate_robot_ids([1, 3])

    def test_rejects_zero_based(self):
        with pytest.raises(ValueError):
            validate_robot_ids([0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_robot_ids([])


class TestRobotSet:
    def test_rooted(self):
        robots = RobotSet.rooted(5, 10, root=3)
        assert robots.k == 5
        assert robots.occupied_nodes() == [3]
        assert robots.multiplicity_nodes() == [3]
        assert not robots.is_dispersed()

    def test_rejects_k_greater_than_n(self):
        with pytest.raises(ValueError):
            RobotSet.rooted(5, 4)

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError):
            RobotSet({1: 9}, 5)

    def test_arbitrary_respects_num_occupied(self):
        robots = RobotSet.arbitrary(8, 12, random.Random(1), num_occupied=3)
        assert len(robots.occupied_nodes()) == 3

    def test_arbitrary_all_spread(self):
        robots = RobotSet.arbitrary(6, 10, random.Random(2), num_occupied=6)
        assert robots.is_dispersed()

    def test_arbitrary_rejects_bad_num_occupied(self):
        with pytest.raises(ValueError):
            RobotSet.arbitrary(4, 8, random.Random(0), num_occupied=5)

    def test_arbitrary_rejects_k_over_n(self):
        with pytest.raises(ValueError):
            RobotSet.arbitrary(9, 8, random.Random(0))

    def test_from_node_loads(self):
        robots = RobotSet.from_node_loads({2: 3, 5: 1}, 8)
        assert robots.k == 4
        assert robots.multiplicity_nodes() == [2]
        positions = robots.positions
        assert sorted(positions) == [1, 2, 3, 4]

    def test_from_node_loads_rejects_negative(self):
        with pytest.raises(ValueError):
            RobotSet.from_node_loads({0: -1}, 3)

    def test_positions_returns_copy(self):
        robots = RobotSet.rooted(3, 5)
        robots.positions[1] = 4
        assert robots.positions[1] == 0

    def test_repr(self):
        assert "k=3" in repr(RobotSet.rooted(3, 5))


class TestMemoryAccounting:
    def test_robot_id_bits(self):
        """A robot ID from [1, k] costs ``bound_bits(k)``: the width the
        engine's audit charges (5 bits for k = 16, not ceil(log2 16))."""
        assert bound_bits(1) == 1
        assert bound_bits(2) == 2
        assert bound_bits(15) == 4
        assert bound_bits(16) == 5
        assert bound_bits(17) == 5
        assert bits_for_state({"id": 16}, bounds={"id": 16}) == bound_bits(16)

    def test_bool_is_one_bit(self):
        assert bits_for_value(True) == 1
        assert bits_for_value(False) == 1

    def test_bounded_int(self):
        assert bits_for_value(3, bound=15) == 4
        assert bits_for_value(0, bound=1) == 1

    def test_bounded_int_rejects_overflow(self):
        with pytest.raises(ValueError):
            bits_for_value(20, bound=15)

    def test_unbounded_int_uses_bit_length(self):
        assert bits_for_value(255) == 8
        assert bits_for_value(-4) == 4  # sign bit charged

    def test_bounded_width_is_exact(self):
        """The charged width is ceil(log2(bound + 1)), at least 1: the
        float formula on every bound it gets right, and the exact width
        where a double can no longer hold ``bound + 1``."""
        for bound in range(5001):
            want = max(1, math.ceil(math.log2(bound + 1)))
            assert bits_for_value(0, bound=bound) == want
            assert bits_for_value(bound, bound=bound) == want
            assert bits_for_value(None, bound=bound) == want
        for power in (53, 60):
            bound = 2**power
            assert 2 ** (power + 1) > bound + 1 > 2**power
            assert bits_for_value(bound, bound=bound) == power + 1
            assert bits_for_value(None, bound=bound - 1) == power

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            bits_for_value(None, bound=-1)
        with pytest.raises(ValueError):
            bits_for_value(-5, bound=-1)
        with pytest.raises(ValueError):
            bits_for_state({"id": -3}, bounds={"id": -2})

    def test_none_without_bound_is_free(self):
        assert bits_for_value(None) == 0

    def test_none_with_bound_reserves_slot(self):
        assert bits_for_value(None, bound=15) == 4

    def test_containers_sum(self):
        assert bits_for_value((True, True, False)) == 3

    def test_string_charged_in_bytes(self):
        assert bits_for_value("ab") == 16

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            bits_for_value(object())

    def test_bits_for_state(self):
        state = {"id": 5, "settled": True}
        assert bits_for_state(state, bounds={"id": 16}) == 5 + 1


class TestCrashSchedule:
    def test_none_schedule(self):
        schedule = CrashSchedule.none()
        assert schedule.num_faults == 0
        assert schedule.crashes_at(0, CrashPhase.BEFORE_COMMUNICATE) == set()

    def test_from_mapping(self):
        schedule = CrashSchedule.from_mapping(
            {3: (2, CrashPhase.AFTER_COMPUTE)}
        )
        assert schedule.crashes_at(2, CrashPhase.AFTER_COMPUTE) == {3}
        assert schedule.crashes_at(2, CrashPhase.BEFORE_COMMUNICATE) == set()

    def test_rejects_double_crash(self):
        with pytest.raises(ValueError):
            CrashSchedule(
                [
                    CrashEvent(1, 0, CrashPhase.AFTER_COMPUTE),
                    CrashEvent(1, 2, CrashPhase.AFTER_COMPUTE),
                ]
            )

    def test_rejects_negative_round(self):
        with pytest.raises(ValueError):
            CrashEvent(1, -1, CrashPhase.AFTER_COMPUTE)

    def test_rejects_bad_robot_id(self):
        with pytest.raises(ValueError):
            CrashEvent(0, 1, CrashPhase.AFTER_COMPUTE)

    def test_random_schedule_size(self):
        rng = random.Random(0)
        schedule = CrashSchedule.random_schedule(10, 4, 5, rng)
        assert schedule.num_faults == 4
        victims = {e.robot_id for e in schedule.events()}
        assert len(victims) == 4
        assert all(0 <= e.round_index <= 5 for e in schedule.events())

    def test_random_schedule_phase_restriction(self):
        rng = random.Random(1)
        schedule = CrashSchedule.random_schedule(
            6, 6, 3, rng, phases=[CrashPhase.AFTER_COMPUTE]
        )
        assert all(
            e.phase is CrashPhase.AFTER_COMPUTE for e in schedule.events()
        )

    def test_random_schedule_rejects_f_over_k(self):
        with pytest.raises(ValueError):
            CrashSchedule.random_schedule(3, 4, 1, random.Random(0))

    def test_events_sorted(self):
        schedule = CrashSchedule.from_mapping(
            {
                2: (5, CrashPhase.AFTER_COMPUTE),
                7: (1, CrashPhase.BEFORE_COMMUNICATE),
            }
        )
        rounds = [e.round_index for e in schedule.events()]
        assert rounds == sorted(rounds)

    def test_event_for(self):
        schedule = CrashSchedule.from_mapping(
            {4: (2, CrashPhase.AFTER_COMPUTE)}
        )
        assert schedule.event_for(4).round_index == 2
        assert schedule.event_for(1) is None

    def test_len_and_repr(self):
        schedule = CrashSchedule.from_mapping(
            {4: (2, CrashPhase.AFTER_COMPUTE)}
        )
        assert len(schedule) == 1
        assert "f=1" in repr(schedule)
