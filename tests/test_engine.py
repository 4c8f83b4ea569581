"""Tests for the CCM simulation engine."""

import pytest

from repro.graph.dynamic import (
    FunctionalDynamicGraph,
    RandomChurnDynamicGraph,
    StaticDynamicGraph,
)
from repro.graph.generators import path_graph, star_graph
from repro.graph.snapshot import GraphSnapshot
from repro.graph.validation import GraphValidationError
from repro.robots.faults import CrashPhase, CrashSchedule
from repro.robots.robot import RobotSet
from repro.sim.algorithm import (
    Decision,
    MoveDecision,
    RobotAlgorithm,
    STAY,
)
from repro.sim.engine import SimulationEngine, SimulationError
from repro.sim.metrics import TerminationReason
from repro.sim.spec import ComponentSpec, build_backend
from repro.sim.observation import CommunicationModel, Observation
from repro.core.dispersion import DispersionDynamic


class AlwaysStay(RobotAlgorithm):
    name = "always_stay"
    requires_communication = CommunicationModel.LOCAL
    requires_neighborhood_knowledge = False

    def decide(self, observation: Observation) -> Decision:
        return STAY


class SurplusToPortOne(RobotAlgorithm):
    """Surplus robots exit port 1 (simple deterministic mover)."""

    name = "surplus_port_one"
    requires_communication = CommunicationModel.LOCAL
    requires_neighborhood_knowledge = False

    def decide(self, observation: Observation) -> Decision:
        packet = observation.own_packet
        if observation.robot_id == packet.robot_ids[0] or packet.degree == 0:
            return STAY
        return MoveDecision(1)


class BadPortAlgorithm(RobotAlgorithm):
    name = "bad_port"
    requires_communication = CommunicationModel.LOCAL
    requires_neighborhood_knowledge = False

    def decide(self, observation: Observation) -> Decision:
        return MoveDecision(99)


class NotADecisionAlgorithm(RobotAlgorithm):
    name = "not_a_decision"
    requires_communication = CommunicationModel.LOCAL
    requires_neighborhood_knowledge = False

    def decide(self, observation: Observation):
        return "north"


class TestConstruction:
    def test_rejects_mismatched_robotset(self):
        with pytest.raises(ValueError):
            SimulationEngine(
                StaticDynamicGraph(path_graph(5)),
                RobotSet.rooted(3, 6),
                AlwaysStay(),
            )

    def test_accepts_raw_positions(self):
        engine = SimulationEngine(
            StaticDynamicGraph(path_graph(5)), {1: 0, 2: 0}, AlwaysStay()
        )
        assert engine.k == 2 and engine.n == 5

    def test_raw_positions_validated(self):
        with pytest.raises(ValueError):
            SimulationEngine(
                StaticDynamicGraph(path_graph(3)), {1: 9}, AlwaysStay()
            )

    def test_model_mismatch_communication(self):
        with pytest.raises(ValueError):
            SimulationEngine(
                StaticDynamicGraph(path_graph(5)),
                RobotSet.rooted(3, 5),
                DispersionDynamic(),
                communication=CommunicationModel.LOCAL,
            )

    def test_model_mismatch_neighborhood(self):
        with pytest.raises(ValueError):
            SimulationEngine(
                StaticDynamicGraph(path_graph(5)),
                RobotSet.rooted(3, 5),
                DispersionDynamic(),
                neighborhood_knowledge=False,
            )

    def test_model_mismatch_override(self):
        SimulationEngine(
            StaticDynamicGraph(path_graph(5)),
            RobotSet.rooted(3, 5),
            DispersionDynamic(),
            neighborhood_knowledge=False,
            allow_model_mismatch=True,
        )

    def test_rejects_negative_max_rounds(self):
        with pytest.raises(ValueError):
            SimulationEngine(
                StaticDynamicGraph(path_graph(5)),
                RobotSet.rooted(3, 5),
                AlwaysStay(),
                max_rounds=-1,
            )


class TestTermination:
    def test_already_dispersed(self):
        result = SimulationEngine(
            StaticDynamicGraph(path_graph(4)),
            {1: 0, 2: 1, 3: 2},
            AlwaysStay(),
        ).run()
        assert result.reason is TerminationReason.ALREADY_DISPERSED
        assert result.rounds == 0
        assert result.dispersed

    def test_round_limit(self):
        result = SimulationEngine(
            StaticDynamicGraph(path_graph(4)),
            {1: 0, 2: 0},
            AlwaysStay(),
            max_rounds=5,
        ).run()
        assert result.reason is TerminationReason.ROUND_LIMIT
        assert result.rounds == 5
        assert not result.dispersed

    def test_all_crashed(self):
        schedule = CrashSchedule.from_mapping(
            {
                1: (1, CrashPhase.BEFORE_COMMUNICATE),
                2: (1, CrashPhase.BEFORE_COMMUNICATE),
            }
        )
        result = SimulationEngine(
            StaticDynamicGraph(path_graph(4)),
            {1: 0, 2: 0},
            AlwaysStay(),
            crash_schedule=schedule,
        ).run()
        assert result.reason is TerminationReason.ALL_CRASHED
        assert result.alive_count == 0
        assert result.crashed_robots == (1, 2)

    def test_dispersal_by_movement(self):
        # star: surplus robot moves out through port 1 and settles.
        result = SimulationEngine(
            StaticDynamicGraph(star_graph(4)),
            {1: 0, 2: 0},
            SurplusToPortOne(),
        ).run()
        assert result.dispersed
        assert result.rounds == 1
        assert result.total_moves == 1

    def test_crash_makes_dispersed(self):
        """A crash can turn a multiplicity node into a dispersed config."""
        schedule = CrashSchedule.from_mapping(
            {2: (0, CrashPhase.BEFORE_COMMUNICATE)}
        )
        result = SimulationEngine(
            StaticDynamicGraph(path_graph(4)),
            {1: 0, 2: 0, 3: 1},
            AlwaysStay(),
            crash_schedule=schedule,
        ).run()
        assert result.dispersed
        assert result.rounds == 0
        assert result.crashed_robots == (2,)


class TestMoveSemantics:
    def test_invalid_port_raises(self):
        with pytest.raises(SimulationError):
            SimulationEngine(
                StaticDynamicGraph(path_graph(4)),
                {1: 0, 2: 0},
                BadPortAlgorithm(),
            ).run()

    def test_non_decision_raises(self):
        with pytest.raises(SimulationError):
            SimulationEngine(
                StaticDynamicGraph(path_graph(4)),
                {1: 0, 2: 0},
                NotADecisionAlgorithm(),
            ).run()

    def test_moves_are_simultaneous(self):
        """Two surplus robots swap across an edge without interacting."""

        class Swap(RobotAlgorithm):
            name = "swap"
            requires_communication = CommunicationModel.LOCAL
            requires_neighborhood_knowledge = False

            def decide(self, observation: Observation) -> Decision:
                # everyone moves through port 1 every round
                if observation.own_packet.degree >= 1:
                    return MoveDecision(1)
                return STAY

        snap = path_graph(2)
        engine = SimulationEngine(
            StaticDynamicGraph(snap), {1: 0, 2: 1}, Swap(), max_rounds=1
        )
        result = engine.run()
        # already dispersed -> zero rounds; rebuild undispersed variant
        assert result.reason is TerminationReason.ALREADY_DISPERSED

        snap3 = path_graph(3)
        engine = SimulationEngine(
            StaticDynamicGraph(snap3), {1: 1, 2: 1}, Swap(), max_rounds=1
        )
        result = engine.run()
        # both robots moved from node1 to node0 together
        assert result.records[0].positions_after == {1: 0, 2: 0}

    def test_entry_port_reported_next_round(self):
        seen = {}

        class Recorder(RobotAlgorithm):
            name = "recorder"
            requires_communication = CommunicationModel.LOCAL
            requires_neighborhood_knowledge = False

            def decide(self, observation: Observation) -> Decision:
                seen[observation.round_index] = observation.entry_port
                if observation.round_index == 0:
                    return MoveDecision(1)
                return STAY

        snap = path_graph(3)
        SimulationEngine(
            StaticDynamicGraph(snap), {1: 1, 2: 1}, Recorder(), max_rounds=3
        ).run()
        assert seen[0] is None
        # both robots moved 1 -> 0; entry port at node0 towards node1 is 1
        assert seen[1] == snap.port_of(0, 1)


class TestCrashPhases:
    def test_after_compute_discards_move(self):
        schedule = CrashSchedule.from_mapping(
            {2: (0, CrashPhase.AFTER_COMPUTE)}
        )
        result = SimulationEngine(
            StaticDynamicGraph(star_graph(4)),
            {1: 0, 2: 0, 3: 1},
            SurplusToPortOne(),
            crash_schedule=schedule,
            max_rounds=4,
        ).run()
        # robot 2 computed a move but crashed; it never arrived anywhere.
        assert 2 in result.crashed_robots
        record = result.records[0]
        assert record.crashed_after_compute == (2,)
        assert 2 not in record.positions_after

    def test_before_communicate_excludes_packet(self):
        observed_counts = []

        class CountPackets(RobotAlgorithm):
            name = "count_packets"
            requires_neighborhood_knowledge = False

            def decide(self, observation: Observation) -> Decision:
                observed_counts.append(len(observation.packets))
                return STAY

        schedule = CrashSchedule.from_mapping(
            {3: (0, CrashPhase.BEFORE_COMMUNICATE)}
        )
        SimulationEngine(
            StaticDynamicGraph(path_graph(5)),
            {1: 0, 2: 0, 3: 2},
            CountPackets(),
            crash_schedule=schedule,
            max_rounds=1,
        ).run()
        # after the crash only node0 is occupied -> 1 packet each
        assert observed_counts and all(c == 1 for c in observed_counts)


class TestRecords:
    def test_records_capture_growth(self):
        dyn = RandomChurnDynamicGraph(10, extra_edges=4, seed=1)
        result = SimulationEngine(
            dyn, RobotSet.rooted(6, 10), DispersionDynamic()
        ).run()
        assert result.dispersed
        assert len(result.records) == result.rounds
        for record in result.records:
            assert record.occupied_before < record.occupied_after or (
                record.occupied_before <= record.occupied_after
            )
            assert record.newly_occupied
        trajectory = result.occupied_trajectory()
        assert trajectory[0] == 1
        assert trajectory[-1] == 6

    def test_collect_records_off(self):
        dyn = RandomChurnDynamicGraph(10, extra_edges=4, seed=1)
        result = SimulationEngine(
            dyn,
            RobotSet.rooted(6, 10),
            DispersionDynamic(),
            collect_records=False,
        ).run()
        assert result.dispersed
        assert result.records == []
        assert result.occupied_trajectory() == [1]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_consecutive_records_share_containers(self, backend):
        # One dict and one frozenset per configuration: a round starts
        # from the container the previous round ended in.
        result = SimulationEngine(
            StaticDynamicGraph(path_graph(12)),
            RobotSet.rooted(8, 12),
            DispersionDynamic(),
            backend=build_backend(ComponentSpec(backend)),
        ).run()
        records = result.records
        assert result.dispersed and len(records) >= 2
        for previous, record in zip(records, records[1:]):
            assert record.positions_before is previous.positions_after
            assert record.occupied_before is previous.occupied_after
        for record in records:
            assert record.occupied_after == frozenset(
                record.positions_after.values()
            )
        assert records[-1].positions_after == result.final_positions

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_before_communicate_crash_breaks_the_sharing(self, backend):
        schedule = CrashSchedule.from_mapping(
            {3: (2, CrashPhase.BEFORE_COMMUNICATE)}
        )
        records = SimulationEngine(
            StaticDynamicGraph(path_graph(12)),
            RobotSet.rooted(8, 12),
            DispersionDynamic(),
            crash_schedule=schedule,
            backend=build_backend(ComponentSpec(backend)),
        ).run().records
        previous, record = records[1], records[2]
        assert record.crashed_before_communicate == (3,)
        assert record.positions_before is not previous.positions_after
        assert record.occupied_before is not previous.occupied_after
        survivors = dict(previous.positions_after)
        del survivors[3]
        assert record.positions_before == survivors
        assert record.occupied_before == frozenset(survivors.values())
        assert 3 in previous.positions_after  # the earlier record kept it
        # The round after the crash shares again.
        assert records[3].positions_before is record.positions_after
        assert records[3].occupied_before is record.occupied_after

    def test_adversary_receives_context(self):
        contexts = []

        def build(r, ctx):
            contexts.append(ctx)
            return path_graph(5)

        dyn = FunctionalDynamicGraph(5, build)
        SimulationEngine(
            dyn, {1: 0, 2: 0}, AlwaysStay(), max_rounds=2
        ).run()
        assert contexts[0].round_index == 0
        assert contexts[0].positions == {1: 0, 2: 0}
        assert contexts[0].ever_occupied == frozenset({0})

    def test_graph_validation_enforced(self):
        bad = FunctionalDynamicGraph(
            4, lambda r, c: GraphSnapshot.from_edges(4, [(0, 1), (2, 3)])
        )
        with pytest.raises(GraphValidationError):
            SimulationEngine(bad, {1: 0, 2: 0}, AlwaysStay()).run()

    def test_graph_validation_can_be_disabled(self):
        bad = FunctionalDynamicGraph(
            4, lambda r, c: GraphSnapshot.from_edges(4, [(0, 1), (2, 3)])
        )
        result = SimulationEngine(
            bad, {1: 0, 2: 0}, AlwaysStay(), max_rounds=2,
            validate_graphs=False,
        ).run()
        assert result.reason is TerminationReason.ROUND_LIMIT

    def test_memory_audited(self):
        dyn = RandomChurnDynamicGraph(10, extra_edges=4, seed=2)
        result = SimulationEngine(
            dyn, RobotSet.rooted(8, 10), DispersionDynamic()
        ).run()
        # the only persisted field is the ID, charged ceil(log2(k+1)) bits
        assert result.max_persistent_bits == 4

    def test_summary_string(self):
        result = SimulationEngine(
            StaticDynamicGraph(path_graph(4)), {1: 0, 2: 1}, AlwaysStay()
        ).run()
        assert "already_dispersed" in result.summary()


class TestCommunicationMetrics:
    def test_global_deliveries(self):
        """Rooted start: round 0 has 1 occupied node broadcasting to k
        robots; the occupied count grows by >= 1 per round."""
        dyn = RandomChurnDynamicGraph(12, extra_edges=4, seed=6)
        result = SimulationEngine(
            dyn, RobotSet.rooted(6, 12), DispersionDynamic()
        ).run()
        assert result.dispersed
        # one broadcast per occupied node per round
        expected_broadcasts = sum(
            len(r.occupied_before) for r in result.records
        )
        # plus the final termination-detection round's broadcasts
        assert result.total_packets_broadcast >= expected_broadcasts
        # global: every broadcast reaches every alive robot
        assert result.total_packet_deliveries >= 6 * expected_broadcasts

    def test_local_deliveries_are_cheaper(self):
        from repro.baselines.random_walk import RandomWalkDispersion

        dyn = RandomChurnDynamicGraph(12, extra_edges=4, seed=6)
        local = SimulationEngine(
            dyn,
            RobotSet.rooted(6, 12),
            RandomWalkDispersion(seed=1),
            communication=CommunicationModel.LOCAL,
            max_rounds=5000,
        ).run()
        assert local.dispersed
        # local: each robot receives exactly one packet per round
        assert local.total_packet_deliveries <= 6 * (local.rounds + 1)

    def test_zero_rounds_zero_packets(self):
        result = SimulationEngine(
            StaticDynamicGraph(path_graph(4)), {1: 0, 2: 1}, AlwaysStay()
        ).run()
        assert result.total_packets_broadcast == 0
        assert result.total_packet_deliveries == 0


class TestRoundObservers:
    """``round_observers=`` is removed; CallbackObserver replaces it."""

    def test_round_observers_parameter_is_removed(self):
        dyn = RandomChurnDynamicGraph(10, extra_edges=4, seed=1)
        with pytest.raises(TypeError, match="round_observers"):
            SimulationEngine(
                dyn,
                RobotSet.rooted(6, 10),
                DispersionDynamic(),
                round_observers=[lambda rec: None],
            )

    def test_callback_observer_sees_every_round(self):
        from repro.sim.hooks import CallbackObserver

        seen = []
        dyn = RandomChurnDynamicGraph(10, extra_edges=4, seed=1)
        engine = SimulationEngine(
            dyn,
            RobotSet.rooted(6, 10),
            DispersionDynamic(),
            observers=[CallbackObserver(lambda rec: seen.append(rec.round_index))],
        )
        result = engine.run()
        assert seen == list(range(result.rounds))

    def test_callback_observer_without_records(self):
        """Observers fire even when per-round records are not retained."""
        from repro.sim.hooks import CallbackObserver

        seen = []
        dyn = RandomChurnDynamicGraph(10, extra_edges=4, seed=1)
        engine = SimulationEngine(
            dyn,
            RobotSet.rooted(6, 10),
            DispersionDynamic(),
            collect_records=False,
            observers=[CallbackObserver(seen.append)],
        )
        result = engine.run()
        assert result.records == []
        assert len(seen) == result.rounds
        assert all(rec.newly_occupied for rec in seen)

    def test_multiple_observers_in_order(self):
        from repro.sim.hooks import CallbackObserver

        order = []
        dyn = RandomChurnDynamicGraph(8, extra_edges=3, seed=2)
        engine = SimulationEngine(
            dyn,
            RobotSet.rooted(4, 8),
            DispersionDynamic(),
            observers=[
                CallbackObserver(lambda rec: order.append(("a", rec.round_index))),
                CallbackObserver(lambda rec: order.append(("b", rec.round_index))),
            ],
        )
        engine.run()
        assert order[0] == ("a", 0) and order[1] == ("b", 0)
