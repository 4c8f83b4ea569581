"""Tests for the Theorem 1 / Figure 1 local-model impossibility artifacts."""

import pytest

from repro.adversary.local_impossibility import (
    LocalStallAdversary,
    build_fig1_instance,
    id_oblivious_view,
    interior_views_are_symmetric,
)
from repro.baselines.local_candidates import LOCAL_CANDIDATES
from repro.graph.dynamic import StaticDynamicGraph
from repro.graph.generators import star_graph
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.observation import CommunicationModel, build_info_packets


class TestFig1Instance:
    def test_k6_shape(self):
        instance = build_fig1_instance(6)
        assert instance.snapshot.n == 8  # k + 2 default
        assert len(instance.positions) == 6
        assert len(instance.path_nodes) == 5
        # node v holds two robots
        at_v = [
            r for r, node in instance.positions.items()
            if node == instance.multiplicity_node
        ]
        assert sorted(at_v) == [1, 2]
        # every other path node holds exactly one robot
        for node in instance.path_nodes[1:]:
            count = sum(
                1 for pos in instance.positions.values() if pos == node
            )
            assert count == 1

    def test_blob_nodes_empty(self):
        instance = build_fig1_instance(7)
        occupied = set(instance.positions.values())
        assert not occupied & set(instance.blob_nodes)

    def test_connected(self):
        assert build_fig1_instance(6).snapshot.is_connected()

    def test_frontier_is_only_occupied_node_with_empty_neighbor(self):
        instance = build_fig1_instance(6)
        snap = instance.snapshot
        occupied = set(instance.positions.values())
        frontier_nodes = {
            node
            for node in occupied
            if any(nb not in occupied for nb in snap.neighbors(node))
        }
        assert frontier_nodes == {instance.frontier_node}

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_fig1_instance(4)

    def test_rejects_no_empty_nodes(self):
        with pytest.raises(ValueError):
            build_fig1_instance(6, 5)

    def test_custom_n(self):
        instance = build_fig1_instance(6, 12)
        assert instance.snapshot.n == 12
        assert len(instance.blob_nodes) == 12 - 5


class TestSymmetryArgument:
    @pytest.mark.parametrize("k", [6, 7, 9, 11])
    def test_interior_views_symmetric(self, k):
        assert interior_views_are_symmetric(build_fig1_instance(k))

    def test_unmirrored_ports_break_the_check_sometimes(self):
        """Without the adversarial labelling the port directions agree, so
        the mirrored-direction half of the check fails."""
        instance = build_fig1_instance(6, mirrored_ports=False)
        assert not interior_views_are_symmetric(instance)

    def test_id_oblivious_view_strips_ids(self):
        instance = build_fig1_instance(6)
        packets = build_info_packets(instance.snapshot, instance.positions)
        view = id_oblivious_view(packets[instance.path_nodes[2]])
        flat = repr(view)
        # the view mentions occupancy and counts, never robot IDs
        assert "occupied" in flat
        count, degree, per_port = view
        assert count == 1 and degree == 2

    def test_symmetry_check_needs_k6(self):
        with pytest.raises(ValueError):
            interior_views_are_symmetric(build_fig1_instance(5))


class TestStallAdversary:
    @pytest.mark.parametrize("candidate_cls", LOCAL_CANDIDATES)
    def test_candidates_never_disperse(self, candidate_cls):
        instance = build_fig1_instance(6, 9)
        algorithm = candidate_cls()
        adversary = LocalStallAdversary(9, algorithm, seed=1)
        result = SimulationEngine(
            adversary,
            instance.positions,
            algorithm,
            communication=CommunicationModel.LOCAL,
            max_rounds=150,
        ).run()
        assert not result.dispersed

    @pytest.mark.parametrize("candidate_cls", LOCAL_CANDIDATES)
    def test_candidates_disperse_without_adversary(self, candidate_cls):
        """Sanity: the same candidates solve easy static instances, so the
        stall is the adversary's doing."""
        result = SimulationEngine(
            StaticDynamicGraph(star_graph(9)),
            RobotSet.rooted(6, 9),
            candidate_cls(),
            communication=CommunicationModel.LOCAL,
            max_rounds=400,
        ).run()
        assert result.dispersed

    @pytest.mark.parametrize("k", [6, 8, 10, 12])
    def test_stall_across_sizes(self, k):
        """The construction needs only k >= 5: the stall holds as k grows."""
        instance = build_fig1_instance(k, k + 3)
        algorithm = LOCAL_CANDIDATES[1]()
        adversary = LocalStallAdversary(k + 3, algorithm, seed=k)
        result = SimulationEngine(
            adversary,
            instance.positions,
            algorithm,
            communication=CommunicationModel.LOCAL,
            max_rounds=120,
        ).run()
        assert not result.dispersed

    def test_occupied_count_never_reaches_k(self):
        instance = build_fig1_instance(6, 9)
        algorithm = LOCAL_CANDIDATES[0]()
        adversary = LocalStallAdversary(9, algorithm, seed=2)
        result = SimulationEngine(
            adversary,
            instance.positions,
            algorithm,
            communication=CommunicationModel.LOCAL,
            max_rounds=80,
        ).run()
        for record in result.records:
            assert len(record.occupied_after) < 6

    def test_every_emitted_graph_connected(self):
        instance = build_fig1_instance(6, 9)
        algorithm = LOCAL_CANDIDATES[1]()
        adversary = LocalStallAdversary(9, algorithm, seed=3)
        SimulationEngine(
            adversary,
            instance.positions,
            algorithm,
            communication=CommunicationModel.LOCAL,
            max_rounds=40,
        ).run()  # engine validates connectivity every round

    def test_requires_context(self):
        adversary = LocalStallAdversary(9, LOCAL_CANDIDATES[0]())
        with pytest.raises(ValueError):
            adversary.snapshot(0)

    def test_is_adaptive(self):
        assert LocalStallAdversary(9, LOCAL_CANDIDATES[0]()).is_adaptive
