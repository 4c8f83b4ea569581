"""End-to-end tests for Algorithm 4 (fault-free).

Covers Lemma 6 (correctness), Lemma 7 (per-round progress / monotone
occupied set), Lemma 8 (memory), Theorem 4 (k - alpha_0 round bound), mode
equivalence (faithful vs fast), and assorted edge cases.
"""

import random

import pytest

from repro.analysis.bounds import check_rounds_upper_bound
from repro.core.dispersion import DispersionDynamic
from repro.graph import generators as gen
from repro.graph.dynamic import (
    RandomChurnDynamicGraph,
    SequenceDynamicGraph,
    StaticDynamicGraph,
    TIntervalChurnDynamicGraph,
)
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.invariants import check_potential
from repro.sim.metrics import TerminationReason


def run(dyn, robots, **kwargs):
    return SimulationEngine(dyn, robots, DispersionDynamic(), **kwargs).run()


STATIC_FAMILIES = [
    ("path", lambda rng: gen.path_graph(16, rng=rng)),
    ("cycle", lambda rng: gen.cycle_graph(16, rng=rng)),
    ("star", lambda rng: gen.star_graph(16, rng=rng)),
    ("complete", lambda rng: gen.complete_graph(16, rng=rng)),
    ("grid", lambda rng: gen.grid_graph(4, 4, rng=rng)),
    ("hypercube", lambda rng: gen.hypercube_graph(4, rng=rng)),
    ("lollipop", lambda rng: gen.lollipop_graph(8, 8, rng=rng)),
    ("random_tree", lambda rng: gen.random_tree(16, rng)),
    ("random_graph", lambda rng: gen.random_connected_graph(16, 12, rng)),
]


class TestStaticFamilies:
    @pytest.mark.parametrize("name,builder", STATIC_FAMILIES)
    def test_rooted_dispersal(self, name, builder):
        snap = builder(random.Random(7))
        k = 12
        result = run(StaticDynamicGraph(snap), RobotSet.rooted(k, snap.n))
        assert result.dispersed, name
        assert check_rounds_upper_bound(result), (name, result.rounds)
        assert check_potential(result) == [], name

    @pytest.mark.parametrize("name,builder", STATIC_FAMILIES)
    def test_arbitrary_dispersal(self, name, builder):
        rng = random.Random(11)
        snap = builder(rng)
        robots = RobotSet.arbitrary(12, snap.n, rng, num_occupied=4)
        result = run(StaticDynamicGraph(snap), robots)
        assert result.dispersed, name
        assert check_rounds_upper_bound(result), name

    def test_k_equals_n_complete(self):
        snap = gen.complete_graph(8)
        result = run(StaticDynamicGraph(snap), RobotSet.rooted(8, 8))
        assert result.dispersed
        assert result.rounds <= 7

    def test_k_equals_n_path(self):
        snap = gen.path_graph(8)
        result = run(StaticDynamicGraph(snap), RobotSet.rooted(8, 8))
        assert result.dispersed
        assert len(set(result.final_positions.values())) == 8

    def test_single_robot(self):
        snap = gen.path_graph(4)
        result = run(StaticDynamicGraph(snap), RobotSet.rooted(1, 4))
        assert result.reason is TerminationReason.ALREADY_DISPERSED

    def test_two_robots_two_nodes(self):
        snap = gen.path_graph(2)
        result = run(StaticDynamicGraph(snap), RobotSet.rooted(2, 2))
        assert result.dispersed
        assert result.rounds == 1


class TestDynamicGraphs:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_churn_rooted(self, seed):
        n, k = 30, 22
        dyn = RandomChurnDynamicGraph(n, extra_edges=10, seed=seed)
        result = run(dyn, RobotSet.rooted(k, n))
        assert result.dispersed
        assert check_rounds_upper_bound(result)
        assert check_potential(result) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_random_churn_arbitrary(self, seed):
        rng = random.Random(seed)
        n = rng.randint(8, 40)
        k = rng.randint(2, n)
        dyn = RandomChurnDynamicGraph(n, extra_edges=rng.randint(0, n), seed=seed)
        robots = RobotSet.arbitrary(k, n, rng)
        result = run(dyn, robots)
        assert result.dispersed, seed
        assert check_rounds_upper_bound(result), seed

    @pytest.mark.parametrize("interval", [1, 2, 4])
    def test_t_interval_churn(self, interval):
        n, k = 24, 18
        dyn = TIntervalChurnDynamicGraph(
            n, interval=interval, extra_edges=8, seed=3
        )
        result = run(dyn, RobotSet.rooted(k, n))
        assert result.dispersed
        assert check_rounds_upper_bound(result)

    def test_scripted_sequence(self):
        """Dispersion completes across a scripted topology change."""
        a = gen.path_graph(8)
        b = gen.star_graph(8)
        c = gen.cycle_graph(8)
        dyn = SequenceDynamicGraph([a, b, c], tail="cycle")
        result = run(dyn, RobotSet.rooted(6, 8))
        assert result.dispersed
        assert check_rounds_upper_bound(result)

    def test_sparse_tree_churn(self):
        """Pure random trees every round (no extra edges)."""
        dyn = RandomChurnDynamicGraph(20, extra_edges=0, seed=9)
        result = run(dyn, RobotSet.rooted(20, 20))
        assert result.dispersed
        assert result.rounds <= 19


class TestLemma7Progress:
    @pytest.mark.parametrize("seed", range(6))
    def test_at_least_one_new_node_per_round(self, seed):
        dyn = RandomChurnDynamicGraph(25, extra_edges=8, seed=seed)
        rng = random.Random(seed)
        robots = RobotSet.arbitrary(18, 25, rng, num_occupied=5)
        result = run(dyn, robots)
        assert result.dispersed
        for record in result.records:
            assert len(record.newly_occupied) >= 1
            # previously occupied nodes stay occupied (fault-free)
            assert record.occupied_before <= record.occupied_after


class TestTheorem4Bound:
    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64])
    def test_rounds_at_most_k_minus_alpha(self, k):
        n = k + k // 2 + 1
        dyn = RandomChurnDynamicGraph(n, extra_edges=n // 2, seed=k)
        result = run(dyn, RobotSet.rooted(k, n))
        assert result.dispersed
        assert result.rounds <= k - 1

    def test_memory_is_logarithmic(self):
        measured = {}
        for k in (4, 16, 64, 256):
            n = k + 8
            dyn = RandomChurnDynamicGraph(n, extra_edges=n, seed=1)
            result = run(dyn, RobotSet.rooted(k, n), collect_records=False)
            assert result.dispersed
            measured[k] = result.max_persistent_bits
        # ceil(log2(k+1)) bits exactly: the ID is the only persisted state.
        assert measured == {4: 3, 16: 5, 64: 7, 256: 9}


class TestModeEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_faithful_equals_fast(self, seed):
        n, k = 18, 13
        rng = random.Random(seed)
        robots = RobotSet.arbitrary(k, n, rng)

        def fresh_dyn():
            return RandomChurnDynamicGraph(n, extra_edges=6, seed=seed)

        fast = SimulationEngine(
            fresh_dyn(), robots, DispersionDynamic(faithful=False)
        ).run()
        faithful = SimulationEngine(
            fresh_dyn(), robots, DispersionDynamic(faithful=True)
        ).run()
        assert fast.rounds == faithful.rounds
        assert fast.final_positions == faithful.final_positions
        assert fast.total_moves == faithful.total_moves


class TestTerminationDetection:
    def test_robots_self_detect(self):
        dyn = RandomChurnDynamicGraph(12, extra_edges=5, seed=4)
        result = run(dyn, RobotSet.rooted(8, 12))
        assert result.dispersed
        assert result.algorithm_detected_termination

    def test_no_movement_after_dispersion(self):
        """Once dispersed, re-running decide yields all-stay."""
        from repro.sim.observation import build_observations

        snap = gen.path_graph(5)
        positions = {1: 0, 2: 1, 3: 2}
        algorithm = DispersionDynamic()
        algorithm.on_run_start(3, 5)
        algorithm.on_round_start(0)
        observations = build_observations(snap, positions, 0)
        from repro.sim.algorithm import StayDecision

        for robot_id in positions:
            assert isinstance(
                algorithm.decide(observations[robot_id]), StayDecision
            )


class TestDeterminism:
    def test_identical_runs(self):
        n, k, seed = 20, 14, 5
        robots = RobotSet.arbitrary(k, n, random.Random(seed))

        def one_run():
            dyn = RandomChurnDynamicGraph(n, extra_edges=7, seed=seed)
            return SimulationEngine(dyn, robots, DispersionDynamic()).run()

        a, b = one_run(), one_run()
        assert a.rounds == b.rounds
        assert a.final_positions == b.final_positions
        assert [r.moved_robots for r in a.records] == [
            r.moved_robots for r in b.records
        ]


class TestStress:
    def test_large_instance(self):
        n, k = 400, 300
        dyn = RandomChurnDynamicGraph(n, extra_edges=200, seed=2)
        result = run(dyn, RobotSet.rooted(k, n), collect_records=False)
        assert result.dispersed
        assert result.rounds <= k - 1

    def test_dense_instance(self):
        n, k = 60, 60
        dyn = RandomChurnDynamicGraph(n, extra_edges=3 * n, seed=3)
        result = run(dyn, RobotSet.rooted(k, n), collect_records=False)
        assert result.dispersed


class TestLaterFamilies:
    """Dispersion on the additional graph families."""

    LATER = [
        ("wheel", lambda rng: gen.wheel_graph(16, rng=rng)),
        ("bipartite", lambda rng: gen.complete_bipartite_graph(8, 8, rng=rng)),
        ("binary_tree", lambda rng: gen.binary_tree_graph(16, rng=rng)),
        ("caterpillar", lambda rng: gen.caterpillar_graph(4, 3, rng=rng)),
        ("broom", lambda rng: gen.broom_graph(8, 8, rng=rng)),
    ]

    @pytest.mark.parametrize("name,builder", LATER)
    def test_rooted_dispersal(self, name, builder):
        snap = builder(random.Random(3))
        k = snap.n - 3
        result = run(StaticDynamicGraph(snap), RobotSet.rooted(k, snap.n))
        assert result.dispersed, name
        assert check_rounds_upper_bound(result), name

    @pytest.mark.parametrize("name,builder", LATER)
    def test_arbitrary_dispersal(self, name, builder):
        rng = random.Random(17)
        snap = builder(rng)
        robots = RobotSet.arbitrary(snap.n - 3, snap.n, rng, num_occupied=3)
        result = run(StaticDynamicGraph(snap), robots)
        assert result.dispersed, name
