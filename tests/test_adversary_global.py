"""Tests for the Theorem 2 clique-rewiring adversary (global, no 1-NK)."""

import random

import pytest

from repro.adversary.global_impossibility import (
    CliqueRewiringAdversary,
    unused_clique_edge_exists,
)
from repro.baselines.global_candidates import GLOBAL_NO1NK_CANDIDATES
from repro.graph.dynamic import RoundContext, StaticDynamicGraph
from repro.graph.generators import star_graph
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine


def theorem2_positions(k):
    """k robots on k-1 nodes: the theorem's configuration."""
    positions = {i: i - 1 for i in range(1, k)}
    positions[k] = 0
    return positions


class TestCountingArgument:
    def test_threshold(self):
        assert not unused_clique_edge_exists(4)
        assert unused_clique_edge_exists(5)
        assert unused_clique_edge_exists(50)


class TestRewiring:
    def test_emits_connected_graph(self):
        k, n = 8, 14
        algorithm = GLOBAL_NO1NK_CANDIDATES[0]()
        adversary = CliqueRewiringAdversary(n, algorithm, seed=1)
        ctx = RoundContext(0, positions=theorem2_positions(k))
        snap = adversary.snapshot(0, ctx)
        assert snap.is_connected()

    def test_edge_actually_removed(self):
        k, n = 8, 14
        algorithm = GLOBAL_NO1NK_CANDIDATES[0]()
        adversary = CliqueRewiringAdversary(n, algorithm, seed=1)
        ctx = RoundContext(0, positions=theorem2_positions(k))
        snap = adversary.snapshot(0, ctx)
        removed = adversary.last_removed_edge
        assert removed is not None
        assert not snap.has_edge(*removed)
        # the two endpoints each got an edge into the empty region
        occupied = set(theorem2_positions(k).values())
        for endpoint in removed:
            assert any(
                nb not in occupied for nb in snap.neighbors(endpoint)
            )

    def test_occupied_degrees_match_clique(self):
        """Every occupied node keeps degree (k-1)-1 = clique degree, so the
        rewiring is invisible without 1-NK."""
        k, n = 8, 14
        algorithm = GLOBAL_NO1NK_CANDIDATES[1]()
        adversary = CliqueRewiringAdversary(n, algorithm, seed=2)
        positions = theorem2_positions(k)
        ctx = RoundContext(0, positions=positions)
        snap = adversary.snapshot(0, ctx)
        for node in set(positions.values()):
            assert snap.degree(node) == (k - 1) - 1

    def test_degree_changing_rewiring_raises(self, monkeypatch):
        """The soundness check catches a rewiring that one occupied node
        can see: here its degree grows by the one edge into H."""
        k, n = 8, 14
        algorithm = GLOBAL_NO1NK_CANDIDATES[0]()
        adversary = CliqueRewiringAdversary(n, algorithm, seed=1)
        positions = theorem2_positions(k)
        occupied = sorted(set(positions.values()))
        empty = [v for v in range(n) if v not in occupied]

        def visible_rewire(snapshot, removed, added_u, added_v):
            rng = random.Random(0)
            return adversary._clique_plus_h(occupied, empty, rng, connect=True)

        monkeypatch.setattr(adversary, "_rewire", visible_rewire)
        with pytest.raises(
            AssertionError,
            match="rewiring changed a no-1-NK observation; the Theorem 2 "
            "construction is broken",
        ):
            adversary.snapshot(0, RoundContext(0, positions=positions))

    def test_degenerate_config_falls_back(self):
        algorithm = GLOBAL_NO1NK_CANDIDATES[0]()
        adversary = CliqueRewiringAdversary(6, algorithm, seed=3)
        ctx = RoundContext(0, positions={1: 0, 2: 0})  # only 1 occupied node
        snap = adversary.snapshot(0, ctx)
        assert snap.is_connected()
        assert adversary.last_removed_edge is None

    def test_requires_context(self):
        adversary = CliqueRewiringAdversary(6, GLOBAL_NO1NK_CANDIDATES[0]())
        with pytest.raises(ValueError):
            adversary.snapshot(0)

    def test_is_adaptive(self):
        assert CliqueRewiringAdversary(
            6, GLOBAL_NO1NK_CANDIDATES[0]()
        ).is_adaptive


class TestStall:
    @pytest.mark.parametrize("candidate_cls", GLOBAL_NO1NK_CANDIDATES)
    def test_zero_new_nodes_forever(self, candidate_cls):
        k, n = 8, 14
        algorithm = candidate_cls()
        adversary = CliqueRewiringAdversary(n, algorithm, seed=4)
        result = SimulationEngine(
            adversary,
            theorem2_positions(k),
            algorithm,
            neighborhood_knowledge=False,
            max_rounds=120,
        ).run()
        assert not result.dispersed
        ever_occupied = set()
        for record in result.records:
            ever_occupied |= record.occupied_after
        assert len(ever_occupied) <= k - 1  # no progress beyond the clique

    @pytest.mark.parametrize("candidate_cls", GLOBAL_NO1NK_CANDIDATES)
    def test_candidates_disperse_without_adversary(self, candidate_cls):
        result = SimulationEngine(
            StaticDynamicGraph(star_graph(14)),
            RobotSet.rooted(8, 14),
            candidate_cls(),
            neighborhood_knowledge=False,
            max_rounds=2000,
        ).run()
        assert result.dispersed

    @pytest.mark.parametrize("k", [6, 8, 12])
    def test_stall_across_sizes(self, k):
        n = k + 6
        algorithm = GLOBAL_NO1NK_CANDIDATES[2]()
        adversary = CliqueRewiringAdversary(n, algorithm, seed=k)
        result = SimulationEngine(
            adversary,
            theorem2_positions(k),
            algorithm,
            neighborhood_knowledge=False,
            max_rounds=60,
        ).run()
        assert not result.dispersed
