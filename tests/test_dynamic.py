"""Tests for dynamic-graph processes and validation."""

import json
import random

import pytest

import repro
from repro.graph.dynamic import (
    FunctionalDynamicGraph,
    RandomChurnDynamicGraph,
    RoundContext,
    SequenceDynamicGraph,
    StaticDynamicGraph,
    TIntervalChurnDynamicGraph,
)
from repro.graph.generators import cycle_graph, path_graph
from repro.graph.snapshot import GraphSnapshot
from repro.graph.validation import (
    GraphValidationError,
    validate_prefix,
    validate_snapshot,
)
from repro.sim.traceio import run_fingerprint, snapshot_to_dict


class TestRoundContext:
    def test_occupied_counts(self):
        ctx = RoundContext(0, positions={1: 5, 2: 5, 3: 7})
        assert ctx.occupied_counts == {5: 2, 7: 1}

    def test_occupied_nodes(self):
        ctx = RoundContext(0, positions={1: 5, 2: 5, 3: 7})
        assert ctx.occupied_nodes == {5, 7}

    def test_empty_context(self):
        ctx = RoundContext(0)
        assert ctx.occupied_counts == {}
        assert ctx.occupied_nodes == set()


class TestStatic:
    def test_always_same(self):
        snap = path_graph(4)
        dyn = StaticDynamicGraph(snap)
        assert dyn.snapshot(0) is dyn.snapshot(99)
        assert dyn.n == 4

    def test_not_adaptive(self):
        assert not StaticDynamicGraph(path_graph(3)).is_adaptive


class TestSequence:
    def test_plays_script_then_holds(self):
        a, b = path_graph(4), cycle_graph(4)
        dyn = SequenceDynamicGraph([a, b])
        assert dyn.snapshot(0) == a
        assert dyn.snapshot(1) == b
        assert dyn.snapshot(5) == b

    def test_cycle_tail(self):
        a, b = path_graph(4), cycle_graph(4)
        dyn = SequenceDynamicGraph([a, b], tail="cycle")
        assert dyn.snapshot(2) == a
        assert dyn.snapshot(3) == b

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SequenceDynamicGraph([])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            SequenceDynamicGraph([path_graph(3), path_graph(4)])

    def test_rejects_bad_tail(self):
        with pytest.raises(ValueError):
            SequenceDynamicGraph([path_graph(3)], tail="loop")

    def test_rejects_negative_round(self):
        dyn = SequenceDynamicGraph([path_graph(3)])
        with pytest.raises(ValueError):
            dyn.snapshot(-1)


class TestRandomChurn:
    def test_every_round_connected(self):
        dyn = RandomChurnDynamicGraph(12, extra_edges=4, seed=1)
        for r in range(20):
            snap = dyn.snapshot(r)
            assert snap.n == 12
            assert snap.is_connected()

    def test_stable_requery(self):
        dyn = RandomChurnDynamicGraph(10, extra_edges=3, seed=2)
        assert dyn.snapshot(5) == dyn.snapshot(5)

    def test_seeds_differ(self):
        a = RandomChurnDynamicGraph(10, extra_edges=3, seed=1).snapshot(0)
        b = RandomChurnDynamicGraph(10, extra_edges=3, seed=2).snapshot(0)
        assert a != b

    def test_graph_actually_churns(self):
        dyn = RandomChurnDynamicGraph(15, extra_edges=3, seed=3)
        edge_sets = [
            {(e.u, e.v) for e in dyn.snapshot(r).edges()} for r in range(4)
        ]
        assert any(edge_sets[i] != edge_sets[i + 1] for i in range(3))

    def test_persistence_keeps_more_edges(self):
        sticky = RandomChurnDynamicGraph(
            20, extra_edges=15, persistence=1.0, seed=4
        )
        prev = {(e.u, e.v) for e in sticky.snapshot(0).edges()}
        cur = {(e.u, e.v) for e in sticky.snapshot(1).edges()}
        # with persistence=1 all previous edges survive
        assert prev <= cur | prev  # trivially true
        assert len(prev & cur) >= len(prev) - 19  # tree edges may replace

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomChurnDynamicGraph(5, extra_edges=-1)
        with pytest.raises(ValueError):
            RandomChurnDynamicGraph(5, persistence=1.5)
        with pytest.raises(ValueError):
            RandomChurnDynamicGraph(5).snapshot(-1)


class TestTIntervalChurn:
    @pytest.mark.parametrize("interval", [1, 2, 4])
    def test_connected_every_round(self, interval):
        dyn = TIntervalChurnDynamicGraph(
            12, interval=interval, extra_edges=3, seed=5
        )
        for r in range(3 * interval + 2):
            assert dyn.snapshot(r).is_connected()

    @pytest.mark.parametrize("interval", [2, 3, 5])
    def test_t_interval_property(self, interval):
        """Every window of T rounds shares a connected spanning subgraph."""
        dyn = TIntervalChurnDynamicGraph(
            10, interval=interval, extra_edges=2, seed=6
        )
        for start in range(0, 12):
            stable = dyn.stable_subgraph_edges(start)
            for r in range(start, start + interval):
                edges = {(e.u, e.v) for e in dyn.snapshot(r).edges()}
                assert stable <= edges, (start, r)
            # the stable edges form a connected spanning subgraph
            snap = GraphSnapshot.from_edges(10, sorted(stable))
            assert snap.is_connected()

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TIntervalChurnDynamicGraph(5, interval=0)

    def test_interval_property_exposed(self):
        assert TIntervalChurnDynamicGraph(5, interval=3).interval == 3


class TestFunctional:
    def test_builds_and_caches(self):
        calls = []

        def build(r, ctx):
            calls.append(r)
            return path_graph(5)

        dyn = FunctionalDynamicGraph(5, build)
        dyn.snapshot(0)
        dyn.snapshot(0)
        assert calls == [0]

    def test_rejects_wrong_n(self):
        dyn = FunctionalDynamicGraph(5, lambda r, ctx: path_graph(4))
        with pytest.raises(ValueError):
            dyn.snapshot(0)

    def test_adaptive_flag(self):
        dyn = FunctionalDynamicGraph(3, lambda r, c: path_graph(3))
        assert dyn.is_adaptive


class TestValidation:
    def test_accepts_connected(self):
        validate_snapshot(path_graph(5), expected_n=5, round_index=0)

    def test_rejects_wrong_n(self):
        with pytest.raises(GraphValidationError):
            validate_snapshot(path_graph(5), expected_n=6)

    def test_rejects_disconnected(self):
        snap = GraphSnapshot.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphValidationError) as err:
            validate_snapshot(snap, round_index=7)
        assert "round 7" in str(err.value)

    def test_disconnected_allowed_when_relaxed(self):
        snap = GraphSnapshot.from_edges(4, [(0, 1), (2, 3)])
        validate_snapshot(snap, require_connected=False)

    def test_validate_prefix(self):
        dyn = RandomChurnDynamicGraph(8, extra_edges=2, seed=8)
        validate_prefix(dyn, 10, expected_n=8)

    def test_validate_prefix_catches_bad_process(self):
        bad = FunctionalDynamicGraph(
            4, lambda r, c: GraphSnapshot.from_edges(4, [(0, 1), (2, 3)])
        )
        with pytest.raises(GraphValidationError):
            validate_prefix(bad, 3, expected_n=4)


class TestOrderSensitivePins:
    """Values that depend on the order snapshots are built and walked in.

    The persistence path draws one ``rng.random()`` per previous-round
    edge in ``edges()`` order, and ports come from shuffling each node's
    ascending neighbour list; any change to either order moves these
    pins.  Run fingerprints cover both backends and the snapshots of every
    round (``collect_snapshots``).
    """

    @staticmethod
    def fingerprints(graph, params):
        spec = repro.make_spec(
            graph, params, k=10, seed=3, collect_snapshots=True, label="pin"
        )
        return {
            run_fingerprint(repro.run(spec, backend=backend))
            for backend in ("reference", "vectorized")
        }

    @pytest.mark.parametrize(
        "persistence,expected",
        [
            (0.5, "d024b24546c21c825b58766309a6cf5c3d6f07710efd71bfa2dd178ef245fa86"),
            (1.0, "96257478d47b223a3fa67b493183a407d810b70e9d9d7da3ff784de4abbc04b5"),
        ],
    )
    def test_random_churn_persistence_fingerprint(self, persistence, expected):
        params = {"n": 14, "extra_edges": 7, "persistence": persistence, "seed": 5}
        assert self.fingerprints("random_churn", params) == {expected}

    def test_t_interval_churn_fingerprint(self):
        params = {"n": 14, "interval": 3, "extra_edges": 5, "seed": 5}
        assert self.fingerprints("t_interval_churn", params) == {
            "2415d1ded66cbb2bec2a59f09d9e2f5d13aaaff616a08d5acbe6edab0910ba4c"
        }

    def test_relabeled_ports_snapshot_dict(self):
        base = GraphSnapshot.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 4)]
        )
        relabeled = base.relabeled_ports(random.Random(7))
        assert json.dumps(snapshot_to_dict(relabeled)) == (
            '{"n": 5, "ports": [{"1": 3, "2": 1, "3": 2}, {"1": 0, "2": 2}, '
            '{"1": 1, "2": 0, "3": 4}, {"1": 4, "2": 0}, {"1": 3, "2": 2}]}'
        )

    def test_churn_round_edges_order(self):
        """``edges()`` is u ascending, then u's port order -- not sorted by v."""
        dyn = RandomChurnDynamicGraph(7, extra_edges=4, persistence=0.5, seed=2)
        assert [(e.u, e.port_u, e.v, e.port_v) for e in dyn.snapshot(1).edges()] == [
            (0, 1, 4, 3), (0, 2, 5, 5), (1, 1, 6, 1), (1, 2, 2, 2),
            (1, 3, 5, 4), (2, 1, 4, 4), (2, 3, 5, 2), (2, 4, 6, 3),
            (2, 5, 3, 2), (3, 1, 6, 2), (3, 3, 4, 2), (3, 4, 5, 1),
            (4, 1, 6, 4), (5, 3, 6, 5),
        ]
