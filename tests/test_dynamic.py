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
        # with persistence=1 every edge of a round survives into the next
        previous = set(sticky.snapshot(0)._edge_pairs())
        for r in range(1, 6):
            current = set(sticky.snapshot(r)._edge_pairs())
            assert previous <= current, r
            previous = current

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomChurnDynamicGraph(5, extra_edges=-1)
        with pytest.raises(ValueError):
            RandomChurnDynamicGraph(5, persistence=1.5)
        with pytest.raises(ValueError):
            RandomChurnDynamicGraph(5).snapshot(-1)


def _assert_ports_are_permutations(snap):
    """Re-validate the snapshot's port structure: ports ``1..degree`` at
    every node, symmetric, no loops or parallel edges."""
    rebuilt = GraphSnapshot.from_port_maps(
        snap.n, [snap.port_map(v) for v in snap.nodes()]
    )
    assert rebuilt == snap


class TestChurnSampler:
    """Properties of the one numpy sampler behind both churn processes."""

    @pytest.mark.parametrize(
        "n,extra_edges",
        [(1, 3), (2, 0), (3, 5), (5, 4), (6, 15), (8, 20), (14, 7), (40, 20),
         (96, 48)],
    )
    def test_exact_edge_count_connected_ports(self, n, extra_edges):
        dyn = RandomChurnDynamicGraph(n, extra_edges=extra_edges, seed=n)
        for r in range(6):
            snap = dyn.snapshot(r)
            assert snap.num_edges == min(
                n - 1 + extra_edges, n * (n - 1) // 2
            ), (n, extra_edges, r)
            assert snap.is_connected()
            _assert_ports_are_permutations(snap)

    @pytest.mark.parametrize("n,extra_edges", [(4, 6), (12, 5), (30, 40)])
    def test_t_interval_rounds_connected_with_valid_ports(self, n, extra_edges):
        dyn = TIntervalChurnDynamicGraph(
            n, interval=2, extra_edges=extra_edges, seed=3
        )
        for r in range(6):
            snap = dyn.snapshot(r)
            assert snap.is_connected()
            _assert_ports_are_permutations(snap)

    def test_t_interval_queried_out_of_order(self):
        """Every round has its own stream: a fresh instance asked for the
        rounds backwards returns the same snapshots."""
        forward = TIntervalChurnDynamicGraph(
            11, interval=3, extra_edges=4, seed=8
        )
        backward = TIntervalChurnDynamicGraph(
            11, interval=3, extra_edges=4, seed=8
        )
        expected = [forward.snapshot(r) for r in range(10)]
        assert [backward.snapshot(r) for r in reversed(range(10))] == (
            expected[::-1]
        )

    @pytest.mark.parametrize("persistence", [0.0, 0.5])
    def test_random_churn_requeried_out_of_order(self, persistence):
        """Only the last round is kept: an earlier round is drawn again
        (from round 0 on under persistence) and equals the first draw."""
        def churn():
            return RandomChurnDynamicGraph(
                11, extra_edges=4, persistence=persistence, seed=8
            )

        dyn = churn()
        expected = [dyn.snapshot(r) for r in range(8)]
        dyn = churn()
        for r in (5, 2, 7, 0, 3, 3, 6, 1, 4):
            assert dyn.snapshot(r) == expected[r], r

    def test_negative_seeds_are_distinct_streams(self):
        snaps = {
            seed: RandomChurnDynamicGraph(9, extra_edges=3, seed=seed)
            .snapshot(0) for seed in (-2, -1, 0, 1)
        }
        assert len(set(snaps.values())) == 4

    def test_tree_and_ports_are_uniform_on_three_nodes(self):
        """n = 3, no chords: each round is a path, each node is its
        center a third of the time, and the center's two port orders
        are equally likely."""
        dyn = RandomChurnDynamicGraph(3, seed=9)
        centers, orders = {}, {}
        for r in range(600):
            snap = dyn.snapshot(r)
            (center,) = [v for v in snap.nodes() if snap.degree(v) == 2]
            centers[center] = centers.get(center, 0) + 1
            first = snap.neighbors(center)[0] < snap.neighbors(center)[1]
            orders[first] = orders.get(first, 0) + 1
        assert all(150 <= centers[v] <= 250 for v in range(3)), centers
        assert all(240 <= orders[flag] <= 360 for flag in (True, False))

    def test_tree_is_a_random_recursive_tree(self):
        """On four nodes a random recursive tree is a star with
        probability 1/3 (a uniform labelled tree: 1/4, a fixed star or
        path: 1 or 0)."""
        dyn = RandomChurnDynamicGraph(4, seed=9)
        stars = sum(
            max(dyn.snapshot(r).degree(v) for v in range(4)) == 3
            for r in range(600)
        )
        assert 165 <= stars <= 235, stars

    def test_pinned_csr(self):
        """One small round, every draw of the sampler in it (tree,
        persistence, chords, ports): catches a numpy release that changes
        the bit stream or a sort."""
        dyn = RandomChurnDynamicGraph(6, extra_edges=2, persistence=0.5, seed=1)
        assert dyn.snapshot(1).csr() == (
            (0, 2, 4, 7, 12, 15, 18),
            (4, 3, 3, 2, 3, 1, 5, 1, 5, 4, 2, 0, 0, 5, 3, 4, 3, 2),
        )


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

    The churn sampler draws one uniform per previous-round edge outside
    the new tree, in ascending edge-key order, and ports come from a
    stable lexsort of each node's edges on uniform keys; any change to
    either order, or to the order of the draws, moves these pins.  Run
    fingerprints cover both backends and the snapshots of every round
    (``collect_snapshots``).
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
            (0.5, "e65ddcc3659c3b1fc2d469be049504dc5b6dab93fcffd30ac4aa4bb784c50000"),
            (1.0, "786ea5eefbdc45d41dd5d88362ac4487e91d5251073c0097a5779aa13a5d7686"),
        ],
        ids=["0.5", "1.0"],
    )
    def test_random_churn_persistence_fingerprint(self, persistence, expected):
        params = {"n": 14, "extra_edges": 7, "persistence": persistence, "seed": 5}
        assert self.fingerprints("random_churn", params) == {expected}

    def test_t_interval_churn_fingerprint(self):
        params = {"n": 14, "interval": 3, "extra_edges": 5, "seed": 5}
        assert self.fingerprints("t_interval_churn", params) == {
            "1e4d694dfa71f95bc4f643b3861ca3eab120a5473f7830122b7805a257ab2544"
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
            (0, 1, 6, 2), (0, 2, 1, 1), (1, 2, 2, 4), (1, 3, 5, 2),
            (1, 4, 3, 5), (2, 1, 6, 3), (2, 2, 4, 1), (2, 3, 3, 3),
            (3, 1, 5, 3), (3, 2, 6, 5), (3, 4, 4, 2), (4, 3, 6, 4),
            (5, 1, 6, 1),
        ]
