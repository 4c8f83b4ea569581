"""Unit tests for the port-labelled graph snapshot."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.snapshot import GraphSnapshot, PortLabeledEdge
from repro.sim.backend_vectorized import snapshot_to_csr
from repro.sim.traceio import snapshot_to_dict


def triangle() -> GraphSnapshot:
    return GraphSnapshot.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestPortLabeledEdge:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            PortLabeledEdge(1, 1, 1, 2)

    def test_endpoints(self):
        edge = PortLabeledEdge(0, 1, 2, 3)
        assert edge.endpoints() == frozenset({0, 2})

    def test_other(self):
        edge = PortLabeledEdge(0, 1, 2, 3)
        assert edge.other(0) == 2
        assert edge.other(2) == 0

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(ValueError):
            PortLabeledEdge(0, 1, 2, 3).other(5)

    def test_port_at(self):
        edge = PortLabeledEdge(0, 1, 2, 3)
        assert edge.port_at(0) == 1
        assert edge.port_at(2) == 3

    def test_port_at_rejects_non_endpoint(self):
        with pytest.raises(ValueError):
            PortLabeledEdge(0, 1, 2, 3).port_at(9)


class TestConstruction:
    def test_from_edges_basic(self):
        snap = triangle()
        assert snap.n == 3
        assert snap.num_edges == 3

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_edges(0, [])

    def test_single_node_no_edges(self):
        snap = GraphSnapshot.from_edges(1, [])
        assert snap.n == 1
        assert snap.degree(0) == 0
        assert snap.is_connected()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_edges(2, [(0, 5)])

    def test_canonical_ports_are_sorted_by_neighbor(self):
        snap = GraphSnapshot.from_edges(4, [(1, 3), (1, 0), (1, 2)])
        assert snap.neighbor_via(1, 1) == 0
        assert snap.neighbor_via(1, 2) == 2
        assert snap.neighbor_via(1, 3) == 3

    def test_random_ports_are_a_permutation(self):
        rng = random.Random(1)
        snap = GraphSnapshot.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (0, 4)], rng=rng
        )
        assert sorted(snap.port_map(0)) == [1, 2, 3, 4]
        assert sorted(snap.port_map(0).values()) == [1, 2, 3, 4]

    def test_from_port_maps_roundtrip(self):
        snap = triangle()
        rebuilt = GraphSnapshot.from_port_maps(
            3, [snap.port_map(v) for v in range(3)]
        )
        assert rebuilt == snap

    def test_from_port_maps_rejects_bad_port_range(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_port_maps(2, [{2: 1}, {1: 0}])

    def test_from_port_maps_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_port_maps(3, [{1: 1}, {1: 2}, {1: 1}])

    def test_from_port_maps_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_port_maps(2, [{1: 0}, {}])

    def test_from_port_maps_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_port_maps(
                2, [{1: 1, 2: 1}, {1: 0, 2: 0}]
            )


class TestQueries:
    def test_degree(self):
        snap = GraphSnapshot.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert snap.degree(0) == 3
        assert snap.degree(1) == 1

    def test_max_degree(self):
        snap = GraphSnapshot.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert snap.max_degree() == 3

    def test_neighbors_in_port_order(self):
        snap = triangle()
        assert snap.neighbors(0) == (1, 2)

    def test_ports(self):
        snap = triangle()
        assert snap.ports(0) == (1, 2)
        assert snap.ports(1) == (1, 2)

    def test_neighbor_via_unknown_port_raises(self):
        with pytest.raises(ValueError):
            triangle().neighbor_via(0, 7)

    def test_port_of(self):
        snap = triangle()
        for v in snap.nodes():
            for port in snap.ports(v):
                neighbor = snap.neighbor_via(v, port)
                assert snap.port_of(v, neighbor) == port

    def test_port_of_non_neighbor_raises(self):
        snap = GraphSnapshot.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            snap.port_of(0, 2)

    def test_has_edge(self):
        snap = GraphSnapshot.from_edges(3, [(0, 1), (1, 2)])
        assert snap.has_edge(0, 1) and snap.has_edge(1, 0)
        assert not snap.has_edge(0, 2)

    def test_edges_are_canonical(self):
        snap = triangle()
        for edge in snap.edges():
            assert edge.u < edge.v
            assert snap.port_of(edge.u, edge.v) == edge.port_u
            assert snap.port_of(edge.v, edge.u) == edge.port_v

    def test_iter_yields_nodes(self):
        assert list(triangle()) == [0, 1, 2]

    def test_repr(self):
        assert repr(triangle()) == "GraphSnapshot(n=3, m=3)"


class TestAnalysis:
    def test_connected_true(self):
        assert triangle().is_connected()

    def test_connected_false(self):
        snap = GraphSnapshot.from_edges(4, [(0, 1), (2, 3)])
        assert not snap.is_connected()

    def test_bfs_distances(self):
        snap = GraphSnapshot.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert snap.bfs_distances(0) == [0, 1, 2, 3]

    def test_bfs_unreachable_marked(self):
        snap = GraphSnapshot.from_edges(3, [(0, 1)])
        assert snap.bfs_distances(0)[2] == -1

    def test_diameter_path(self):
        snap = GraphSnapshot.from_edges(5, [(i, i + 1) for i in range(4)])
        assert snap.diameter() == 4

    def test_diameter_disconnected_raises(self):
        snap = GraphSnapshot.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            snap.diameter()

    def test_connected_node_components(self):
        snap = GraphSnapshot.from_edges(5, [(0, 1), (2, 3)])
        comps = {frozenset(c) for c in snap.connected_node_components()}
        assert comps == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4})}

    def test_induced_occupied_components(self):
        snap = GraphSnapshot.from_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        )
        comps = snap.induced_occupied_components([0, 1, 3, 4])
        assert {frozenset(c) for c in comps} == {
            frozenset({0, 1}),
            frozenset({3, 4}),
        }

    def test_relabeled_ports_preserves_edges(self):
        snap = GraphSnapshot.from_edges(6, [(i, i + 1) for i in range(5)])
        relabeled = snap.relabeled_ports(random.Random(3))
        assert {(e.u, e.v) for e in snap.edges()} == {
            (e.u, e.v) for e in relabeled.edges()
        }


class TestEquality:
    def test_equal_snapshots(self):
        assert triangle() == triangle()

    def test_port_labelling_matters(self):
        a = GraphSnapshot.from_port_maps(
            3, [{1: 1, 2: 2}, {1: 0, 2: 2}, {1: 0, 2: 1}]
        )
        b = GraphSnapshot.from_port_maps(
            3, [{1: 2, 2: 1}, {1: 0, 2: 2}, {1: 0, 2: 1}]
        )
        assert a != b

    def test_hashable(self):
        assert len({triangle(), triangle()}) == 1

    def test_serialization_ignores_port_map_insertion_order(self):
        """Equal snapshots serialize identically, ports ascending, even
        without ``sort_keys``."""
        a = GraphSnapshot.from_port_maps(
            3, [{1: 1, 2: 2}, {1: 0, 2: 2}, {1: 0, 2: 1}]
        )
        b = GraphSnapshot.from_port_maps(
            3, [{2: 2, 1: 1}, {2: 2, 1: 0}, {2: 1, 1: 0}]
        )
        assert a == b and hash(a) == hash(b)
        assert list(b.port_map(0)) == [1, 2]
        assert json.dumps(snapshot_to_dict(a)) == json.dumps(snapshot_to_dict(b))

    def test_not_equal_to_other_type(self):
        assert triangle() != "graph"


# ----------------------------------------------------------------------
# Property tests: the snapshot contract over random simple graphs
# ----------------------------------------------------------------------


@st.composite
def random_snapshots(draw):
    """A snapshot from a random simple edge list, ports canonical or
    shuffled by a seeded ``rng``."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    edges = draw(
        st.lists(pairs, unique_by=frozenset, max_size=n * (n - 1) // 2)
    )
    seed = draw(st.none() | st.integers(min_value=0, max_value=2**16))
    rng = None if seed is None else random.Random(seed)
    return GraphSnapshot.from_edges(n, edges, rng=rng)


def first_node_with_an_edge(snap):
    return next(v for v in snap.nodes() if snap.degree(v) > 0)


class TestSnapshotContract:
    @given(random_snapshots())
    @settings(max_examples=150, deadline=None)
    def test_port_maps_round_trip(self, snap):
        rebuilt = GraphSnapshot.from_port_maps(
            snap.n, [snap.port_map(v) for v in snap]
        )
        assert rebuilt == snap and hash(rebuilt) == hash(snap)

    @given(random_snapshots())
    @settings(max_examples=150, deadline=None)
    def test_port_of_inverts_neighbor_via(self, snap):
        for v in snap:
            for u in snap.neighbors(v):
                assert snap.neighbor_via(v, snap.port_of(v, u)) == u

    @given(random_snapshots())
    @settings(max_examples=150, deadline=None)
    def test_neighbors_match_csr_and_are_python_ints(self, snap):
        indptr, neighbors = snapshot_to_csr(snap)
        for v in snap:
            assert list(snap.neighbors(v)) == (
                neighbors[indptr[v]:indptr[v + 1]].tolist()
            )
            assert all(type(u) is int for u in snap.neighbors(v))
            assert type(snap.degree(v)) is int
            assert all(
                type(snap.neighbor_via(v, p)) is int for p in snap.ports(v)
            )

    @given(random_snapshots())
    @settings(max_examples=150, deadline=None)
    def test_edges_in_canonical_order(self, snap):
        expected = [
            (u, v) for u in snap for v in snap.neighbors(u) if u < v
        ]
        assert [(e.u, e.v) for e in snap.edges()] == expected
        for e in snap.edges():
            assert e.port_u == snap.port_of(e.u, e.v)
            assert e.port_v == snap.port_of(e.v, e.u)
        assert snap.num_edges == len(expected)

    @given(random_snapshots())
    @settings(max_examples=150, deadline=None)
    def test_ports_out_of_range_raise(self, snap):
        for v in snap:
            degree = snap.degree(v)
            for port in (0, -1, -degree, degree + 1):
                with pytest.raises(ValueError, match=f"node {v} has no port"):
                    snap.neighbor_via(v, port)

    @given(random_snapshots())
    @settings(max_examples=100, deadline=None)
    def test_malformed_port_maps_keep_their_messages(self, snap):
        if snap.num_edges == 0:
            return
        n = snap.n
        v = first_node_with_an_edge(snap)
        degree = snap.degree(v)

        def rejected(maps):
            with pytest.raises(ValueError) as err:
                GraphSnapshot.from_port_maps(n, maps)
            return str(err.value)

        def with_node(ports):
            maps = [snap.port_map(u) for u in snap]
            maps[v] = ports
            return maps

        shifted = {p + 1: u for p, u in snap.port_map(v).items()}
        assert rejected(with_node(shifted)) == (
            f"node {v}: ports must be exactly 1..{degree}, "
            f"got {sorted(shifted)}"
        )
        assert rejected(with_node({**snap.port_map(v), 1: n})) == (
            f"node {v}: neighbor {n} out of range"
        )
        assert rejected(with_node({**snap.port_map(v), 1: v})) == (
            f"self-loop at node {v} is not allowed"
        )
        if degree >= 2:
            doubled = {**snap.port_map(v), 2: snap.neighbor_via(v, 1)}
            assert rejected(with_node(doubled)) == (
                f"node {v}: parallel edges are not allowed"
            )
        strangers = [
            x for x in snap if x != v and not snap.has_edge(v, x)
        ]
        if strangers:
            extra = {**snap.port_map(v), degree + 1: strangers[0]}
            assert rejected(with_node(extra)) == (
                f"asymmetric adjacency: {v}->{strangers[0]} has no reverse"
            )
