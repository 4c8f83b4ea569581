"""Differential tests of Algorithms 1 and 3 against their literal statements.

The oracles below are the paper's pseudocode transcribed as directly as
possible, with no attention to cost:

* Algorithm 3: for every leaf candidate in increasing ID order, build its
  full root path with ``SpanningTree.root_path`` and keep it iff none of
  its non-root nodes *and* none of its edges were used before;
* Algorithm 1: repeatedly take ``min(to_process)``, and check every
  edge's reverse direction by scanning the neighbour's port map.

``repro.core`` must agree with them on every output -- paths, component
representatives and adjacency, the processing order, and the exact
``ComponentConstructionError`` message on forged packet sets (a missing
packet, a one-way edge, a duplicate representative).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.components import (
    ComponentConstructionError,
    ComponentGraph,
    ComponentNodeInfo,
    build_component,
    partition_into_components,
)
from repro.core.disjoint_paths import RootPath, compute_disjoint_paths
from repro.core.spanning_tree import (
    SpanningTree,
    build_spanning_tree,
    build_spanning_tree_bfs,
)
from repro.graph.generators import path_graph, random_connected_graph
from repro.sim.observation import InfoPacket, build_info_packets

# ---------------------------------------------------------------------------
# Oracles: the literal per-leaf / min(to_process) formulations
# ---------------------------------------------------------------------------


def oracle_disjoint_paths(
    tree: SpanningTree, component: ComponentGraph
) -> List[RootPath]:
    used_nodes: Set[int] = set()
    used_edges: Set[Tuple[int, int]] = set()
    selected: List[RootPath] = []
    leaves = sorted(
        rep for rep in tree.nodes if component.node(rep).has_empty_neighbor
    )
    for leaf in leaves:
        path = RootPath(tuple(tree.root_path(leaf)))
        if any(node in used_nodes for node in path.interior_and_leaf):
            continue
        if any(edge in used_edges for edge in path.edges()):
            continue
        used_nodes.update(path.interior_and_leaf)
        used_edges.update(path.edges())
        selected.append(path)
    return selected


def _oracle_index(packets: List[InfoPacket]) -> Dict[int, InfoPacket]:
    index: Dict[int, InfoPacket] = {}
    for packet in packets:
        if packet.representative_id in index:
            raise ComponentConstructionError(
                f"two packets claim representative {packet.representative_id}"
            )
        index[packet.representative_id] = packet
    return index


def oracle_build_component(
    packets: List[InfoPacket],
    own: int,
    trace: Optional[List[int]] = None,
) -> Tuple[Dict[int, ComponentNodeInfo], Dict[int, Dict[int, int]]]:
    index = _oracle_index(packets)
    if own not in index:
        raise ComponentConstructionError(
            f"no packet from representative {own}"
        )
    nodes: Dict[int, ComponentNodeInfo] = {}
    adjacency: Dict[int, Dict[int, int]] = {}
    to_process: Set[int] = {own}
    processed: Set[int] = set()
    while to_process:
        rep = min(to_process)
        to_process.discard(rep)
        processed.add(rep)
        if trace is not None:
            trace.append(rep)
        packet = index.get(rep)
        if packet is None:
            raise ComponentConstructionError(
                f"component references representative {rep} but no packet "
                "from it was received; packets are inconsistent"
            )
        nodes[rep] = ComponentNodeInfo(
            representative_id=packet.representative_id,
            robot_ids=packet.robot_ids,
            degree=packet.degree,
            occupied_ports=packet.occupied_ports,
        )
        ports: Dict[int, int] = {}
        for info in packet.occupied_neighbors:
            ports[info.port] = info.representative_id
            if (
                info.representative_id not in processed
                and info.representative_id not in to_process
            ):
                to_process.add(info.representative_id)
        adjacency[rep] = ports
    for u, ports in adjacency.items():
        for v in ports.values():
            if v not in nodes:
                raise ComponentConstructionError(
                    f"edge {u}->{v} leaves the component"
                )
            if u not in adjacency[v].values():
                raise ComponentConstructionError(
                    f"edge {u}->{v} has no reverse direction; packets are "
                    "inconsistent"
                )
    return nodes, adjacency


def oracle_partition(
    packets: List[InfoPacket],
) -> List[Tuple[Dict[int, ComponentNodeInfo], Dict[int, Dict[int, int]]]]:
    index = _oracle_index(packets)
    remaining = set(index)
    components = []
    while remaining:
        seed = min(remaining)
        nodes, adjacency = oracle_build_component(list(index.values()), seed)
        if not set(nodes) <= remaining:
            raise ComponentConstructionError(
                "components overlap; packets are inconsistent"
            )
        remaining -= set(nodes)
        components.append((nodes, adjacency))
    components.sort(key=lambda c: min(c[0]))
    return components


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("error", message)`` for a core call."""
    try:
        return "ok", fn(*args, **kwargs)
    except ComponentConstructionError as exc:
        return "error", str(exc)


def _shape(component: ComponentGraph):
    reps = component.representatives
    return (
        reps,
        {rep: component.node(rep) for rep in reps},
        {rep: component.neighbors_by_port(rep) for rep in reps},
    )


def _oracle_shape(nodes, adjacency):
    reps = sorted(nodes)
    return (
        reps,
        {rep: nodes[rep] for rep in reps},
        {rep: dict(adjacency[rep]) for rep in reps},
    )


def _assert_component_agrees(packets: List[InfoPacket], own: int) -> None:
    trace: List[int] = []
    oracle_trace: List[int] = []
    got = _outcome(build_component, packets, own, processing_trace=trace)
    want = _outcome(oracle_build_component, packets, own, oracle_trace)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _shape(got[1]) == _oracle_shape(*want[1])
    else:
        assert got[1] == want[1]
    assert trace == oracle_trace


def _assert_partition_agrees(packets: List[InfoPacket]) -> None:
    got = _outcome(partition_into_components, packets)
    want = _outcome(oracle_partition, packets)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert [_shape(c) for c in got[1]] == [
            _oracle_shape(*c) for c in want[1]
        ]
    else:
        assert got[1] == want[1]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def placements(draw):
    """A connected graph (n <= 30) and its packets for a random placement.

    ``k`` is drawn either anywhere in ``[1, n]`` or within three of ``n``,
    and robots land on nodes independently, so occupied sets are often
    disconnected and multiplicity nodes are common.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    n = draw(st.integers(min_value=1, max_value=30))
    snapshot = random_connected_graph(n, rng.randint(0, 2 * n), rng)
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=n))
    else:
        k = max(1, n - draw(st.integers(min_value=0, max_value=3)))
    nodes = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k
        )
    )
    ids = rng.sample(range(1, 4 * n + 1), k)
    positions = dict(zip(ids, nodes))
    return list(build_info_packets(snapshot, positions).values())


def _forge(packets: List[InfoPacket], kind: str, pick: int) -> List[InfoPacket]:
    """Damage a consistent packet set in one of three ways."""
    forged = list(packets)
    if kind == "missing":
        del forged[pick % len(forged)]
    elif kind == "duplicate":
        forged.append(forged[pick % len(forged)])
    elif kind == "one_way":
        senders = [i for i, p in enumerate(forged) if p.occupied_neighbors]
        if senders:
            i = senders[pick % len(senders)]
            neighbors = forged[i].occupied_neighbors
            drop = (pick // len(senders)) % len(neighbors)
            forged[i] = dataclasses.replace(
                forged[i],
                occupied_neighbors=neighbors[:drop] + neighbors[drop + 1 :],
            )
    return forged


@st.composite
def random_trees(draw):
    """An arbitrary rooted tree with arbitrary leaf-candidate flags.

    Node IDs are a random permutation so leaf-ID order and tree shape are
    unrelated, which is where the greedy's rejections happen.
    """
    size = draw(st.integers(min_value=1, max_value=30))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    ids = rng.sample(range(1, 4 * size + 1), size)
    chain = draw(st.booleans())
    parent: Dict[int, Optional[int]] = {ids[0]: None}
    children: Dict[int, List[int]] = {ids[0]: []}
    for i in range(1, size):
        up = ids[i - 1] if chain else ids[rng.randrange(i)]
        parent[ids[i]] = up
        children[ids[i]] = []
        children[up].append(ids[i])
    tree = SpanningTree(root=ids[0], parent=parent, children=children)
    leaf_share = draw(st.floats(min_value=0.0, max_value=1.0))
    nodes = {
        rep: ComponentNodeInfo(
            representative_id=rep,
            robot_ids=(rep,),
            degree=1 if rng.random() < leaf_share else 0,
            occupied_ports=(),
        )
        for rep in ids
    }
    return tree, ComponentGraph(nodes, {})


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(placements())
@_SETTINGS
def test_consistent_packets_match_oracles(packets):
    _assert_partition_agrees(packets)
    for packet in packets:
        _assert_component_agrees(packets, packet.representative_id)
    for component in partition_into_components(packets):
        for build in (build_spanning_tree, build_spanning_tree_bfs):
            tree = build(component)
            if tree is None:
                continue
            assert compute_disjoint_paths(
                tree, component
            ) == oracle_disjoint_paths(tree, component)


@given(
    placements(),
    st.sampled_from(["missing", "one_way", "duplicate"]),
    st.integers(min_value=0, max_value=10_000),
)
@_SETTINGS
def test_forged_packets_match_oracles(packets, kind, pick):
    forged = _forge(packets, kind, pick)
    _assert_partition_agrees(forged)
    owners = sorted({p.representative_id for p in packets})
    for own in owners:
        _assert_component_agrees(forged, own)


@given(random_trees())
@_SETTINGS
def test_arbitrary_trees_match_oracle(tree_and_component):
    tree, component = tree_and_component
    assert compute_disjoint_paths(
        tree, component
    ) == oracle_disjoint_paths(tree, component)


def test_forgeries_reach_every_error_message():
    """Each kind of forgery reaches the error it is meant to provoke."""
    packets = list(
        build_info_packets(path_graph(4), {r: r % 3 for r in range(1, 7)}).values()
    )
    messages = {
        kind: {
            _outcome(build_component, _forge(packets, kind, pick), own)[1]
            for pick in range(6)
            for own in (1, 2, 3)
        }
        for kind in ("missing", "one_way", "duplicate")
    }
    assert any("but no packet from it" in str(m) for m in messages["missing"])
    assert any("no reverse direction" in str(m) for m in messages["one_way"])
    assert any("two packets claim" in str(m) for m in messages["duplicate"])


# ---------------------------------------------------------------------------
# Linear work
# ---------------------------------------------------------------------------


class _CountingParent(dict):
    """A ``SpanningTree.parent`` map that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("root_at_smallest_id", [True, False])
def test_disjoint_paths_walk_each_tree_node_once(root_at_smallest_id):
    """On a 2,000-node path whose every node is a leaf candidate, the
    per-candidate root-path walk costs ~size**2 lookups; the selection
    must look each node's parent up at most once."""
    size = 2_000
    ids = list(range(1, size + 1))
    if not root_at_smallest_id:
        ids.reverse()
    parent = _CountingParent({ids[0]: None})
    children: Dict[int, List[int]] = {rep: [] for rep in ids}
    for up, down in zip(ids, ids[1:]):
        parent[down] = up
        children[up].append(down)
    tree = SpanningTree(root=ids[0], parent=parent, children=children)
    component = ComponentGraph(
        {
            rep: ComponentNodeInfo(
                representative_id=rep,
                robot_ids=(rep,),
                degree=1,
                occupied_ports=(),
            )
            for rep in ids
        },
        {},
    )
    paths = compute_disjoint_paths(tree, component)
    assert parent.lookups <= tree.size
    # Smallest ID at the root: the trivial path, then the root's child
    # blocks everything below it.  Smallest ID at the far end: the whole
    # path, then the trivial one.
    if root_at_smallest_id:
        expected = [RootPath((1,)), RootPath((1, 2))]
    else:
        expected = [RootPath(tuple(ids)), RootPath((ids[0],))]
    assert paths == expected


def test_partition_indexes_packets_once(monkeypatch):
    import repro.core.components as components_module

    calls = []
    original = components_module._packet_index

    def counting(packets):
        calls.append(1)
        return original(packets)

    monkeypatch.setattr(components_module, "_packet_index", counting)
    # Three separated occupied nodes on a path: three components.
    packets = list(
        build_info_packets(path_graph(5), {1: 0, 2: 2, 3: 4}).values()
    )
    assert len(partition_into_components(packets)) == 3
    assert len(calls) == 1
