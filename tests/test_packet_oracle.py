"""Differential and contract tests of the Communicate phase's value layer.

The oracle below is the per-pair packet construction transcribed as
plainly as possible: for every occupied node and every port, look the
neighbour's robots up and build a fresh ID tuple for that one viewer.
``build_info_packets`` and ``observations_from_packets`` must agree with
it on every output -- the packet map in its iteration order, and every
robot's observation under both communication models.

The contract tests pin what the four frozen value types promise callers:
immutability, equality and hashing by fields, ``dataclasses.replace``,
pickling and deep copies, and the two ``NeighborInfo`` validation errors.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from typing import Dict, List, Mapping, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.components import (
    ComponentConstructionError,
    ComponentGraph,
    ComponentNodeInfo,
    build_component,
)
from repro.graph.generators import random_connected_graph
from repro.graph.snapshot import GraphSnapshot
from repro.sim.observation import (
    CommunicationModel,
    InfoPacket,
    NeighborInfo,
    Observation,
    build_info_packets,
    observations_from_packets,
)

# ---------------------------------------------------------------------------
# Oracle: one NeighborInfo, and one fresh ID tuple, per (viewer, neighbour)
# ---------------------------------------------------------------------------


def oracle_build_info_packets(
    snapshot: GraphSnapshot,
    positions: Mapping[int, int],
    *,
    neighborhood_knowledge: bool = True,
) -> Dict[int, InfoPacket]:
    ids_at_node: Dict[int, List[int]] = {}
    for robot_id, node in positions.items():
        ids_at_node.setdefault(node, []).append(robot_id)
    for ids in ids_at_node.values():
        ids.sort()

    packets: Dict[int, InfoPacket] = {}
    for node, ids in ids_at_node.items():
        neighbor_infos: List[NeighborInfo] = []
        if neighborhood_knowledge:
            for port, neighbor in enumerate(snapshot.neighbors(node), 1):
                neighbor_ids = ids_at_node.get(neighbor)
                if neighbor_ids:
                    neighbor_infos.append(
                        NeighborInfo(
                            port=port,
                            representative_id=neighbor_ids[0],
                            robot_count=len(neighbor_ids),
                            robot_ids=tuple(neighbor_ids),
                        )
                    )
        packets[node] = InfoPacket(
            representative_id=ids[0],
            robot_ids=tuple(ids),
            degree=snapshot.degree(node),
            occupied_neighbors=tuple(neighbor_infos),
        )
    return packets


def oracle_observations(
    packets_by_node: Mapping[int, InfoPacket],
    positions: Mapping[int, int],
    round_index: int,
    *,
    communication: CommunicationModel,
    neighborhood_knowledge: bool,
    entry_ports: Optional[Mapping[int, int]],
) -> Dict[int, Observation]:
    all_packets = tuple(
        sorted(packets_by_node.values(), key=lambda p: p.representative_id)
    )
    entry_ports = entry_ports or {}
    observations: Dict[int, Observation] = {}
    for robot_id, node in positions.items():
        own = packets_by_node[node]
        received = (
            all_packets
            if communication is CommunicationModel.GLOBAL
            else (own,)
        )
        observations[robot_id] = Observation(
            robot_id=robot_id,
            round_index=round_index,
            own_packet=own,
            packets=received,
            neighborhood_knowledge=neighborhood_knowledge,
            entry_port=entry_ports.get(robot_id),
        )
    return observations


# ---------------------------------------------------------------------------
# Strategy
# ---------------------------------------------------------------------------


@st.composite
def rounds(draw):
    """A connected snapshot (n <= 30), a placement and some entry ports.

    Robot IDs are a random sample, and robots land on nodes independently
    of each other and of the dict order, so multiplicity nodes, isolated
    occupied nodes and out-of-order position maps are all common.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    n = draw(st.integers(min_value=1, max_value=30))
    snapshot = random_connected_graph(n, rng.randint(0, 2 * n), rng)
    k = draw(st.integers(min_value=1, max_value=n))
    nodes = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k
        )
    )
    ids = rng.sample(range(1, 4 * n + 1), k)
    positions = dict(zip(ids, nodes))
    entry_ports = {
        robot: rng.randint(1, max(1, snapshot.degree(node)))
        for robot, node in positions.items()
        if rng.random() < 0.5
    }
    return snapshot, positions, entry_ports


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(rounds(), st.booleans(), st.integers(min_value=0, max_value=50))
@_SETTINGS
def test_packets_and_observations_match_oracle(round_, nk, round_index):
    snapshot, positions, entry_ports = round_
    got = build_info_packets(
        snapshot, positions, neighborhood_knowledge=nk
    )
    want = oracle_build_info_packets(
        snapshot, positions, neighborhood_knowledge=nk
    )
    assert list(got.items()) == list(want.items())
    for communication in CommunicationModel:
        kwargs = dict(
            communication=communication,
            neighborhood_knowledge=nk,
            entry_ports=entry_ports,
        )
        got_obs = observations_from_packets(
            got, positions, round_index, **kwargs
        )
        want_obs = oracle_observations(
            want, positions, round_index, **kwargs
        )
        assert list(got_obs.items()) == list(want_obs.items())


# ---------------------------------------------------------------------------
# Value-type contract
# ---------------------------------------------------------------------------

_NEIGHBOR = NeighborInfo(
    port=2, representative_id=3, robot_count=2, robot_ids=(3, 8)
)
_PACKET = InfoPacket(
    representative_id=1,
    robot_ids=(1, 5),
    degree=3,
    occupied_neighbors=(_NEIGHBOR,),
)
_OBSERVATION = Observation(
    robot_id=5,
    round_index=4,
    own_packet=_PACKET,
    packets=(_PACKET,),
    neighborhood_knowledge=True,
    entry_port=None,
)
_NODE_INFO = ComponentNodeInfo(
    representative_id=1, robot_ids=(1, 5), degree=3, occupied_ports=(2,)
)

#: One instance of each value type, the name of a field to change, and a
#: valid replacement value for it.
_VALUES = [
    (_NEIGHBOR, "port", 1),
    (_PACKET, "degree", 4),
    (_OBSERVATION, "entry_port", 2),
    (_NODE_INFO, "occupied_ports", (2, 3)),
]

_FIELDS = {
    NeighborInfo: ("port", "representative_id", "robot_count", "robot_ids"),
    InfoPacket: ("representative_id", "robot_ids", "degree", "occupied_neighbors"),
    Observation: (
        "robot_id",
        "round_index",
        "own_packet",
        "packets",
        "neighborhood_knowledge",
        "entry_port",
    ),
    ComponentNodeInfo: ("representative_id", "robot_ids", "degree", "occupied_ports"),
}

_IDS = [type(value).__name__ for value, _, _ in _VALUES]


@pytest.mark.parametrize("value,field,new", _VALUES, ids=_IDS)
class TestValueTypeContract:
    def test_fields_in_declaration_order(self, value, field, new):
        names = tuple(f.name for f in dataclasses.fields(value))
        assert names == _FIELDS[type(value)]

    def test_frozen(self, value, field, new):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, new)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)

    def test_eq_and_hash_by_fields(self, value, field, new):
        kwargs = {
            f.name: getattr(value, f.name) for f in dataclasses.fields(value)
        }
        twin = type(value)(**kwargs)
        assert twin == value and hash(twin) == hash(value)
        positional = type(value)(*kwargs.values())
        assert positional == value
        other = type(value)(**{**kwargs, field: new})
        assert other != value
        assert value != tuple(kwargs.values())

    def test_replace(self, value, field, new):
        changed = dataclasses.replace(value, **{field: new})
        assert type(changed) is type(value)
        assert getattr(changed, field) == new
        assert getattr(value, field) != new
        for f in dataclasses.fields(value):
            if f.name != field:
                assert getattr(changed, f.name) == getattr(value, f.name)
        assert dataclasses.replace(changed, **{field: getattr(value, field)}) == value

    def test_pickle_and_deepcopy_round_trip(self, value, field, new):
        for clone in (
            pickle.loads(pickle.dumps(value)),
            copy.deepcopy(value),
            copy.copy(value),
        ):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(clone, field, new)

    def test_repr_lists_fields(self, value, field, new):
        text = repr(value)
        assert text.startswith(type(value).__name__ + "(")
        for name in _FIELDS[type(value)]:
            assert f"{name}={getattr(value, name)!r}" in text


class TestNeighborInfoValidation:
    def test_count_mismatch_message(self):
        with pytest.raises(ValueError, match=r"^robot_count must match robot_ids$"):
            NeighborInfo(port=1, representative_id=2, robot_count=2, robot_ids=(2,))

    def test_wrong_representative_message(self):
        with pytest.raises(
            ValueError, match=r"^representative must be the smallest ID$"
        ):
            NeighborInfo(
                port=1, representative_id=5, robot_count=2, robot_ids=(2, 5)
            )

    def test_count_checked_before_representative(self):
        with pytest.raises(ValueError, match="robot_count"):
            NeighborInfo(1, 5, 3, (2, 5))

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="robot_count"):
            dataclasses.replace(_NEIGHBOR, robot_count=5)
        with pytest.raises(ValueError, match="smallest"):
            dataclasses.replace(_NEIGHBOR, representative_id=8)

    def test_empty_ids_need_zero_count_only(self):
        info = NeighborInfo(port=1, representative_id=7, robot_count=0, robot_ids=())
        assert info.robot_ids == ()


# ---------------------------------------------------------------------------
# ComponentGraph owns its maps
# ---------------------------------------------------------------------------


def test_component_graph_does_not_alias_its_arguments():
    info = {
        rep: ComponentNodeInfo(
            representative_id=rep, robot_ids=(rep,), degree=2, occupied_ports=ports
        )
        for rep, ports in ((1, (1,)), (2, (1, 2)), (3, (1,)))
    }
    nodes = dict(info)
    adjacency = {1: {1: 2}, 2: {1: 1, 2: 3}, 3: {1: 2}}
    component = ComponentGraph(nodes, adjacency)

    nodes[9] = info[1]
    del nodes[3]
    adjacency[2][2] = 1
    adjacency[1][5] = 3
    adjacency[4] = {1: 1}

    assert component.representatives == [1, 2, 3]
    assert component.node(3) == info[3]
    assert 9 not in component
    assert component.neighbors_by_port(2) == {1: 1, 2: 3}
    assert component.neighbors_by_port(1) == {1: 2}
    assert component.port_between(2, 3) == 2
    assert component.edges() == [(1, 2), (2, 3)]

    # The map a query returns is the caller's too.
    returned = component.neighbors_by_port(2)
    returned[7] = 1
    assert component.neighbors_by_port(2) == {1: 1, 2: 3}


def test_component_graph_gives_every_node_an_adjacency_entry():
    info = ComponentNodeInfo(
        representative_id=4, robot_ids=(4,), degree=0, occupied_ports=()
    )
    component = ComponentGraph({4: info}, {})
    assert component.neighbors_by_port(4) == {}
    assert component.neighbors(4) == []
    assert component.edges() == []


def test_repeated_port_keeps_only_its_last_neighbor():
    """A forged packet that lists port 1 twice has one edge there, to the
    last neighbor listed: the first neighbor's edge back to the forger
    then has no reverse direction."""
    positions = {1: 0, 2: 1, 3: 2}
    snapshot = GraphSnapshot.from_edges(3, [(0, 1), (1, 2)])
    packets = build_info_packets(snapshot, positions)
    middle = packets[1]
    forged = dataclasses.replace(
        middle,
        occupied_neighbors=tuple(
            dataclasses.replace(info, port=1)
            for info in middle.occupied_neighbors
        ),
    )
    assert [(i.port, i.representative_id) for i in forged.occupied_neighbors] == [
        (1, 1),
        (1, 3),
    ]
    received = [packets[0], forged, packets[2]]
    with pytest.raises(
        ComponentConstructionError,
        match=r"^edge 1->2 has no reverse direction; packets are inconsistent$",
    ):
        build_component(received, 2)
