"""Robot-visible observations: information packets and local views.

This module implements the paper's Communicate phase.  Everything a robot
can learn in a round is packaged here, and *only* here, so the information
model is auditable in one place:

* **Anonymity** -- no packet or observation ever contains a ground-truth
  node index.  Occupied nodes are referred to by the smallest robot ID
  positioned on them (the *representative*), exactly as in the paper's
  component construction (Observation 1: every component node has a unique
  ID because a robot on it supplies one).
* **1-neighborhood knowledge** (when enabled) -- a robot at ``v`` learns,
  for each neighbor of ``v`` in ``G_r``: whether it is occupied, the IDs of
  the robots on it, their count, and the port of ``v`` leading to it.
  Unoccupied neighbors are visible only as "an empty port".
* **Global communication** (when enabled) -- the per-node
  :class:`InfoPacket` of every occupied node is delivered to every robot.
  Under local communication a robot receives only its own node's packet
  (co-located robots can always exchange everything).

The quadruple of the paper, ``InfoPacket_r(v_i) = {a_i, count(a_i),
N_r^occupied(v_i), P_r^occupied(v_i)}``, maps to :class:`InfoPacket` fields
one-to-one, extended with the degree of the node (a robot trivially knows
its own node's ports ``1..delta_r(v)``) and the full co-located ID list
(needed to pick movers deterministically).

The value types are frozen dataclasses with one explicit ``__init__`` each
(``init=False``).  Every round builds one :class:`InfoPacket` per occupied
node, one :class:`NeighborInfo` per occupied edge end and one
:class:`Observation` per robot, so construction is the Communicate phase's
per-round cost.  The generated frozen ``__init__`` stores each field
through its own ``object.__setattr__`` call and then calls
``__post_init__``; the explicit one validates inline and fills the
instance dict in one call.  The dataclass machinery still supplies
equality, hashing, ``repr``, ``dataclasses.replace`` (which calls
``__init__`` by keyword, so validation still runs) and
``FrozenInstanceError`` on assignment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.graph.snapshot import GraphSnapshot


class CommunicationModel(enum.Enum):
    """Who a robot can talk to during the Communicate phase."""

    GLOBAL = "global"
    LOCAL = "local"


#: Which communication model each :class:`Observation` member needs.
#:
#: ``"local"`` members are meaningful under both models; ``"global"``
#: members only carry more than the robot's own node under global
#: communication, so an algorithm declaring
#: ``requires_communication = CommunicationModel.LOCAL`` must not read
#: them -- doing so silently bakes a global-information assumption into a
#: local-model algorithm (the split Theorems 1-2 make load-bearing).
#: ``repro lint --all`` (rule A003) enforces this statically for
#: every algorithm class; the table lives here, next to the governed
#: dataclass, so adding an ``Observation`` member forces a scope decision
#: (the lint tier's completeness test fails on any member missing here).
OBSERVATION_FIELD_SCOPES: Dict[str, str] = {
    "robot_id": "local",
    "round_index": "local",
    "own_packet": "local",
    "neighborhood_knowledge": "local",
    "entry_port": "local",
    "packets": "global",
    "packet_index": "global",
    "sees_multiplicity": "global",
}


@dataclass(frozen=True, init=False)
class NeighborInfo:
    """What 1-neighborhood knowledge reveals about one occupied neighbor."""

    port: int
    """Port of the observing node leading to this neighbor."""

    representative_id: int
    """Smallest robot ID on the neighbor node."""

    robot_count: int
    """Number of robots on the neighbor node (multiplicity)."""

    robot_ids: Tuple[int, ...]
    """All robot IDs on the neighbor node, sorted ascending."""

    def __init__(
        self,
        port: int,
        representative_id: int,
        robot_count: int,
        robot_ids: Tuple[int, ...],
    ) -> None:
        if robot_count != len(robot_ids):
            raise ValueError("robot_count must match robot_ids")
        if robot_ids and representative_id != min(robot_ids):
            raise ValueError("representative must be the smallest ID")
        self.__dict__.update(
            port=port,
            representative_id=representative_id,
            robot_count=robot_count,
            robot_ids=robot_ids,
        )


@dataclass(frozen=True, init=False)
class InfoPacket:
    """The per-occupied-node broadcast of the paper's Communicate phase."""

    representative_id: int
    """Smallest robot ID on the sender node (``a_i`` in the paper)."""

    robot_ids: Tuple[int, ...]
    """All robot IDs on the sender node, sorted ascending."""

    degree: int
    """``delta_r(v)``: the sender node's degree, i.e. its ports are 1..degree."""

    occupied_neighbors: Tuple[NeighborInfo, ...]
    """1-NK view of the occupied neighbors, sorted by port.

    Empty when the run disables 1-neighborhood knowledge: the packet then
    carries only who is here and how many ports exist.
    """

    def __init__(
        self,
        representative_id: int,
        robot_ids: Tuple[int, ...],
        degree: int,
        occupied_neighbors: Tuple[NeighborInfo, ...],
    ) -> None:
        self.__dict__.update(
            representative_id=representative_id,
            robot_ids=robot_ids,
            degree=degree,
            occupied_neighbors=occupied_neighbors,
        )

    @property
    def robot_count(self) -> int:
        """``count(a_i)``: multiplicity of the sender node."""
        return len(self.robot_ids)

    @property
    def is_multiplicity(self) -> bool:
        """Whether the sender node holds two or more robots."""
        return len(self.robot_ids) >= 2

    @property
    def occupied_ports(self) -> Tuple[int, ...]:
        """``P_r^occupied(v)``: ports leading to occupied neighbors."""
        return tuple(info.port for info in self.occupied_neighbors)

    @property
    def empty_ports(self) -> Tuple[int, ...]:
        """Ports of the sender node leading to *unoccupied* neighbors.

        Derived: a robot knows all its ports ``1..degree`` and, with 1-NK,
        which of them lead to occupied nodes; the rest are empty.
        """
        occupied = set(self.occupied_ports)
        return tuple(p for p in range(1, self.degree + 1) if p not in occupied)

    @property
    def smallest_empty_port(self) -> Optional[int]:
        """The smallest port towards an empty neighbor, if any."""
        empty = self.empty_ports
        return empty[0] if empty else None

    def neighbor_by_port(self, port: int) -> Optional[NeighborInfo]:
        """The occupied-neighbor record behind ``port``, if occupied."""
        for info in self.occupied_neighbors:
            if info.port == port:
                return info
        return None


@dataclass(frozen=True, init=False)
class Observation:
    """Everything one robot sees in one round's Communicate phase."""

    robot_id: int
    round_index: int
    own_packet: InfoPacket
    """The packet of the robot's own node (always available: a robot knows
    its node's degree, its co-located robots, and -- with 1-NK -- its
    occupied neighbors)."""

    packets: Tuple[InfoPacket, ...]
    """All packets received: every occupied node's packet under global
    communication, only ``own_packet`` under local communication.  Sorted
    by representative ID."""

    neighborhood_knowledge: bool
    """Whether 1-NK was available (occupied_neighbors fields populated)."""

    entry_port: Optional[int]
    """Port of the current node through which the robot entered it on its
    most recent move, or None if it has not moved yet.  (The paper grants
    this: a moving robot learns both exit and entry ports.)  Note that on a
    dynamic graph a past entry port is generally stale -- ports carry no
    cross-round meaning -- but static-graph baselines rely on it."""

    def __init__(
        self,
        robot_id: int,
        round_index: int,
        own_packet: InfoPacket,
        packets: Tuple[InfoPacket, ...],
        neighborhood_knowledge: bool,
        entry_port: Optional[int],
    ) -> None:
        self.__dict__.update(
            robot_id=robot_id,
            round_index=round_index,
            own_packet=own_packet,
            packets=packets,
            neighborhood_knowledge=neighborhood_knowledge,
            entry_port=entry_port,
        )

    @property
    def packet_index(self) -> Dict[int, InfoPacket]:
        """Packets keyed by representative ID."""
        return {p.representative_id: p for p in self.packets}

    @property
    def sees_multiplicity(self) -> bool:
        """Whether any received packet reports a multiplicity node."""
        for packet in self.packets:
            if packet.is_multiplicity:
                return True
        return False


def build_info_packets(
    snapshot: GraphSnapshot,
    positions: Mapping[int, int],
    *,
    neighborhood_knowledge: bool = True,
) -> Dict[int, InfoPacket]:
    """Build the packet of every occupied node, keyed by ground-truth node.

    ``positions`` maps alive robot id -> node.  The returned dict is keyed
    by node index for the *engine's* convenience; the packets themselves
    contain no node indices and are what robots receive.
    """
    ids_at_node: Dict[int, List[int]] = {}
    for robot_id, node in positions.items():
        ids_at_node.setdefault(node, []).append(robot_id)
    # One sorted ID tuple per occupied node, shared by its own packet and
    # by every neighbor's view of it.
    robots_at: Dict[int, Tuple[int, ...]] = {
        node: tuple(sorted(ids)) for node, ids in ids_at_node.items()
    }

    packets: Dict[int, InfoPacket] = {}
    for node, ids in robots_at.items():
        neighbors = snapshot.neighbors(node)
        neighbor_infos: List[NeighborInfo] = []
        if neighborhood_knowledge:
            for port, neighbor in enumerate(neighbors, 1):
                neighbor_ids = robots_at.get(neighbor)
                if neighbor_ids:
                    neighbor_infos.append(
                        NeighborInfo(
                            port, neighbor_ids[0], len(neighbor_ids), neighbor_ids
                        )
                    )
        packets[node] = InfoPacket(
            ids[0], ids, len(neighbors), tuple(neighbor_infos)
        )
    return packets


def observations_from_packets(
    packets_by_node: Mapping[int, InfoPacket],
    positions: Mapping[int, int],
    round_index: int,
    *,
    communication: CommunicationModel = CommunicationModel.GLOBAL,
    neighborhood_knowledge: bool = True,
    entry_ports: Optional[Mapping[int, int]] = None,
) -> Dict[int, Observation]:
    """Deliver an already-built (possibly forged) packet set to the robots.

    The lower half of the Communicate phase, split out so the byzantine
    fault model can interpose packet forgery between construction and
    delivery.  ``packets_by_node`` is keyed by ground-truth node (engine
    bookkeeping); the delivered observations contain no node indices.
    """
    all_packets = tuple(
        sorted(packets_by_node.values(), key=lambda p: p.representative_id)
    )
    deliver_all = communication is CommunicationModel.GLOBAL
    entry_port = (entry_ports or {}).get

    observations: Dict[int, Observation] = {}
    for robot_id, node in positions.items():
        own = packets_by_node[node]
        observations[robot_id] = Observation(
            robot_id,
            round_index,
            own,
            all_packets if deliver_all else (own,),
            neighborhood_knowledge,
            entry_port(robot_id),
        )
    return observations


def build_observations(
    snapshot: GraphSnapshot,
    positions: Mapping[int, int],
    round_index: int,
    *,
    communication: CommunicationModel = CommunicationModel.GLOBAL,
    neighborhood_knowledge: bool = True,
    entry_ports: Optional[Mapping[int, int]] = None,
) -> Dict[int, Observation]:
    """Build the Observation of every alive robot for this round."""
    packets_by_node = build_info_packets(
        snapshot, positions, neighborhood_knowledge=neighborhood_knowledge
    )
    return observations_from_packets(
        packets_by_node,
        positions,
        round_index,
        communication=communication,
        neighborhood_knowledge=neighborhood_knowledge,
        entry_ports=entry_ports,
    )
