"""Algorithm 1 -- ``ConnectedComponent``: component construction from packets.

Every occupied node of the round graph ``G_r`` is identified by the smallest
robot ID positioned on it (its *representative*; Observation 1 of the
paper).  From the received information packets a robot reconstructs the
connected component ``CG_r^phi`` of occupied nodes containing its own node:
nodes keyed by representative ID, edges annotated with the port numbers at
both endpoints.

The construction follows the paper's Algorithm 1 exactly: starting from the
robot's own node, repeatedly take the smallest-ID unprocessed node, add its
occupied neighbors (known from its packet), and stop when no node of the
partial component has an occupied neighbor outside it.  Because occupied
components are maximal and packets are consistent, the result is the same
for every robot of the component (Lemma 1), which
:func:`build_component` preserves by being a deterministic pure function of
the packet set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.sim.observation import InfoPacket


class ComponentConstructionError(ValueError):
    """The packet set is inconsistent (impossible in a correct run)."""


@dataclass(frozen=True, init=False)
class ComponentNodeInfo:
    """What the component records about one of its (occupied) nodes.

    Built once per packet per component per round, so it has the explicit
    ``__init__`` of the packet types (see :mod:`repro.sim.observation`).
    """

    representative_id: int
    robot_ids: Tuple[int, ...]
    degree: int
    """Degree of the underlying graph node in ``G_r``."""

    occupied_ports: Tuple[int, ...]
    """Ports of this node leading to occupied neighbors."""

    def __init__(
        self,
        representative_id: int,
        robot_ids: Tuple[int, ...],
        degree: int,
        occupied_ports: Tuple[int, ...],
    ) -> None:
        self.__dict__.update(
            representative_id=representative_id,
            robot_ids=robot_ids,
            degree=degree,
            occupied_ports=occupied_ports,
        )

    @property
    def robot_count(self) -> int:
        """Multiplicity of the node."""
        return len(self.robot_ids)

    @property
    def is_multiplicity(self) -> bool:
        """Whether two or more robots sit here."""
        return len(self.robot_ids) >= 2

    @property
    def empty_degree(self) -> int:
        """Number of ports leading to *empty* neighbors in ``G_r``."""
        return self.degree - len(self.occupied_ports)

    @property
    def has_empty_neighbor(self) -> bool:
        """Whether at least one neighbor in ``G_r`` holds no robot."""
        return self.empty_degree > 0

    @property
    def smallest_empty_port(self) -> Optional[int]:
        """Smallest port towards an empty neighbor (the sliding target)."""
        occupied = set(self.occupied_ports)
        for port in range(1, self.degree + 1):
            if port not in occupied:
                return port
        return None


class ComponentGraph:
    """A connected component ``CG_r^phi`` of the occupied subgraph.

    Nodes are representative IDs; ``adjacency[u][port] = v`` records that
    the node represented by ``u`` reaches the node represented by ``v``
    through ``port``.  Both directions are stored, so the port of the
    reverse direction is ``port_between(v, u)``.

    The constructor copies its arguments.  Algorithm 1 builds maps for one
    component alone and hands them over through :meth:`_adopt` instead;
    Algorithms 2 and 3 (same package) read ``_nodes`` and ``_adjacency``
    directly, where the public queries would copy or sort.
    """

    def __init__(
        self,
        nodes: Mapping[int, ComponentNodeInfo],
        adjacency: Mapping[int, Mapping[int, int]],
    ) -> None:
        self._nodes: Dict[int, ComponentNodeInfo] = dict(nodes)
        self._adjacency: Dict[int, Dict[int, int]] = {
            rep: dict(ports) for rep, ports in adjacency.items()
        }
        for rep in self._nodes:
            self._adjacency.setdefault(rep, {})
        self._reverse: Dict[int, Dict[int, int]] = {
            rep: {nbr: port for port, nbr in ports.items()}
            for rep, ports in self._adjacency.items()
        }

    @classmethod
    def _adopt(
        cls,
        nodes: Dict[int, ComponentNodeInfo],
        adjacency: Dict[int, Dict[int, int]],
        reverse: Dict[int, Dict[int, int]],
    ) -> "ComponentGraph":
        """Take ownership of maps nobody else holds, without copying.

        ``adjacency`` and ``reverse`` must have an entry for every node,
        and ``reverse[u]`` must be ``{v: port}`` of ``adjacency[u]``.
        """
        component = cls.__new__(cls)
        component._nodes = nodes
        component._adjacency = adjacency
        component._reverse = reverse
        return component

    # -- queries --------------------------------------------------------

    @property
    def representatives(self) -> List[int]:
        """Sorted representative IDs of the component's nodes."""
        return sorted(self._nodes)

    @property
    def size(self) -> int:
        """Number of occupied nodes in the component."""
        return len(self._nodes)

    def node(self, rep: int) -> ComponentNodeInfo:
        """Info record of the node represented by ``rep``."""
        return self._nodes[rep]

    def __contains__(self, rep: int) -> bool:
        return rep in self._nodes

    def neighbors(self, rep: int) -> List[int]:
        """Occupied neighbors of ``rep`` within the component, sorted."""
        return sorted(self._adjacency[rep].values())

    def neighbors_by_port(self, rep: int) -> Dict[int, int]:
        """``{port: neighbor_rep}`` map of ``rep`` (occupied edges only)."""
        return dict(self._adjacency[rep])

    def port_between(self, u_rep: int, v_rep: int) -> int:
        """Port at ``u_rep``'s node leading to ``v_rep``'s node."""
        try:
            return self._reverse[u_rep][v_rep]
        except KeyError:
            raise ComponentConstructionError(
                f"no component edge from {u_rep} to {v_rep}"
            ) from None

    def edges(self) -> List[Tuple[int, int]]:
        """Component edges as sorted ``(min_rep, max_rep)`` pairs."""
        seen = set()
        for u, ports in self._adjacency.items():
            for v in ports.values():
                seen.add((min(u, v), max(u, v)))
        return sorted(seen)

    def multiplicity_representatives(self) -> List[int]:
        """Representatives of multiplicity nodes, sorted ascending."""
        return sorted(
            rep for rep, info in self._nodes.items() if info.is_multiplicity
        )

    @property
    def has_multiplicity(self) -> bool:
        """Whether any node of the component holds >= 2 robots."""
        return any(info.is_multiplicity for info in self._nodes.values())

    def total_robots(self) -> int:
        """Robots positioned on this component's nodes."""
        return sum(info.robot_count for info in self._nodes.values())

    def robot_ids(self) -> List[int]:
        """All robot IDs present in the component, sorted."""
        ids: List[int] = []
        for info in self._nodes.values():
            ids.extend(info.robot_ids)
        return sorted(ids)

    def __repr__(self) -> str:
        return (
            f"ComponentGraph(nodes={self.size}, "
            f"robots={self.total_robots()})"
        )


def _packet_index(packets: Iterable[InfoPacket]) -> Dict[int, InfoPacket]:
    index: Dict[int, InfoPacket] = {}
    for packet in packets:
        if packet.representative_id in index:
            raise ComponentConstructionError(
                f"two packets claim representative {packet.representative_id}"
            )
        index[packet.representative_id] = packet
    return index


def build_component(
    packets: Iterable[InfoPacket],
    own_representative: int,
    *,
    processing_trace: Optional[List[int]] = None,
) -> ComponentGraph:
    """Algorithm 1: build the component containing ``own_representative``.

    ``packets`` is the set of information packets the robot received (all
    occupied nodes' packets under global communication).  Processing order
    follows the paper: the smallest-ID to-be-processed node first.  The
    loop ends when every reachable node's occupied neighbors are already in
    the component -- the paper's two termination conditions (all packets
    consumed / no occupied neighbor leads outside) collapse to BFS
    exhaustion.

    ``processing_trace``, if supplied, receives the representative IDs in
    the exact order the loop processed them (used by the pseudocode
    faithfulness tests; the resulting component is order-independent).

    O(P + E + V log V) for P packets and a component of V nodes and E
    occupied edges: the packets are indexed once, and a heap yields the
    smallest to-be-processed ID.
    """
    return _build_from_index(
        _packet_index(packets), own_representative, processing_trace
    )


def _build_from_index(
    index: Mapping[int, InfoPacket],
    own_representative: int,
    processing_trace: Optional[List[int]],
) -> ComponentGraph:
    if own_representative not in index:
        raise ComponentConstructionError(
            f"no packet from representative {own_representative}"
        )

    nodes: Dict[int, ComponentNodeInfo] = {}
    adjacency: Dict[int, Dict[int, int]] = {}
    reverse: Dict[int, Dict[int, int]] = {}
    # Every representative ever queued: each is pushed once, so the heap
    # pops exactly the order of repeatedly taking min(to_process).
    seen: Set[int] = {own_representative}
    to_process: List[int] = [own_representative]

    while to_process:
        rep = heapq.heappop(to_process)  # paper: smallest-ID node first
        if processing_trace is not None:
            processing_trace.append(rep)
        packet = index.get(rep)
        if packet is None:
            raise ComponentConstructionError(
                f"component references representative {rep} but no packet "
                "from it was received; packets are inconsistent"
            )
        ports: Dict[int, int] = {}
        back: Dict[int, int] = {}
        occupied: List[int] = []
        for info in packet.occupied_neighbors:
            port = info.port
            neighbor = info.representative_id
            ports[port] = neighbor
            back[neighbor] = port
            occupied.append(port)
            if neighbor not in seen:
                seen.add(neighbor)
                heapq.heappush(to_process, neighbor)
        if len(ports) != len(occupied):
            # A forged packet repeats a port: only the port's last
            # neighbor is an edge, so invert the final map instead.
            back = {neighbor: port for port, neighbor in ports.items()}
        nodes[rep] = ComponentNodeInfo(
            rep, packet.robot_ids, packet.degree, tuple(occupied)
        )
        adjacency[rep] = ports
        reverse[rep] = back

    _check_symmetry(adjacency, reverse)
    return ComponentGraph._adopt(nodes, adjacency, reverse)


def _check_symmetry(
    adjacency: Mapping[int, Mapping[int, int]],
    reverse: Mapping[int, Mapping[int, int]],
) -> None:
    """Every edge stays inside the component and has a reverse direction.

    O(E): ``reverse`` has an entry for exactly the component's nodes, and
    ``reverse[v]`` holds every node ``v`` has an edge to.
    """
    for u, ports in adjacency.items():
        for v in ports.values():
            back = reverse.get(v)
            if back is None:
                raise ComponentConstructionError(
                    f"edge {u}->{v} leaves the component"
                )
            if u not in back:
                raise ComponentConstructionError(
                    f"edge {u}->{v} has no reverse direction; packets are "
                    "inconsistent"
                )


def partition_into_components(
    packets: Iterable[InfoPacket],
) -> List[ComponentGraph]:
    """All components ``CG_r = {CG_r^1, ..., CG_r^beta}`` of the round.

    Runs Algorithm 1 from each not-yet-covered representative (smallest
    first), which is exactly how the full component graph decomposes.
    Returned sorted by smallest representative.

    O(P log P + E) for P packets and E occupied edges: the packets are
    indexed and sorted once for all components.
    """
    index = _packet_index(packets)
    covered: Set[int] = set()
    components: List[ComponentGraph] = []
    for seed in sorted(index):
        if seed in covered:
            continue
        component = _build_from_index(index, seed, None)
        members = component._nodes.keys()
        if not covered.isdisjoint(members):
            raise ComponentConstructionError(
                "components overlap; packets are inconsistent"
            )
        covered.update(members)
        components.append(component)
    # Each seed is the smallest uncovered ID and lies in its own
    # component, so seeds -- and the list -- ascend by smallest member.
    return components
