"""Immutable port-labelled graph snapshots.

A :class:`GraphSnapshot` is the graph ``G_r`` of a single round: an
undirected simple graph on nodes ``0..n-1`` where each node labels its
incident edges with distinct ports ``1..degree(v)``.  Node indices are
*ground truth* used by the simulator and the adversary only; the robots
never observe them (the graph is anonymous).  Ports, in contrast, are
observable: a robot leaving node ``u`` through port ``p`` learns ``p`` and,
on arrival at the other endpoint ``v``, learns the entry port (the port of
``v`` on the same edge).  There is no correlation between the two port
numbers of an edge, and no correlation between the ports of consecutive
rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class PortLabeledEdge:
    """An undirected edge together with the port numbers at both endpoints.

    ``u`` reaches ``v`` through port ``port_u`` and vice versa.  The edge is
    stored with ``u < v`` so that it has a canonical form.
    """

    u: int
    port_u: int
    v: int
    port_v: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop at node {self.u} is not allowed")

    def endpoints(self) -> FrozenSet[int]:
        """Return the unordered endpoint pair."""
        return frozenset((self.u, self.v))

    def other(self, node: int) -> int:
        """Return the endpoint opposite to ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of {self}")

    def port_at(self, node: int) -> int:
        """Return the port number of the edge at endpoint ``node``."""
        if node == self.u:
            return self.port_u
        if node == self.v:
            return self.port_v
        raise ValueError(f"node {node} is not an endpoint of {self}")


class GraphSnapshot:
    """An immutable, connected-or-not, port-labelled simple graph.

    The one stored form is CSR: ``indptr`` and the port-ordered
    ``neighbors``, so port ``p`` of ``v`` leads to
    ``neighbors[indptr[v] + p - 1]`` (see :meth:`csr`).  Instances are
    normally built with :meth:`from_edges` (ports assigned canonically or
    randomly) or :meth:`from_port_maps` (explicit ports).  All query
    methods are O(1) or O(degree); :meth:`edges` is built on first use.
    """

    __slots__ = ("_n", "_indptr", "_nbrs", "_edge_list", "_converted")

    def __init__(
        self, n: int, indptr: Sequence[int], neighbors: Sequence[int]
    ) -> None:
        """Wrap CSR arrays as they are, without checking them.

        Prefer the class-method constructors, which validate their input.
        """
        if n <= 0:
            raise ValueError(f"graph must have at least one node, got n={n}")
        self._n = n
        self._indptr: Tuple[int, ...] = tuple(indptr)
        self._nbrs: Tuple[int, ...] = tuple(neighbors)
        self._edge_list: Optional[Tuple[PortLabeledEdge, ...]] = None
        self._converted: Optional[Tuple[Callable[..., Any], Any, Any]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        *,
        rng: Optional[random.Random] = None,
    ) -> "GraphSnapshot":
        """Build a snapshot from an edge list, assigning port numbers.

        If ``rng`` is given the ports of every node are a random permutation
        of ``1..degree(v)`` (an adversarial/arbitrary labelling); otherwise
        ports are assigned in increasing neighbor-index order, which is
        deterministic and convenient for tests.  Either way the result does
        not depend on the order of ``edges``.
        """
        neighbor_lists: List[List[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            neighbor_lists[u].append(v)
            neighbor_lists[v].append(u)

        indptr = [0]
        flat: List[int] = []
        for nbrs in neighbor_lists:
            nbrs.sort()
            if rng is not None:
                rng.shuffle(nbrs)
            flat += nbrs
            indptr.append(len(flat))
        return cls(n, indptr, flat)

    @classmethod
    def from_port_maps(
        cls, n: int, adj_by_port: Sequence[Mapping[int, int]]
    ) -> "GraphSnapshot":
        """Build a snapshot from explicit ``{port: neighbor}`` maps.

        Checks the port structure: bijective ports ``1..degree``, symmetric
        adjacency, simple graph.
        """
        if n <= 0:
            raise ValueError(f"graph must have at least one node, got n={n}")
        if len(adj_by_port) != n:
            raise ValueError(
                f"expected {n} port maps, got {len(adj_by_port)}"
            )
        _check_structure(n, adj_by_port)
        indptr = [0]
        flat: List[int] = []
        for ports in adj_by_port:
            flat += (ports[port] for port in range(1, len(ports) + 1))
            indptr.append(len(flat))
        return cls(n, indptr, flat)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``m_r``."""
        return len(self._nbrs) // 2

    def nodes(self) -> range:
        """Iterate over node indices."""
        return range(self._n)

    def csr(
        self, convert: Optional[Callable[[Tuple[int, ...]], Any]] = None
    ) -> Tuple[Any, Any]:
        """The port-ordered CSR arrays ``(indptr, neighbors)``.

        ``neighbors[indptr[v]:indptr[v + 1]]`` lists ``v``'s neighbors in
        increasing port order.  With ``convert`` (an array constructor) the
        pair is converted on the first call and kept with the snapshot, so
        a static graph is converted once per run, not once per round.
        """
        if convert is None:
            return self._indptr, self._nbrs
        if self._converted is None or self._converted[0] is not convert:
            self._converted = (
                convert, convert(self._indptr), convert(self._nbrs)
            )
        return self._converted[1], self._converted[2]

    def _edge_pairs(self) -> Iterator[Tuple[int, int]]:
        """Every edge as ``(u, v)`` with ``u < v``, in :meth:`edges` order."""
        for u in range(self._n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, v

    def edges(self) -> Tuple[PortLabeledEdge, ...]:
        """All edges with their port labels: ``u`` ascending, then ``u``'s
        port order (so not sorted by ``v``), each edge once with ``u < v``."""
        if self._edge_list is None:
            port_at = [
                {nbr: port for port, nbr in enumerate(self.neighbors(v), 1)}
                for v in range(self._n)
            ]
            self._edge_list = tuple(
                PortLabeledEdge(u, port_at[u][v], v, port_at[v][u])
                for u, v in self._edge_pairs()
            )
        return self._edge_list

    def degree(self, v: int) -> int:
        """Degree of node ``v`` in this snapshot."""
        return self._indptr[v + 1] - self._indptr[v]

    def max_degree(self) -> int:
        """Maximum degree of the snapshot (Delta_r in the paper)."""
        indptr = self._indptr
        return max(indptr[v + 1] - indptr[v] for v in range(self._n))

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Neighbors of ``v`` in increasing port order."""
        return self._nbrs[self._indptr[v]:self._indptr[v + 1]]

    def ports(self, v: int) -> Tuple[int, ...]:
        """The ports of ``v``: always ``(1, ..., degree(v))``."""
        return tuple(range(1, self.degree(v) + 1))

    def neighbor_via(self, v: int, port: int) -> int:
        """The node reached by leaving ``v`` through ``port``."""
        start = self._indptr[v]
        if 0 < port <= self._indptr[v + 1] - start:
            return self._nbrs[start + port - 1]
        raise ValueError(
            f"node {v} has no port {port} (degree {self.degree(v)})"
        )

    def port_of(self, v: int, neighbor: int) -> int:
        """The port of ``v`` on the edge towards ``neighbor``."""
        start = self._indptr[v]
        try:
            return self._nbrs.index(neighbor, start, self._indptr[v + 1]) - start + 1
        except ValueError:
            raise ValueError(f"{neighbor} is not a neighbor of {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of this snapshot."""
        return v in self.neighbors(u)

    def port_map(self, v: int) -> Dict[int, int]:
        """A copy of the ``{port: neighbor}`` map of ``v``, ports ascending."""
        return dict(enumerate(self.neighbors(v), 1))

    # ------------------------------------------------------------------
    # Whole-graph analysis (used by the simulator and tests, not robots)
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the snapshot is connected (the 1-interval condition)."""
        return -1 not in self.bfs_distances(0)

    def bfs_distances(self, source: int) -> List[int]:
        """Distances from ``source``; unreachable nodes get ``-1``."""
        indptr, nbrs = self._indptr, self._nbrs
        dist = [-1] * self._n
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for nbr in nbrs[indptr[v]:indptr[v + 1]]:
                    if dist[nbr] < 0:
                        dist[nbr] = dist[v] + 1
                        nxt.append(nbr)
            frontier = nxt
        return dist

    def diameter(self) -> int:
        """Diameter ``D_r``; raises if the snapshot is disconnected."""
        best = 0
        for v in range(self._n):
            dist = self.bfs_distances(v)
            if min(dist) < 0:
                raise ValueError("diameter undefined: graph is disconnected")
            best = max(best, max(dist))
        return best

    def connected_node_components(self) -> List[FrozenSet[int]]:
        """Connected components of the node set (ground-truth analysis)."""
        return self.induced_occupied_components(range(self._n))

    def induced_occupied_components(
        self, occupied: Iterable[int]
    ) -> List[FrozenSet[int]]:
        """Ground-truth connected components of the occupied-node subgraph.

        This is the component graph ``CG_r`` of Definition 2, computed from
        the simulator's ground truth; used by tests to validate the robots'
        own component construction (Algorithm 1).
        """
        occupied_set = set(occupied)
        seen = set()
        components = []
        for start in occupied_set:
            if start in seen:
                continue
            seen.add(start)
            stack = [start]
            members = [start]
            while stack:
                v = stack.pop()
                for nbr in self.neighbors(v):
                    if nbr in occupied_set and nbr not in seen:
                        seen.add(nbr)
                        members.append(nbr)
                        stack.append(nbr)
            components.append(frozenset(members))
        return components

    def to_networkx(self):
        """Export to a :mod:`networkx` graph with port attributes."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._n))
        for edge in self.edges():
            graph.add_edge(
                edge.u, edge.v, ports={edge.u: edge.port_u, edge.v: edge.port_v}
            )
        return graph

    def relabeled_ports(self, rng: random.Random) -> "GraphSnapshot":
        """The same graph with freshly randomized port labels."""
        return GraphSnapshot.from_edges(self._n, self._edge_pairs(), rng=rng)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return (
            self._n == other._n
            and self._indptr == other._indptr
            and self._nbrs == other._nbrs
        )

    def __hash__(self) -> int:
        return hash((self._n, self._indptr, self._nbrs))

    def __repr__(self) -> str:
        return f"GraphSnapshot(n={self._n}, m={self.num_edges})"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))


def _check_structure(n: int, adj_by_port: Sequence[Mapping[int, int]]) -> None:
    """Raise ``ValueError`` unless the port maps describe a simple graph
    with ports ``1..degree`` at every node."""
    for v, ports in enumerate(adj_by_port):
        degree = len(ports)
        if sorted(ports) != list(range(1, degree + 1)):
            raise ValueError(
                f"node {v}: ports must be exactly 1..{degree}, "
                f"got {sorted(ports)}"
            )
        if len(set(ports.values())) != degree:
            raise ValueError(f"node {v}: parallel edges are not allowed")
        for nbr in ports.values():
            if not (0 <= nbr < n):
                raise ValueError(f"node {v}: neighbor {nbr} out of range")
            if nbr == v:
                raise ValueError(f"self-loop at node {v} is not allowed")
            if v not in adj_by_port[nbr].values():
                raise ValueError(
                    f"asymmetric adjacency: {v}->{nbr} has no reverse"
                )
