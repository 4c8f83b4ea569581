"""Theorem 2: impossibility in the global model without 1-NK.

The construction: with ``k`` robots on ``k - 1`` nodes (one node doubled),
the adversary forms a clique ``K_{k-1}`` over the occupied nodes and a
connected graph ``H`` over the empty ones.  The clique has
``(k-1)(k-2)/2`` edges but at most ``k`` robots move in a round, so some
clique edge ``(u, v)`` goes unused; the adversary removes it and instead
connects ``u`` and ``v`` to two nodes of ``H``.  Without 1-neighborhood
knowledge a robot cannot tell which of its ports lead into the clique and
which into ``H`` -- its observation (own node's multiplicity and degree,
plus everyone's packets, none of which carry neighbor information) is
unchanged by the rewiring -- so no robot crosses into ``H`` and no new node
is ever visited.

:class:`CliqueRewiringAdversary` implements this exactly: it simulates the
candidate algorithm's round on the clique graph (on a deep copy, as the
paper's adversary may: it knows the algorithm and its state), finds an
unused edge, rewires, and emits the rewired graph.  The key soundness
property -- the robots' no-1-NK observations on the emitted graph are
identical to those on the probed clique graph -- is checked by an assertion
and by the test suite.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.dynamic import DynamicGraph, RoundContext
from repro.graph.snapshot import GraphSnapshot
from repro.sim.algorithm import MoveDecision, RobotAlgorithm, probe_decisions
from repro.sim.observation import CommunicationModel, build_info_packets


def unused_clique_edge_exists(k: int) -> bool:
    """Whether the counting argument applies: ``(k-1)(k-2)/2 > k``.

    True for every ``k >= 5``; the paper states the theorem for ``k >= 3``
    via a slightly different accounting, but the executable construction
    uses the clean counting bound.
    """
    return (k - 1) * (k - 2) // 2 > k


class CliqueRewiringAdversary(DynamicGraph):
    """Adaptive Theorem 2 adversary stalling a given no-1-NK algorithm.

    Requires a configuration with at least three occupied nodes and at
    least two empty nodes (the theorem's setting: ``k`` robots on ``k - 1``
    nodes, ``k >= 5``).  Falls back to the plain clique + H graph when the
    configuration is degenerate.
    """

    def __init__(
        self, n: int, algorithm: RobotAlgorithm, *, seed: int = 0
    ) -> None:
        super().__init__(n)
        self._algorithm = algorithm
        self._seed = seed
        self._cache: Dict[int, GraphSnapshot] = {}
        self.last_removed_edge: Optional[Tuple[int, int]] = None

    @property
    def is_adaptive(self) -> bool:
        return True

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index in self._cache:
            return self._cache[round_index]
        if context is None:
            raise ValueError(
                "CliqueRewiringAdversary is adaptive and needs the context"
            )
        snapshot = self._construct(round_index, context)
        self._cache[round_index] = snapshot
        return snapshot

    # ------------------------------------------------------------------

    def _clique_plus_h(
        self,
        occupied: List[int],
        empty: List[int],
        rng: random.Random,
        *,
        connect: bool,
    ) -> GraphSnapshot:
        """Clique over the occupied nodes plus a star ``H`` over the empty
        ones.

        With ``connect=False`` the two parts are left disconnected: that is
        the *probe* graph, used only to compute no-1-NK observations (which
        do not depend on K-to-H edges at all).  With ``connect=True`` a
        single K-to-H edge is added -- the fallback emitted for degenerate
        configurations where the rewiring argument does not apply.
        """
        edges = [
            (u, v)
            for i, u in enumerate(occupied)
            for v in occupied[i + 1:]
        ]
        if empty:
            edges += [(empty[0], b) for b in empty[1:]]
            if connect:
                edges.append((occupied[0], empty[0]))
        return GraphSnapshot.from_edges(self._n, edges, rng=rng)

    def _construct(
        self, round_index: int, context: RoundContext
    ) -> GraphSnapshot:
        occupied = sorted(context.occupied_nodes)
        empty = [v for v in range(self._n) if v not in set(occupied)]
        rng = random.Random(f"{self._seed}:clique:{round_index}")
        self.last_removed_edge = None

        if len(occupied) < 3 or not empty:
            return self._clique_plus_h(occupied, empty, rng, connect=True)

        probe_graph = self._clique_plus_h(occupied, empty, rng, connect=False)
        used_edges = self._simulate_used_edges(
            probe_graph, context.positions, round_index
        )
        clique_edges = [
            (u, v)
            for i, u in enumerate(occupied)
            for v in occupied[i + 1:]
        ]
        unused = [e for e in clique_edges if e not in used_edges]
        if not unused:
            # No unused clique edge (tiny k); emit the connected fallback --
            # the counting argument needs k >= 5 and callers check
            # unused_clique_edge_exists(k).
            return self._clique_plus_h(occupied, empty, rng, connect=True)

        u, v = unused[0]
        x = empty[0]
        y = empty[1] if len(empty) >= 2 else empty[0]
        rewired = self._rewire(probe_graph, (u, v), (u, x), (v, y))
        self.last_removed_edge = (u, v)

        # Soundness check: without 1-NK the robots' observations must be
        # identical on the probe graph and the emitted graph.
        self._assert_observation_equivalence(
            probe_graph, rewired, context.positions
        )
        return rewired

    def _simulate_used_edges(
        self,
        snapshot: GraphSnapshot,
        positions: Dict[int, int],
        round_index: int,
    ) -> Set[Tuple[int, int]]:
        """Which edges the candidate would traverse this round."""
        used: Set[Tuple[int, int]] = set()
        for robot_id, decision in probe_decisions(
            self._algorithm,
            snapshot,
            positions,
            round_index,
            positions,
            communication=CommunicationModel.GLOBAL,
            neighborhood_knowledge=False,
        ):
            if isinstance(decision, MoveDecision):
                node = positions[robot_id]
                if decision.port <= snapshot.degree(node):
                    neighbor = snapshot.neighbor_via(node, decision.port)
                    used.add((min(node, neighbor), max(node, neighbor)))
        return used

    def _rewire(
        self,
        snapshot: GraphSnapshot,
        removed: Tuple[int, int],
        added_u: Tuple[int, int],
        added_v: Tuple[int, int],
    ) -> GraphSnapshot:
        """Replace edge (u,v) by (u,x) and (v,y), preserving the port
        numbers at u and v (so u's port that led to v now leads to x, and
        v's port that led to u now leads to y); x and y each gain one new
        highest-numbered port."""
        u, v = removed
        (_, x), (_, y) = added_u, added_v
        adj = [snapshot.port_map(node) for node in range(self._n)]

        port_u = snapshot.port_of(u, v)
        port_v = snapshot.port_of(v, u)
        adj[u][port_u] = x
        adj[v][port_v] = y
        adj[x][len(adj[x]) + 1] = u
        adj[y][len(adj[y]) + 1] = v
        return GraphSnapshot.from_port_maps(self._n, adj)

    def _assert_observation_equivalence(
        self,
        probe_graph: GraphSnapshot,
        emitted: GraphSnapshot,
        positions: Dict[int, int],
    ) -> None:
        """Without 1-NK a robot observes its own node's packet and the set
        of all packets, so every robot's observation agrees on the two
        graphs exactly when their packet maps are equal."""
        packets_probe = build_info_packets(
            probe_graph, positions, neighborhood_knowledge=False
        )
        packets_emitted = build_info_packets(
            emitted, positions, neighborhood_knowledge=False
        )
        if packets_probe != packets_emitted:
            raise AssertionError(
                "rewiring changed a no-1-NK observation; the Theorem 2 "
                "construction is broken"
            )
