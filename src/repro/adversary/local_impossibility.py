"""Theorem 1 / Figure 1: impossibility in the local model with 1-NK.

The construction: a path of ``k - 1`` occupied nodes -- one endpoint ``v``
holding two robots, every other path node holding one -- whose far endpoint
``y`` attaches to a connected subgraph of the ``n - k + 1`` empty nodes.
Dispersion from this configuration in one round requires the full
synchronized sweep ``v -> u -> ... -> y -> empty``; but the two mid-path
robots have symmetric local information (both see two occupied degree-2
neighbors, and the adversary controls the port numbering), so no
deterministic rule can point them both towards ``y``.  The adversary then
reforms the configuration, so dispersion never completes.

This module provides:

* :func:`build_fig1_instance` -- the exact Figure 1 instance for any
  ``k >= 5`` (the paper draws ``k = 6``);
* :func:`id_oblivious_view` / :func:`interior_views_are_symmetric` -- the
  mechanical symmetry check: the interior robots' views, stripped of robot
  IDs, are identical, hence any ID-oblivious deterministic rule moves them
  through the same *port number*, which the adversary's mirrored labelling
  maps to opposite directions along the path;
* :class:`LocalStallAdversary` -- the adaptive adversary that reforms the
  path shape every round and picks, per occupied node, the port labelling
  under which the candidate algorithm's move does *not* progress towards
  ``y`` (probing a deep copy of the algorithm, which is legitimate: the
  paper's adversary knows the algorithm and its full state).

A universal impossibility cannot be executed for all algorithms; the stall
adversary is exact for the candidate families shipped in
:mod:`repro.baselines.local_candidates` and the symmetry check covers every
ID-oblivious rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.dynamic import DynamicGraph, RoundContext
from repro.graph.snapshot import GraphSnapshot
from repro.sim.algorithm import MoveDecision, RobotAlgorithm, probe_decisions
from repro.sim.observation import (
    CommunicationModel,
    InfoPacket,
)


@dataclass(frozen=True)
class Fig1Instance:
    """The Figure 1 configuration: snapshot plus robot placement."""

    snapshot: GraphSnapshot
    positions: Dict[int, int]
    """Robot id -> node."""

    path_nodes: Tuple[int, ...]
    """The occupied path ``v, u, ..., y`` in order; ``path_nodes[0]`` holds
    two robots."""

    blob_nodes: Tuple[int, ...]
    """The empty connected subgraph; ``blob_nodes[0]`` attaches to ``y``."""

    @property
    def multiplicity_node(self) -> int:
        """The node ``v`` with two robots."""
        return self.path_nodes[0]

    @property
    def frontier_node(self) -> int:
        """The node ``y``: the only occupied node with an empty neighbor."""
        return self.path_nodes[-1]


def build_fig1_instance(
    k: int, n: Optional[int] = None, *, mirrored_ports: bool = True
) -> Fig1Instance:
    """Build the Figure 1 instance for ``k`` robots on ``n`` nodes.

    Nodes ``0..k-2`` form the occupied path (node 0 is ``v`` with robots 1
    and 2), nodes ``k-1..n-1`` form the empty blob (a star centered at node
    ``k-1``, attached to ``y = k-2``).  With ``mirrored_ports`` the interior
    path nodes are labelled so the two middle robots' ID-oblivious views
    coincide: each interior node's port 1 points to its neighbor *away*
    from a fixed reference in a mirrored pattern, realizing the paper's
    "they do not agree on the port numbering".
    """
    if k < 5:
        raise ValueError("the Theorem 1 construction needs k >= 5")
    if n is None:
        n = k + 2
    if n < k + 1:
        raise ValueError("need at least one empty node: n >= k + 1")

    path = list(range(k - 1))
    blob = list(range(k - 1, n))
    edges = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    edges.append((path[-1], blob[0]))
    edges += [(blob[0], b) for b in blob[1:]]

    snapshot = GraphSnapshot.from_edges(n, edges)
    if mirrored_ports:
        # Relabel interior path nodes: the first half points port 1 towards
        # v, the second half points port 1 towards y, so the two central
        # robots see mirror-image labellings (same port number leads in
        # opposite path directions).
        adj = [snapshot.port_map(v) for v in range(n)]
        for idx in range(1, len(path) - 1):
            node = path[idx]
            towards_v = path[idx - 1]
            towards_y = path[idx + 1]
            if idx <= (len(path) - 1) // 2:
                adj[node] = {1: towards_v, 2: towards_y}
            else:
                adj[node] = {1: towards_y, 2: towards_v}
        snapshot = GraphSnapshot.from_port_maps(n, adj)

    positions = {1: path[0], 2: path[0]}
    for robot_id in range(3, k + 1):
        positions[robot_id] = path[robot_id - 2]
    return Fig1Instance(
        snapshot=snapshot,
        positions=positions,
        path_nodes=tuple(path),
        blob_nodes=tuple(blob),
    )


def id_oblivious_view(packet: InfoPacket) -> Tuple:
    """A robot's 1-NK local view with all robot IDs erased.

    What remains is exactly what an ID-oblivious deterministic rule may
    depend on: its node's multiplicity, its degree, and the per-port
    occupancy pattern (occupied or empty, and the occupant count).
    """
    per_port = []
    by_port = {info.port: info for info in packet.occupied_neighbors}
    for port in range(1, packet.degree + 1):
        info = by_port.get(port)
        per_port.append(
            ("occupied", info.robot_count) if info else ("empty",)
        )
    return (packet.robot_count, packet.degree, tuple(per_port))


def interior_views_are_symmetric(instance: Fig1Instance) -> bool:
    """Check the paper's symmetry argument mechanically.

    The two central path robots (``w`` and ``x`` in Figure 1) must have
    identical ID-oblivious views: then any deterministic ID-oblivious rule
    selects the same port *number* for both, and under the mirrored
    labelling the same port number leads in opposite directions along the
    path -- the synchronized sweep towards ``y`` is impossible.
    """
    from repro.sim.observation import build_info_packets

    packets = build_info_packets(instance.snapshot, instance.positions)
    path = instance.path_nodes
    if len(path) < 5:
        raise ValueError(
            "the symmetric-pair argument needs k >= 6 (a path of >= 5 "
            "occupied nodes), the paper's Figure 1 setting"
        )
    # The symmetric pair straddles the mirror split of the labelling:
    # w = path[mid] has port 1 towards v, x = path[mid + 1] has port 1
    # towards y.  Both are interior nodes whose two neighbors each hold a
    # single robot (for k = 6 these are exactly the paper's w and x).
    mid = (len(path) - 1) // 2
    w_node, x_node = path[mid], path[mid + 1]
    view_w = id_oblivious_view(packets[w_node])
    view_x = id_oblivious_view(packets[x_node])
    if view_w != view_x:
        return False
    # And the mirrored labelling must send the same port in opposite
    # directions: port p at w towards v iff port p at x towards y.
    snap = instance.snapshot
    w_port_to_v = snap.port_of(w_node, path[mid - 1])
    x_port_to_y = snap.port_of(x_node, path[mid + 2])
    return w_port_to_v == x_port_to_y


class LocalStallAdversary(DynamicGraph):
    """Adaptive Theorem 1 adversary stalling a given local-model algorithm.

    Every round it reforms the Figure 1 shape over the currently occupied
    nodes: the highest-multiplicity node becomes the path end ``v``, the
    remaining occupied nodes form the path (in an adversary-chosen order),
    and the empty nodes form a star blob hung off ``y``.  For each occupied
    degree-2 path node it then probes the candidate algorithm (on a deep
    copy, so the probe leaves no trace) under both port labellings and
    keeps one under which that robot does not step towards ``y``; if the
    candidate steps towards ``y`` under both labellings (an ID-directed
    rule), the adversary retries with permuted path orders.

    The stall invariant it aims to maintain is the paper's: the
    synchronized full-path sweep never happens, so the number of occupied
    nodes never reaches ``k``.
    """

    def __init__(
        self,
        n: int,
        algorithm: RobotAlgorithm,
        *,
        seed: int = 0,
        max_order_trials: int = 6,
    ) -> None:
        super().__init__(n)
        self._algorithm = algorithm
        self._seed = seed
        self._max_order_trials = max(1, max_order_trials)
        self._cache: Dict[int, GraphSnapshot] = {}

    @property
    def is_adaptive(self) -> bool:
        return True

    # ------------------------------------------------------------------

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index in self._cache:
            return self._cache[round_index]
        if context is None:
            raise ValueError(
                "LocalStallAdversary is adaptive and needs the round context"
            )
        snapshot = self._construct(round_index, context)
        self._cache[round_index] = snapshot
        return snapshot

    def _construct(
        self, round_index: int, context: RoundContext
    ) -> GraphSnapshot:
        counts = context.occupied_counts
        occupied = sorted(counts)
        empty = [v for v in range(self._n) if v not in counts]
        rng = random.Random(f"{self._seed}:local:{round_index}")

        if len(occupied) < 3 or not empty:
            # Degenerate configurations (tiny k or nearly full graph):
            # fall back to a path + blob without probing.
            return self._assemble(occupied, empty, rng)

        # v = the node with the largest multiplicity (ties: smallest index).
        v_node = max(occupied, key=lambda node: (counts[node], -node))
        others = [node for node in occupied if node != v_node]

        orders: List[List[int]] = []
        orders.append(sorted(others))
        orders.append(sorted(others, reverse=True))
        for _ in range(self._max_order_trials - 2):
            shuffled = list(others)
            rng.shuffle(shuffled)
            orders.append(shuffled)

        best: Optional[GraphSnapshot] = None
        for order in orders[: self._max_order_trials]:
            path = [v_node] + order
            candidate = self._labelled_path_snapshot(
                path, empty, context, rng
            )
            if candidate is not None:
                sweep = self._sweep_possible(candidate, path, context)
                if not sweep:
                    return candidate
                if best is None:
                    best = candidate
        if best is not None:
            return best
        return self._assemble(occupied, empty, rng)

    # ------------------------------------------------------------------

    def _assemble(
        self,
        path: Sequence[int],
        empty: Sequence[int],
        rng: random.Random,
    ) -> GraphSnapshot:
        """Path over ``path`` + star blob over ``empty`` hung off the end."""
        edges = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
        if empty:
            edges.append((path[-1], empty[0]))
            edges += [(empty[0], b) for b in empty[1:]]
        return GraphSnapshot.from_edges(self._n, edges, rng=rng)

    def _labelled_path_snapshot(
        self,
        path: Sequence[int],
        empty: Sequence[int],
        context: RoundContext,
        rng: random.Random,
    ) -> Optional[GraphSnapshot]:
        """Choose each interior node's labelling to block movement to y."""
        base = self._assemble(path, empty, rng)
        adj = [base.port_map(v) for v in range(self._n)]
        positions = context.positions

        for idx in range(1, len(path) - 1):
            node = path[idx]
            towards_v, towards_y = path[idx - 1], path[idx + 1]
            chosen = None
            for labelling in (
                {1: towards_v, 2: towards_y},
                {1: towards_y, 2: towards_v},
            ):
                trial = list(adj)
                trial[node] = labelling
                snap = GraphSnapshot.from_port_maps(self._n, trial)
                if not self._moves_towards(
                    snap, positions, node, towards_y, context.round_index
                ):
                    chosen = labelling
                    break
            adj[node] = chosen or {1: towards_v, 2: towards_y}
        return GraphSnapshot.from_port_maps(self._n, adj)

    def _moves_towards(
        self,
        snapshot: GraphSnapshot,
        positions: Dict[int, int],
        node: int,
        target: int,
        round_index: int,
    ) -> bool:
        """Whether any robot on ``node`` would step onto ``target``.

        Probes a deep copy of the candidate algorithm under the local
        communication model with 1-NK -- exactly the information the
        candidate is entitled to.
        """
        robots_here = [r for r, pos in positions.items() if pos == node]
        for _, decision in probe_decisions(
            self._algorithm,
            snapshot,
            positions,
            round_index,
            robots_here,
            communication=CommunicationModel.LOCAL,
            neighborhood_knowledge=True,
        ):
            if isinstance(decision, MoveDecision):
                if snapshot.neighbor_via(node, decision.port) == target:
                    return True
        return False

    def _sweep_possible(
        self,
        snapshot: GraphSnapshot,
        path: Sequence[int],
        context: RoundContext,
    ) -> bool:
        """Whether every interior robot would move towards ``y`` at once."""
        positions = context.positions
        for idx in range(1, len(path) - 1):
            if not self._moves_towards(
                snapshot, positions, path[idx], path[idx + 1],
                context.round_index,
            ):
                return False
        return True
