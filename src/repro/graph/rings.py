"""Dynamic rings: the related-work setting of Agarwalla et al. (ICDCN'18).

The only prior work on DISPERSION in dynamic graphs studied *dynamic
rings*: the footprint is a fixed cycle ``C_n``, and each round's graph is
the cycle with **at most one edge missing** (removing more would
disconnect it, violating 1-interval connectivity).  This module provides
that process in three flavors:

* ``mode="static"`` -- the full ring every round (sanity control);
* ``mode="random"`` -- with probability ``removal_probability`` a
  uniformly random ring edge is absent this round;
* ``mode="blocking"`` -- an *adaptive* adversary that removes the ring
  edge a probed algorithm is about to cross, if it can find one used by
  exactly the robots it wants to block (the standard adversary for
  dynamic-ring lower bounds, cf. [27] in the paper).  The probe works like
  the other adversaries in :mod:`repro.adversary`: the candidate algorithm
  is deep-copied and simulated on the full-ring graph, then an edge that
  some unsettled robot would cross is removed.  Because only one edge can
  be missing per round, the adversary targets the *smallest-ID moving
  robot* -- enough to demonstrate how dynamism frustrates walk-style ring
  strategies while the paper's global-model algorithm is unaffected.

Unlike the arbitrary dynamic graphs elsewhere in this library, the ring's
port labels are **stable across rounds**: each node keeps a fixed (seeded,
per-node, possibly flipped) orientation -- port 1 one way around the ring,
port 2 the other -- except at a missing edge's endpoints, whose degree
drops to 1 and whose single remaining edge becomes port 1 for that round.
This matches the standard dynamic-ring literature (the *footprint* is
fixed; only edge presence changes) and is exactly what makes
direction-persistent walking meaningful; with fully re-randomized labels a
ring walker could not even hold a direction, collapsing into the general
Theorem 1 impossibility.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.graph.dynamic import DynamicGraph, RoundContext
from repro.graph.snapshot import GraphSnapshot


def ring_edges(n: int) -> List[Tuple[int, int]]:
    """The edge list of the cycle ``C_n`` (n >= 3)."""
    if n < 3:
        raise ValueError("a ring needs n >= 3")
    return [(i, (i + 1) % n) for i in range(n)]


class RingDynamicGraph(DynamicGraph):
    """A 1-interval connected dynamic ring (cycle minus at most one edge)."""

    def __init__(
        self,
        n: int,
        *,
        mode: str = "random",
        removal_probability: float = 0.8,
        seed: int = 0,
        algorithm=None,
        communication=None,
        neighborhood_knowledge: bool = True,
    ) -> None:
        super().__init__(n)
        if n < 3:
            raise ValueError("a ring needs n >= 3")
        if mode not in ("static", "random", "blocking"):
            raise ValueError(f"unknown ring mode {mode!r}")
        if not 0.0 <= removal_probability <= 1.0:
            raise ValueError("removal_probability must be in [0, 1]")
        if mode == "blocking" and algorithm is None:
            raise ValueError("blocking mode needs the algorithm to probe")
        self._mode = mode
        self._removal_probability = removal_probability
        self._seed = seed
        self._algorithm = algorithm
        self._communication = communication
        self._neighborhood_knowledge = neighborhood_knowledge
        self._cache: Dict[int, GraphSnapshot] = {}
        # Fixed per-node orientation (stable across rounds): flipped[v]
        # swaps which way around the ring node v's port 1 points.
        orientation_rng = random.Random(f"{seed}:orientation")
        self._flipped: List[bool] = [
            orientation_rng.random() < 0.5 for _ in range(n)
        ]
        self.removed_edges: List[Optional[Tuple[int, int]]] = []
        """Per-round log of the removed edge (None = full ring)."""

    @property
    def is_adaptive(self) -> bool:
        return self._mode == "blocking"

    @property
    def mode(self) -> str:
        """The configured dynamism mode."""
        return self._mode

    # ------------------------------------------------------------------

    def _build(
        self, removed: Optional[Tuple[int, int]]
    ) -> GraphSnapshot:
        removed_set = (
            {removed[0], removed[1]} if removed is not None else set()
        )
        port_maps: List[Dict[int, int]] = []
        for v in range(self._n):
            clockwise = (v + 1) % self._n
            counter = (v - 1) % self._n
            neighbors = [clockwise, counter]
            if self._flipped[v]:
                neighbors.reverse()
            present = [
                nbr
                for nbr in neighbors
                if not ({v, nbr} == removed_set)
            ]
            port_maps.append(
                {port: nbr for port, nbr in enumerate(present, 1)}
            )
        return GraphSnapshot.from_port_maps(self._n, port_maps)

    def _pick_random_removal(
        self, rng: random.Random
    ) -> Optional[Tuple[int, int]]:
        if rng.random() >= self._removal_probability:
            return None
        return ring_edges(self._n)[rng.randrange(self._n)]

    def _pick_blocking_removal(
        self,
        round_index: int,
        context: RoundContext,
        rng: random.Random,
    ) -> Optional[Tuple[int, int]]:
        """Simulate the probed algorithm on the full ring; remove the edge
        the smallest moving robot would cross."""
        from repro.sim.algorithm import MoveDecision, probe_decisions
        from repro.sim.observation import CommunicationModel

        full_ring = self._build(None)
        positions = context.positions
        for robot_id, decision in probe_decisions(
            self._algorithm,
            full_ring,
            positions,
            round_index,
            positions,
            communication=self._communication or CommunicationModel.LOCAL,
            neighborhood_knowledge=self._neighborhood_knowledge,
        ):
            if isinstance(decision, MoveDecision):
                node = positions[robot_id]
                if decision.port <= full_ring.degree(node):
                    neighbor = full_ring.neighbor_via(node, decision.port)
                    return (node, neighbor)
        return self._pick_random_removal(rng)

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index in self._cache:
            return self._cache[round_index]
        rng = random.Random(f"{self._seed}:ring:{round_index}")
        if self._mode == "static":
            removed = None
        elif self._mode == "random" or context is None:
            removed = self._pick_random_removal(rng)
        else:
            removed = self._pick_blocking_removal(round_index, context, rng)
        snapshot = self._build(removed)
        self._cache[round_index] = snapshot
        while len(self.removed_edges) <= round_index:
            self.removed_edges.append(None)
        self.removed_edges[round_index] = removed
        return snapshot
