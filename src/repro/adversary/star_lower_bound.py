"""The Theorem 3 lower-bound adversary: the star-star dynamic tree (Fig. 2).

Every round the adversary partitions the fixed vertex set into the
currently occupied nodes ``A_r`` and the empty nodes ``B_r``, arranges each
side into a star (``T_{A_r}``, ``T_{B_r}``), and joins the two star centers
by a single edge.  The resulting tree is connected with diameter at most 3,
yet the only empty node adjacent to any occupied node is the center of
``T_{B_r}`` -- so no algorithm can newly occupy more than one node per
round, and dispersion from a rooted configuration of ``k`` robots takes at
least ``k - 1`` rounds.  Against the paper's algorithm the bound is met
exactly (one new node per round), which is how the campaign demonstrates
the tightness of Theta(k).

Port labels are freshly randomized every round from the adversary's seed
(an adversary is free to pick any labelling; randomizing also prevents
algorithms from extracting accidental cross-round information).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.graph.dynamic import DynamicGraph, RoundContext
from repro.graph.snapshot import GraphSnapshot


class StarStarAdversary(DynamicGraph):
    """Adaptive adversary realizing the Omega(k) lower bound of Theorem 3.

    ``initial_occupied`` seeds round 0 (the engine provides the live
    configuration from round 0 onward, but analysis code sometimes queries
    snapshots without a context).  ``center_policy`` picks the occupied
    star's center: ``"min"``/``"max"`` by node index, or ``"multiplicity"``
    to center ``T_A`` on a currently-multiplicity node, which is the
    least favorable choice for sliding-style algorithms.
    """

    def __init__(
        self,
        n: int,
        initial_occupied: List[int],
        *,
        seed: int = 0,
        center_policy: str = "min",
    ) -> None:
        super().__init__(n)
        if not initial_occupied:
            raise ValueError("need at least one initially occupied node")
        if center_policy not in ("min", "max", "multiplicity"):
            raise ValueError(f"unknown center_policy {center_policy!r}")
        self._initial_occupied = sorted(set(initial_occupied))
        self._seed = seed
        self._center_policy = center_policy
        self._last_round: Optional[int] = None
        self._last_snapshot: Optional[GraphSnapshot] = None

    @property
    def is_adaptive(self) -> bool:
        return True

    def _pick_center_a(
        self, occupied: List[int], context: Optional[RoundContext]
    ) -> int:
        if self._center_policy == "max":
            return occupied[-1]
        if self._center_policy == "multiplicity" and context is not None:
            counts = context.occupied_counts
            multiplicity = [v for v in occupied if counts.get(v, 0) >= 2]
            if multiplicity:
                return multiplicity[0]
        return occupied[0]

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index == self._last_round and self._last_snapshot is not None:
            return self._last_snapshot

        if context is not None:
            occupied = sorted(context.occupied_nodes)
        else:
            occupied = list(self._initial_occupied)
        empty = [v for v in range(self._n) if v not in set(occupied)]

        edges = []
        if occupied and empty:
            center_a = self._pick_center_a(occupied, context)
            center_b = empty[0]
            edges += [(center_a, v) for v in occupied if v != center_a]
            edges += [(center_b, v) for v in empty if v != center_b]
            edges.append((center_a, center_b))
        elif occupied:
            # Every node occupied: a single star keeps the graph connected.
            center_a = self._pick_center_a(occupied, context)
            edges += [(center_a, v) for v in occupied if v != center_a]
        else:
            # No robots alive (all crashed): any connected graph will do.
            edges += [(0, v) for v in range(1, self._n)]

        rng = random.Random(f"{self._seed}:star:{round_index}")
        snapshot = GraphSnapshot.from_edges(self._n, edges, rng=rng)
        self._last_round = round_index
        self._last_snapshot = snapshot
        return snapshot

    def max_new_nodes_per_round(self) -> int:
        """The structural bound this adversary enforces (for assertions)."""
        return 1
