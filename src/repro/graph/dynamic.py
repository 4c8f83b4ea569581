"""Dynamic-graph processes: the sequence ``G_0, G_1, ...`` of one run.

The paper models the environment as a worst-case adaptive adversary that,
knowing the algorithm and the full state through round ``r - 1``, picks the
edge set of round ``r`` subject only to connectivity (1-interval connected
model).  We capture this as the :class:`DynamicGraph` interface: the engine
asks the process for the snapshot of each round and hands it a
:class:`RoundContext` carrying exactly the information the paper's adversary
is entitled to (ground-truth robot positions and history).  Oblivious
processes (static graphs, scripted sequences, random churn) ignore the
context; the worst-case adversaries in :mod:`repro.adversary` use it.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.graph.snapshot import GraphSnapshot
from repro.graph.generators import add_chords, random_tree, spanning_tree_edges


@dataclass
class RoundContext:
    """Ground-truth state the adversary may inspect before choosing ``G_r``.

    Matches the paper's adversary model: it knows the (deterministic)
    algorithm and all states until round ``r - 1``, i.e. the configuration
    at the *start* of round ``r``.
    """

    round_index: int
    positions: Dict[int, int] = field(default_factory=dict)
    """Alive robot id -> ground-truth node index."""

    ever_occupied: FrozenSet[int] = frozenset()
    """Nodes that have held a robot at any point so far."""

    @property
    def occupied_counts(self) -> Dict[int, int]:
        """Node -> number of alive robots currently on it."""
        counts: Dict[int, int] = {}
        for node in self.positions.values():
            counts[node] = counts.get(node, 0) + 1
        return counts

    @property
    def occupied_nodes(self) -> Set[int]:
        """Nodes currently holding at least one alive robot."""
        return set(self.positions.values())


class DynamicGraph(ABC):
    """A (possibly adaptive) source of per-round graph snapshots."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"dynamic graph needs n >= 1, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        """The fixed number of nodes of every snapshot."""
        return self._n

    @abstractmethod
    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        """Return ``G_{round_index}``.

        Implementations must be *stable*: calling twice with the same round
        index (and context for the same run) returns an equal snapshot, so
        the engine and analysis code can re-query freely.
        """

    @property
    def is_adaptive(self) -> bool:
        """Whether this process inspects the :class:`RoundContext`."""
        return False


class StaticDynamicGraph(DynamicGraph):
    """The degenerate dynamic graph that never changes.

    Dispersion on a static graph is the classical setting of the prior work
    ([2, 22-25] in the paper); the algorithm must of course also work here.
    """

    def __init__(self, snapshot: GraphSnapshot) -> None:
        super().__init__(snapshot.n)
        self._snapshot = snapshot

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        return self._snapshot


class SequenceDynamicGraph(DynamicGraph):
    """A scripted sequence of snapshots; used heavily by tests.

    After the script is exhausted the behavior is controlled by ``tail``:
    ``"hold"`` repeats the final snapshot, ``"cycle"`` restarts the script.
    """

    def __init__(
        self, snapshots: Sequence[GraphSnapshot], *, tail: str = "hold"
    ) -> None:
        if not snapshots:
            raise ValueError("sequence needs at least one snapshot")
        n = snapshots[0].n
        for i, snap in enumerate(snapshots):
            if snap.n != n:
                raise ValueError(
                    f"snapshot {i} has n={snap.n}, expected {n}: the model "
                    "fixes the vertex set"
                )
        if tail not in ("hold", "cycle"):
            raise ValueError(f"tail must be 'hold' or 'cycle', got {tail!r}")
        super().__init__(n)
        self._snapshots = tuple(snapshots)
        self._tail = tail

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        if round_index < len(self._snapshots):
            return self._snapshots[round_index]
        if self._tail == "hold":
            return self._snapshots[-1]
        return self._snapshots[round_index % len(self._snapshots)]


class RandomChurnDynamicGraph(DynamicGraph):
    """Oblivious random churn: a fresh random connected graph every round.

    Each round's graph is a random spanning tree plus ``extra_edges`` random
    chords, with optional edge persistence: every non-tree edge of the
    previous round survives independently with probability
    ``persistence``.  Port labels are re-randomized every round (the model
    gives them no cross-round meaning).  Snapshots are cached so repeated
    queries for a round agree.
    """

    def __init__(
        self,
        n: int,
        *,
        extra_edges: int = 0,
        persistence: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(n)
        if extra_edges < 0:
            raise ValueError("extra_edges must be >= 0")
        if not 0.0 <= persistence <= 1.0:
            raise ValueError("persistence must be in [0, 1]")
        self._extra_edges = extra_edges
        self._persistence = persistence
        self._seed = seed
        self._cache: List[GraphSnapshot] = []

    def _generate_next(self, rng: random.Random) -> GraphSnapshot:
        edge_set = spanning_tree_edges(self._n, rng)
        if self._persistence > 0.0 and self._cache:
            # One draw per new edge, in edges() order: the order is part
            # of the seeded stream, so it must not change.
            for key in self._cache[-1]._edge_pairs():
                if key not in edge_set and rng.random() < self._persistence:
                    edge_set.add(key)
        add_chords(self._n, edge_set, self._extra_edges, rng)
        return GraphSnapshot.from_edges(self._n, edge_set, rng=rng)

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        while len(self._cache) <= round_index:
            rng = random.Random(f"{self._seed}:churn:{len(self._cache)}")
            self._cache.append(self._generate_next(rng))
        return self._cache[round_index]


class TIntervalChurnDynamicGraph(DynamicGraph):
    """Random churn that is T-interval connected (paper §VIII future work).

    Rounds are grouped into blocks of length ``T``.  The snapshot of round
    ``r`` always contains the random spanning trees of both its own block
    and the next block, plus fresh random chords.  Any window of ``T``
    consecutive rounds spans at most two adjacent blocks ``j, j+1`` and
    every snapshot in the window contains the tree of block ``j+1``, so the
    window's intersection graph is connected: the process is T-interval
    connected by construction.  With ``T = 1`` this degenerates to ordinary
    1-interval churn.
    """

    def __init__(
        self, n: int, *, interval: int, extra_edges: int = 0, seed: int = 0
    ) -> None:
        super().__init__(n)
        if interval < 1:
            raise ValueError("interval T must be >= 1")
        if extra_edges < 0:
            raise ValueError("extra_edges must be >= 0")
        self._interval = interval
        self._extra_edges = extra_edges
        self._seed = seed
        self._cache: Dict[int, GraphSnapshot] = {}
        self._block_trees: Dict[int, FrozenSet[Tuple[int, int]]] = {}

    @property
    def interval(self) -> int:
        """The connectivity interval T."""
        return self._interval

    def _block_tree(self, block: int) -> FrozenSet[Tuple[int, int]]:
        if block not in self._block_trees:
            rng = random.Random(f"{self._seed}:tree:{block}")
            tree = random_tree(self._n, rng)
            self._block_trees[block] = frozenset(tree._edge_pairs())
        return self._block_trees[block]

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        if round_index not in self._cache:
            block = round_index // self._interval
            edge_set = set(self._block_tree(block))
            edge_set |= self._block_tree(block + 1)
            rng = random.Random(f"{self._seed}:round:{round_index}")
            add_chords(self._n, edge_set, self._extra_edges, rng)
            self._cache[round_index] = GraphSnapshot.from_edges(
                self._n, edge_set, rng=rng
            )
        return self._cache[round_index]

    def stable_subgraph_edges(
        self, start_round: int
    ) -> FrozenSet[Tuple[int, int]]:
        """Edges guaranteed present in rounds ``start_round..start_round+T-1``.

        Every round in the window ``[start_round, start_round + T - 1]``
        contains the spanning tree of block ``start_round // T + 1``: rounds
        still in block ``j = start_round // T`` carry the trees of blocks
        ``j`` and ``j + 1``, and rounds that spilled into block ``j + 1``
        carry the trees of blocks ``j + 1`` and ``j + 2``.  Exposed for
        tests of the T-interval property.
        """
        return self._block_tree(start_round // self._interval + 1)


class FunctionalDynamicGraph(DynamicGraph):
    """Adapter turning a callable ``(round, context) -> snapshot`` into a
    dynamic graph; the building block for custom adversaries in tests."""

    def __init__(
        self,
        n: int,
        build: Callable[[int, Optional[RoundContext]], GraphSnapshot],
        *,
        adaptive: bool = True,
    ) -> None:
        super().__init__(n)
        self._build = build
        self._adaptive = adaptive
        self._cache: Dict[int, GraphSnapshot] = {}

    @property
    def is_adaptive(self) -> bool:
        return self._adaptive

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index not in self._cache:
            snap = self._build(round_index, context)
            if snap.n != self._n:
                raise ValueError(
                    f"builder returned n={snap.n}, expected {self._n}"
                )
            self._cache[round_index] = snap
        return self._cache[round_index]


class RecordingDynamicGraph(DynamicGraph):
    """Wrap any dynamic process and record every snapshot it emits.

    Adaptive adversaries depend on the run's live configuration, so they
    cannot be frozen into a script *before* a run -- but they can be
    recorded *during* one.  Wrap the adversary, run the engine, then call
    :meth:`to_script` to obtain a plain
    :class:`SequenceDynamicGraph` that replays the exact graphs the
    adversary produced; together with
    :func:`repro.sim.traceio.replay_and_verify` this makes even
    worst-case-adversary runs serializable and independently re-checkable.
    """

    def __init__(self, inner: DynamicGraph) -> None:
        super().__init__(inner.n)
        self._inner = inner
        self._recorded: Dict[int, GraphSnapshot] = {}

    @property
    def is_adaptive(self) -> bool:
        return self._inner.is_adaptive

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        snapshot = self._inner.snapshot(round_index, context)
        self._recorded[round_index] = snapshot
        return snapshot

    @property
    def recorded_rounds(self) -> int:
        """Number of contiguous rounds recorded from round 0."""
        count = 0
        while count in self._recorded:
            count += 1
        return count

    def to_script(self, *, tail: str = "hold") -> SequenceDynamicGraph:
        """The recorded prefix as a replayable scripted sequence."""
        rounds = self.recorded_rounds
        if rounds == 0:
            raise ValueError("nothing recorded yet; run the engine first")
        return SequenceDynamicGraph(
            [self._recorded[r] for r in range(rounds)], tail=tail
        )
