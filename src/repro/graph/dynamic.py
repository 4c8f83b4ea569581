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

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.graph.snapshot import GraphSnapshot


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


# ----------------------------------------------------------------------
# The churn sampler
# ----------------------------------------------------------------------
#
# Both churn processes draw each round from its own PCG64 stream, keyed by
# ``(seed, stream tag, index)``, so a round is a pure function of its key
# (plus, under persistence, the previous round's edges).  An edge is the
# int64 key ``u * n + v`` with ``u < v``.  Only uniform doubles are drawn,
# from ``PCG64.random_raw`` (bit-generator streams are stable across numpy
# releases; the ``Generator`` methods are not), and every sort whose order
# among equal values could reach the stream is stable.  numpy is imported
# inside these functions, not at module level, so ``import repro`` (and the
# lint CLI, which loads this module) stays numpy-free.

#: Stream tags: a random-churn round, a T-interval block tree, a T-interval
#: round.
_CHURN_STREAM, _TREE_STREAM, _ROUND_STREAM = 0, 1, 2

#: Up to this many ordered node pairs (``n * n``), listing every non-edge
#: costs less than the fixed overhead of rejection sampling chords.
_ENUMERATE_PAIRS = 1024


def _uniform_stream(seed: int, stream: int, index: int) -> Callable[[int], Any]:
    """``uniform(size)``: the next ``size`` doubles in ``[0, 1)`` of the
    PCG64 stream keyed by ``(seed, stream, index)``."""
    import numpy as np

    # SeedSequence takes non-negative entropy: fold the sign in (zigzag).
    entropy = 2 * seed if seed >= 0 else -2 * seed - 1
    bits = np.random.PCG64(np.random.SeedSequence((entropy, stream, index)))
    shift = np.uint64(11)

    def uniform(size: int) -> Any:
        return (bits.random_raw(size) >> shift) * 2.0**-53

    return uniform


def _tree_keys(n: int, uniform: Callable[[int], Any]) -> Any:
    """The sorted keys of a random recursive tree over a uniform node
    order: the ``i``-th node in the order hangs from one of the first
    ``i``, uniformly."""
    import numpy as np

    draws = uniform(2 * n - 1)
    order = np.argsort(draws[:n], kind="stable")
    parents = order[(draws[n:] * np.arange(1, n)).astype(np.int64)]
    children = order[1:]
    return np.sort(
        np.minimum(parents, children) * n + np.maximum(parents, children)
    )


def _member(keys: Any, probe: Any) -> Any:
    """Which of ``probe`` are in the sorted, non-empty key array ``keys``."""
    import numpy as np

    at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return keys[at] == probe


def _union(keys: Any, more: Any) -> Any:
    """The sorted union of two key arrays."""
    import numpy as np

    union = np.sort(np.concatenate((keys, more)))
    fresh = np.ones(len(union), dtype=bool)
    fresh[1:] = union[1:] != union[:-1]
    return union[fresh]


def _with_chords(
    n: int, keys: Any, extra_edges: int, uniform: Callable[[int], Any]
) -> Any:
    """The sorted ``keys`` followed by ``extra_edges`` uniform distinct
    non-edges (every non-edge if fewer remain), in draw order."""
    import numpy as np

    free = n * (n - 1) // 2 - len(keys)
    need = min(extra_edges, free)
    if need <= 0:
        return keys
    if n * n <= _ENUMERATE_PAIRS or 2 * need >= free:
        # Small or nearly saturated: shuffle every non-edge and take a
        # prefix (rejection sampling would cost more, or stall).
        cells = np.arange(n * n)
        pool = cells[cells // n < cells % n]
        pool = pool[~_member(keys, pool)]
        chords = pool[np.argsort(uniform(len(pool)), kind="stable")[:need]]
        return np.concatenate((keys, chords))
    chords = keys[:0]
    while len(chords) < need:
        # Oversample by the expected rejection rate, then keep the first
        # occurrence of every new non-edge, in draw order.
        missing = need - len(chords)
        draws = missing * (free + len(keys)) // (free - len(chords)) + 8
        ends = uniform(2 * draws)
        u = (ends[:draws] * n).astype(np.int64)
        v = (ends[draws:] * (n - 1)).astype(np.int64)
        v += v >= u
        drawn = np.minimum(u, v) * n + np.maximum(u, v)
        drawn = np.concatenate((chords, drawn[~_member(keys, drawn)]))
        _, first = np.unique(drawn, return_index=True)
        chords = drawn[np.sort(first)][:need]
    return np.concatenate((keys, chords))


def _port_labelled(
    n: int, keys: Any, uniform: Callable[[int], Any]
) -> GraphSnapshot:
    """The snapshot of edge ``keys`` with a uniform port permutation at
    every node."""
    import numpy as np

    low, high = np.divmod(keys, n)
    sources = np.concatenate((low, high))
    targets = np.concatenate((high, low))
    # Sources as the narrowest type numpy radix-sorts (16 bits) when it fits.
    narrow = sources.astype(np.int16) if n <= 1 << 15 else sources
    order = np.lexsort((uniform(len(sources)), narrow))
    indptr = np.bincount(sources, minlength=n).cumsum()
    return GraphSnapshot(n, [0] + indptr.tolist(), targets[order].tolist())


class RandomChurnDynamicGraph(DynamicGraph):
    """Oblivious random churn: a fresh random connected graph every round.

    Each round's graph is a random recursive spanning tree over a uniform
    node order plus ``extra_edges`` uniform distinct chords (fewer only
    when the graph saturates), with optional edge persistence: every edge
    of the previous round that is not in the new tree survives
    independently with probability ``persistence``.  Port labels are a
    uniform permutation at every node, redrawn every round (the model
    gives them no cross-round meaning).  Only the last round queried is
    kept: an earlier one is drawn again, from its own stream, or from
    round 0 on under persistence, and equals the first draw.
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
        self._round = -1
        self._snapshot: Optional[GraphSnapshot] = None
        self._keys: Any = None
        """The edge keys of round ``self._round``, as one int64 array."""

    def _draw(self, round_index: int) -> GraphSnapshot:
        """Round ``round_index``, given ``self._keys`` of the round before
        (``None`` before round 0 or without persistence)."""
        uniform = _uniform_stream(self._seed, _CHURN_STREAM, round_index)
        keys = _tree_keys(self._n, uniform)
        if self._keys is not None:
            kept = self._keys[~_member(keys, self._keys)]
            keys = _union(keys, kept[uniform(len(kept)) < self._persistence])
        edges = _with_chords(self._n, keys, self._extra_edges, uniform)
        if self._persistence > 0.0:
            self._keys = edges
        return _port_labelled(self._n, edges, uniform)

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        if round_index != self._round:
            first = round_index
            if self._persistence > 0.0:
                # Each round extends the one before it.
                first = self._round + 1
                if first > round_index:
                    first, self._keys = 0, None
            for r in range(first, round_index + 1):
                self._snapshot = self._draw(r)
            self._round = round_index
        assert self._snapshot is not None
        return self._snapshot


class TIntervalChurnDynamicGraph(DynamicGraph):
    """Random churn that is T-interval connected (paper §VIII future work).

    Rounds are grouped into blocks of length ``T``.  The snapshot of round
    ``r`` always contains the random spanning trees of both its own block
    and the next block, plus fresh random chords.  Any window of ``T``
    consecutive rounds spans at most two adjacent blocks ``j, j+1`` and
    every snapshot in the window contains the tree of block ``j+1``, so the
    window's intersection graph is connected: the process is T-interval
    connected by construction.  With ``T = 1`` this degenerates to ordinary
    1-interval churn.  Every block tree and every round has its own seeded
    stream, so rounds may be queried in any order; only the last round
    queried is kept, and an earlier one drawn again equals the first draw.
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
        self._round = -1
        self._snapshot: Optional[GraphSnapshot] = None
        self._block_trees: Dict[int, Any] = {}

    @property
    def interval(self) -> int:
        """The connectivity interval T."""
        return self._interval

    def _block_tree(self, block: int) -> Any:
        if block not in self._block_trees:
            self._block_trees[block] = _tree_keys(
                self._n, _uniform_stream(self._seed, _TREE_STREAM, block)
            )
        return self._block_trees[block]

    def snapshot(
        self, round_index: int, context: Optional[RoundContext] = None
    ) -> GraphSnapshot:
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        if round_index != self._round:
            block = round_index // self._interval
            keys = _union(
                self._block_tree(block), self._block_tree(block + 1)
            )
            uniform = _uniform_stream(self._seed, _ROUND_STREAM, round_index)
            edges = _with_chords(self._n, keys, self._extra_edges, uniform)
            self._snapshot = _port_labelled(self._n, edges, uniform)
            self._round = round_index
        assert self._snapshot is not None
        return self._snapshot

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
        keys = self._block_tree(start_round // self._interval + 1)
        return frozenset(
            (int(key) // self._n, int(key) % self._n) for key in keys
        )


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
