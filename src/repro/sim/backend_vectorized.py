"""The ``vectorized`` engine backend: numpy struct-of-arrays kernels.

The reference backend rebuilds per-robot :class:`InfoPacket` /
:class:`Observation` objects, component graphs, spanning trees, and
root-path sets as dicts and dataclasses every round.  This backend reads
the same round state but executes the hot phases on flat integer
arrays:

* the round snapshot is read as the CSR adjacency it stores (``indptr``
  + port-ordered ``neighbors``); the snapshot keeps the numpy copies it
  converts on first use, so static graphs pay the conversion once per
  run and churn graphs once per round;
* alive robots become sorted ``(node, id)`` arrays, from which per-node
  representative / multiplicity / max-id columns fall out of one
  ``lexsort``;
* the occupied subgraph's edges are extracted with one vectorized mask
  and its connected components labeled by the batched min-label kernel
  :func:`label_occupied_components`;
* spanning-tree construction, disjoint root-path selection, and the
  sliding rule run as tight index loops over those arrays, reproducing
  Algorithm 2/3/4's tie-breaks exactly (decreasing-port DFS pushes,
  increasing-leaf-ID path selection with early exit at the truncation
  cap, smallest-stays root rule, largest-moves interior rule).

Observations are delivered lazily: the engine and the array compute
path never read them (the move map is computed from the arrays), so
packet objects are only materialized -- via the reference code path, for
byte-identical content -- when an observer or the termination-detection
round actually subscripts the mapping.

The arrays model one case: stock fast-mode :class:`DispersionDynamic`
under its declared model, where every robot receives the same packets
and computes the same move map (Lemmas 1, 2 and 4).  The backend decides
once per run, at bind time, whether a run is that case; every other run
(byzantine robots, local communication, faithful mode, an ablation
subclass, another algorithm) runs the inherited :class:`ReferenceBackend`
phases wholesale and builds no arrays.  Either way the backend is
bit-identical to the reference; the cross-backend tests enforce this
across the golden campaign, all scheduler models and generated specs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.dispersion import DispersionDynamic
from repro.sim.algorithm import Decision, MoveDecision, STAY
from repro.sim.backend import ReferenceBackend
from repro.sim.engine import RoundState
from repro.sim.observation import (
    CommunicationModel,
    Observation,
    build_info_packets,
    observations_from_packets,
)

__all__ = [
    "VectorizedBackend",
    "label_occupied_components",
    "occupied_subgraph_edges",
    "snapshot_to_csr",
]


# ----------------------------------------------------------------------
# Array kernels (pure functions; pinned by the kernel golden tests)
# ----------------------------------------------------------------------


def snapshot_to_csr(snapshot) -> Tuple[np.ndarray, np.ndarray]:
    """A snapshot's CSR adjacency ``(indptr, neighbors)`` as int64 arrays.

    ``neighbors[indptr[v]:indptr[v + 1]]`` lists ``v``'s neighbors in
    increasing port order, so the port of entry ``j`` of the slice is
    ``j + 1``.  The arrays are converted once per snapshot, read-only.
    """
    return snapshot.csr(_readonly_int64)


def _readonly_int64(values: Tuple[int, ...]) -> np.ndarray:
    array = np.array(values, dtype=np.int64)
    array.setflags(write=False)
    return array


def occupied_subgraph_edges(
    indptr: np.ndarray, neighbors: np.ndarray, occupied_nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges of the occupied-induced subgraph, batched.

    ``occupied_nodes`` is the sorted array of occupied node ids; returns
    ``(src, dst, port)`` where ``src``/``dst`` are *indices into*
    ``occupied_nodes`` and ``port`` is the port at ``src``'s node toward
    ``dst``'s node.  Edges are grouped by ``src`` in increasing port
    order (the order every per-component tie-break needs).
    """
    n = indptr.shape[0] - 1
    n_occ = occupied_nodes.shape[0]
    occ_of_node = np.full(n, -1, dtype=np.int64)
    occ_of_node[occupied_nodes] = np.arange(n_occ, dtype=np.int64)
    counts = indptr[occupied_nodes + 1] - indptr[occupied_nodes]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    seg_start = np.zeros(n_occ, dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_start[1:])
    rel = np.arange(total, dtype=np.int64) - np.repeat(seg_start, counts)
    gathered = neighbors[np.repeat(indptr[occupied_nodes], counts) + rel]
    dst = occ_of_node[gathered]
    keep = dst >= 0
    src = np.repeat(np.arange(n_occ, dtype=np.int64), counts)[keep]
    return src, dst[keep], (rel + 1)[keep]


def label_occupied_components(
    indptr: np.ndarray, neighbors: np.ndarray, occupied_nodes: np.ndarray
) -> np.ndarray:
    """Connected-component labels of the occupied-induced subgraph.

    Batched min-label propagation with pointer jumping: every occupied
    node starts labeled with its own index into ``occupied_nodes`` and
    repeatedly adopts the minimum label across its occupied edges until
    a fixed point.  The returned canonical label of a node is therefore
    the *smallest index* (== the node with the smallest id, since
    ``occupied_nodes`` is sorted) of its component -- a deterministic,
    pinnable labeling.
    """
    occupied_nodes = np.asarray(occupied_nodes, dtype=np.int64)
    src, dst, _ = occupied_subgraph_edges(indptr, neighbors, occupied_nodes)
    return _label_from_edges(occupied_nodes.shape[0], src, dst)


def _label_from_edges(
    n_occ: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    labels = np.arange(n_occ, dtype=np.int64)
    while True:
        nxt = labels.copy()
        if src.size:
            np.minimum.at(nxt, src, labels[dst])
        nxt = np.minimum(nxt, nxt[nxt])  # pointer jump: O(log) convergence
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


# ----------------------------------------------------------------------
# Lazy observation delivery
# ----------------------------------------------------------------------


class _LazyObservations(Mapping):
    """``{robot_id: Observation}`` materialized on first subscript.

    The array compute path reads the round's arrays instead, so for most
    rounds no packet object is ever built; when an observer (or the
    termination-detection round) does subscript, the reference packet
    pipeline runs on the round's state as observed (global packets with
    neighborhood knowledge, the array path's only model), producing
    content byte-identical to the reference backend's eager delivery.
    """

    __slots__ = ("_snapshot", "_round_index", "_state", "_materialized")

    def __init__(self, snapshot, round_index: int, state: RoundState) -> None:
        self._snapshot = snapshot
        self._round_index = round_index
        self._state = state
        self._materialized: Optional[Mapping[int, Observation]] = None

    def _materialize(self) -> Mapping[int, Observation]:
        if self._materialized is None:
            positions = self._state.positions
            packets = build_info_packets(
                self._snapshot, positions, neighborhood_knowledge=True
            )
            self._materialized = observations_from_packets(
                packets,
                positions,
                self._round_index,
                communication=CommunicationModel.GLOBAL,
                neighborhood_knowledge=True,
                entry_ports=self._state.entry_ports,
            )
        return self._materialized

    def __getitem__(self, robot_id: int) -> Observation:
        return self._materialize()[robot_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._state.positions)

    def __len__(self) -> int:
        return len(self._state.positions)


# ----------------------------------------------------------------------
# Per-round struct-of-arrays state
# ----------------------------------------------------------------------


class _RoundArrays:
    """Everything the array path needs about one round, as flat arrays."""

    __slots__ = (
        "occ_nodes",
        "rep",
        "counts",
        "max_id",
        "robots_sorted",
        "group_start",
        "degree",
        "adj_offset",
        "adj_dst",
        "adj_port",
        "num_components",
        "mult_components",
        "has_multiplicity",
        "moves",
    )

    def __init__(
        self,
        positions: Mapping[int, int],
        indptr: np.ndarray,
        neighbors: np.ndarray,
    ) -> None:
        k_alive = len(positions)
        rids = np.fromiter(positions.keys(), dtype=np.int64, count=k_alive)
        nodes = np.fromiter(positions.values(), dtype=np.int64, count=k_alive)
        order = np.lexsort((rids, nodes))
        rids_sorted = rids[order]
        nodes_sorted = nodes[order]
        occ_np, first = np.unique(nodes_sorted, return_index=True)
        counts_np = np.diff(np.append(first, k_alive))
        n_occ = occ_np.shape[0]

        self.occ_nodes: List[int] = occ_np.tolist()
        self.rep: List[int] = rids_sorted[first].tolist()
        self.counts: List[int] = counts_np.tolist()
        self.max_id: List[int] = rids_sorted[first + counts_np - 1].tolist()
        self.robots_sorted: List[int] = rids_sorted.tolist()
        self.group_start: List[int] = np.append(first, k_alive).tolist()
        self.degree: List[int] = (
            (indptr[occ_np + 1] - indptr[occ_np]).tolist()
        )

        src, dst, port = occupied_subgraph_edges(indptr, neighbors, occ_np)
        seg_counts = np.bincount(src, minlength=n_occ)
        offsets = np.zeros(n_occ + 1, dtype=np.int64)
        np.cumsum(seg_counts, out=offsets[1:])
        # Flat per-node occupied adjacency in increasing port order; node
        # i's slice is [adj_offset[i], adj_offset[i + 1]).  Kept flat --
        # only multiplicity-component members ever need their slice.
        self.adj_offset: List[int] = offsets.tolist()
        self.adj_dst: List[int] = dst.tolist()
        self.adj_port: List[int] = port.tolist()

        labels = _label_from_edges(n_occ, src, dst)
        self.num_components = int(np.unique(labels).size)
        mult_labels = np.unique(labels[counts_np >= 2])
        self.mult_components: List[List[int]] = [
            np.nonzero(labels == label)[0].tolist() for label in mult_labels
        ]
        self.has_multiplicity = bool(mult_labels.size)
        self.moves: Optional[Dict[int, int]] = None

    # -- Algorithm 2/3/4 on arrays -------------------------------------

    def robots_at(self, occ_index: int) -> List[int]:
        """Robot ids at an occupied node, ascending."""
        return self.robots_sorted[
            self.group_start[occ_index]:self.group_start[occ_index + 1]
        ]

    def smallest_empty_port(self, occ_index: int) -> int:
        """Smallest port toward an empty neighbor (caller guarantees one
        exists: the node is in the leaf node set)."""
        port = 1
        for j in range(self.adj_offset[occ_index], self.adj_offset[occ_index + 1]):
            occupied_port = self.adj_port[j]
            if occupied_port == port:
                port += 1
            elif occupied_port > port:
                break
        return port

    def round_moves(self) -> Dict[int, int]:
        """The round's full ``{robot_id: exit_port}`` map (Algorithm 4)."""
        if self.moves is None:
            moves: Dict[int, int] = {}
            for members in self.mult_components:
                self._component_moves(members, moves)
            self.moves = moves
        return self.moves

    def _component_moves(
        self, members: List[int], moves: Dict[int, int]
    ) -> None:
        rep = self.rep
        counts = self.counts
        offsets = self.adj_offset
        adj_dst = self.adj_dst
        adj_port = self.adj_port

        # Root: smallest-ID multiplicity node (Algorithm 2).
        root = min(
            (m for m in members if counts[m] >= 2), key=rep.__getitem__
        )

        # DFS spanning tree: push neighbors in decreasing port order so
        # the smallest port is explored first; the discovery port is the
        # port at the parent toward the child (unique: simple graph).
        parent: Dict[int, int] = {root: -1}
        parent_port: Dict[int, int] = {}
        stack: List[Tuple[int, int, int]] = []

        def push_neighbors(node: int) -> None:
            for j in range(offsets[node + 1] - 1, offsets[node] - 1, -1):
                neighbor = adj_dst[j]
                if neighbor not in parent:
                    stack.append((neighbor, node, adj_port[j]))

        push_neighbors(root)
        while stack:
            node, discovered_from, port = stack.pop()
            if node in parent:
                continue  # discovered through an earlier (smaller-port) edge
            parent[node] = discovered_from
            parent_port[node] = port
            push_neighbors(node)

        # Disjoint root paths (Algorithm 3), truncated to count-1 (Alg 4),
        # by the same walk as ``repro.core.compute_disjoint_paths``:
        # candidates in increasing leaf representative-ID order; a walk up
        # the tree stops at the root (kept: its non-root nodes become
        # used) or at a used or blocked node (rejected: the nodes it passed
        # become blocked), so each tree node is walked over at most once.
        # Edge-disjointness needs no separate check: a shared tree edge has
        # a shared non-root endpoint (its child side), which the node check
        # already rejects.  Selection is a deterministic prefix, so
        # stopping at the truncation cap is identical to truncating
        # afterwards.
        max_paths = counts[root] - 1
        degree = self.degree
        leaf_order = sorted(
            (
                m
                for m in members
                if degree[m] > offsets[m + 1] - offsets[m]
            ),
            key=rep.__getitem__,
        )
        used: set = set()
        blocked: set = set()
        paths: List[List[int]] = []
        for leaf in leaf_order:
            if len(paths) >= max_paths:
                break
            if leaf == root:
                paths.append([root])  # trivial path: nothing to check
                continue
            chain: List[int] = []
            node = leaf
            while node != root:
                if node in used or node in blocked:
                    blocked.update(chain)
                    break
                chain.append(node)
                node = parent[node]
            else:
                used.update(chain)
                chain.append(root)
                chain.reverse()
                paths.append(chain)

        # Sliding rule: smallest root robot stays; the i-th path gets the
        # (i+1)-st; at interior/leaf nodes the largest-ID robot moves.
        root_robots = self.robots_at(root)
        for index, path in enumerate(paths):
            root_mover = root_robots[index + 1]
            if len(path) == 1:
                moves[root_mover] = self.smallest_empty_port(root)
                continue
            moves[root_mover] = parent_port[path[1]]
            last = len(path) - 1
            for position in range(1, last + 1):
                node = path[position]
                if position < last:
                    port = parent_port[path[position + 1]]
                else:
                    port = self.smallest_empty_port(node)
                moves[self.max_id[node]] = port


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------


class VectorizedBackend(ReferenceBackend):
    """Struct-of-arrays phase execution, bit-identical to the reference.

    Inherits the (cheap) activate/move/settle phases.  Whether the run is
    the case the arrays model is decided once, in :meth:`on_bind`; when
    it is not, every overridden phase is the inherited one.
    """

    name = "vectorized"

    def on_bind(self) -> None:
        engine = self.engine
        algorithm = engine.algorithm
        self._round: Optional[_RoundArrays] = None
        # The arrays model stock fast-mode Algorithm 4 under its declared
        # model: honest robots, global packets with neighborhood
        # knowledge, and no overridden hook (ablation subclasses replace
        # component_moves, faithful mode recomputes per robot).
        self._fast = (
            not engine.byzantine_policies
            and engine.communication is CommunicationModel.GLOBAL
            and engine.neighborhood_knowledge
            and isinstance(algorithm, DispersionDynamic)
            and not algorithm._faithful
            and all(
                getattr(type(algorithm), hook)
                is getattr(DispersionDynamic, hook)
                for hook in ("decide", "component_moves", "on_round_start")
            )
        )

    # -- phases ---------------------------------------------------------

    def observe(self, state, snapshot, round_index: int):
        if not self._fast:
            return super().observe(state, snapshot, round_index)
        self._round = _RoundArrays(
            state.positions, *snapshot_to_csr(snapshot)
        )
        return _LazyObservations(snapshot, round_index, state)

    def compute(
        self, state, snapshot, round_index: int, observations, active
    ) -> Dict[int, Decision]:
        if not self._fast:
            return super().compute(
                state, snapshot, round_index, observations, active
            )
        # The engine observes every round before computing, on the same
        # snapshot and state, so the arrays are this round's.
        arrays = self._round
        if not arrays.has_multiplicity:
            # No multiplicity packet anywhere: every robot stays
            # (DispersionDynamic's termination test).
            return {robot_id: STAY for robot_id in sorted(active)}
        moves = arrays.round_moves()
        decisions: Dict[int, Decision] = {}
        for robot_id in sorted(active):
            port = moves.get(robot_id)
            decisions[robot_id] = (
                MoveDecision(port) if port is not None else STAY
            )
        return decisions

    def count_occupied_components(self, snapshot, occupied) -> int:
        if not self._fast:
            return super().count_occupied_components(snapshot, occupied)
        # Called for the round just observed, on its occupied set.
        return self._round.num_components
