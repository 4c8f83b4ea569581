"""Algorithm 3 -- ``DisjointPaths``: greedy disjoint root-path selection.

The *leaf node set* of a spanning tree contains every tree node with at
least one empty neighbor in ``G_r`` (a place a robot could newly settle).
Processing leaf candidates in increasing representative-ID order, a root
path is kept iff it shares no node and no edge with the paths already kept
-- except the root itself, which every root path necessarily contains
(Definition 5 excludes the root from the disjointness requirement).

The root itself belongs to the leaf node set when it has an empty neighbor;
its root path is the trivial single-node path.  This matters: in a rooted
initial configuration the whole component is one multiplicity node, and the
trivial path is what lets a robot step off it.

Lemma 3 guarantees the returned set is non-empty whenever the component has
a multiplicity node and ``k <= n``; Lemma 4 guarantees all robots of the
component compute the same set, which holds here by determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.core.components import ComponentGraph
from repro.core.spanning_tree import SpanningTree


@dataclass(frozen=True)
class RootPath:
    """One selected path ``(root, ..., leaf)`` along spanning-tree edges.

    ``nodes`` are representative IDs; ``nodes[0]`` is the tree root and
    ``nodes[-1]`` the leaf (they coincide for the trivial path).
    """

    nodes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a root path has at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("a root path cannot repeat nodes")

    @property
    def root(self) -> int:
        """First node: the spanning-tree root (a multiplicity node)."""
        return self.nodes[0]

    @property
    def leaf(self) -> int:
        """Last node: has an empty neighbor in ``G_r``."""
        return self.nodes[-1]

    @property
    def is_trivial(self) -> bool:
        """Whether the path is just the root itself."""
        return len(self.nodes) == 1

    @property
    def interior_and_leaf(self) -> Tuple[int, ...]:
        """All nodes except the root (the part subject to disjointness)."""
        return self.nodes[1:]

    def edges(self) -> List[Tuple[int, int]]:
        """Path edges as unordered sorted pairs."""
        return [
            (min(a, b), max(a, b))
            for a, b in zip(self.nodes, self.nodes[1:])
        ]

    def __len__(self) -> int:
        return len(self.nodes)


def leaf_node_set(
    tree: SpanningTree, component: ComponentGraph
) -> List[int]:
    """``LeafNodeSet(ST_r^phi)``: tree nodes with an empty ``G_r`` neighbor.

    Sorted ascending by representative ID (the paper's processing order).
    Note "leaf" refers to having an empty graph neighbor, not to being a
    leaf of the tree.  O(size log size) for the sort.
    """
    nodes = component._nodes
    return sorted(
        rep for rep in tree.parent if nodes[rep].has_empty_neighbor
    )


def compute_disjoint_paths(
    tree: SpanningTree, component: ComponentGraph
) -> List[RootPath]:
    """Algorithm 3: greedily select disjoint root paths.

    Candidates are processed in increasing leaf-ID order; a candidate is
    kept iff its non-root nodes avoid every node already kept.  The result
    is therefore already ordered by increasing leaf ID, which is the order
    Algorithm 4's truncation step needs.

    Edge-disjointness needs no separate check: every edge of a root path
    ends at one of the path's non-root nodes (its child side), so two
    paths sharing an edge share a non-root node, which the node check
    already rejects.

    Each candidate walks up ``tree.parent`` and stops at the root (the
    path is kept: its non-root nodes become ``used``) or at a node that
    is ``used`` or ``blocked`` (the path is rejected: the nodes it passed
    become ``blocked``, since their own root paths run through the same
    used node).  Both sets only grow and a walk never enters either, so
    every tree node is walked over at most once: O(size log size) for the
    candidate sort plus O(size) for the walks, instead of one full
    root-path walk per candidate.
    """
    parent = tree.parent
    root = tree.root
    used: Set[int] = set()
    blocked: Set[int] = set()
    selected: List[RootPath] = []

    for leaf in leaf_node_set(tree, component):
        chain: List[int] = []
        node = leaf
        while node != root:
            if node in used or node in blocked:
                blocked.update(chain)
                break
            chain.append(node)
            up = parent[node]
            if up is None:
                raise AssertionError("root path did not reach the root")
            node = up
        else:
            used.update(chain)
            chain.append(root)
            chain.reverse()
            selected.append(RootPath(tuple(chain)))

    return selected


def check_pairwise_disjoint(paths: List[RootPath]) -> bool:
    """Verify Definition 5 on a path set (used by tests and assertions)."""
    seen_nodes: Set[int] = set()
    seen_edges: Set[Tuple[int, int]] = set()
    for path in paths:
        for node in path.interior_and_leaf:
            if node in seen_nodes:
                return False
            seen_nodes.add(node)
        for edge in path.edges():
            if edge in seen_edges:
                return False
            seen_edges.add(edge)
    return True
