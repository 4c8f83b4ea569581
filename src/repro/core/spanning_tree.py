"""Algorithm 2 -- ``ComponentSpanningTree``: deterministic DFS tree.

Given a connected component with at least one multiplicity node, every
robot builds the same spanning tree (Lemma 2): the root is the smallest-ID
multiplicity node, and the tree is grown by a DFS that pushes each node's
unexplored neighbors onto a stack in *decreasing* port order (so the
smallest port is explored first), connecting every node to the node from
which it was first discovered.

A component without a multiplicity node is already dispersed and gets no
tree (the paper's Algorithm 2 simply does not run there);
:func:`build_spanning_tree` returns ``None`` in that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.components import ComponentGraph


@dataclass
class SpanningTree:
    """The spanning tree ``ST_r^phi`` of one component.

    Nodes are representative IDs (unique; Observation 3).  ``parent`` maps
    every non-root node to the node it was discovered from; ``children``
    lists each node's children in discovery order.
    """

    root: int
    parent: Dict[int, Optional[int]]
    children: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def nodes(self) -> List[int]:
        """All tree nodes, sorted by representative ID."""
        return sorted(self.parent)

    @property
    def size(self) -> int:
        """Number of nodes (equals the component size: the tree spans)."""
        return len(self.parent)

    def __contains__(self, rep: int) -> bool:
        return rep in self.parent

    def edges(self) -> List[Tuple[int, int]]:
        """Tree edges as ``(parent, child)`` pairs, sorted by child."""
        return sorted(
            (parent, child)
            for child, parent in self.parent.items()
            if parent is not None
        )

    def root_path(self, rep: int) -> List[int]:
        """``RootPath_r^phi(rep)``: node sequence from the root to ``rep``.

        The unique tree path; returns ``[root]`` when ``rep`` is the root.
        """
        if rep not in self.parent:
            raise KeyError(f"{rep} is not a tree node")
        path = [rep]
        current = rep
        while self.parent[current] is not None:
            current = self.parent[current]  # type: ignore[assignment]
            path.append(current)
        path.reverse()
        if path[0] != self.root:
            raise AssertionError("root path did not reach the root")
        return path

    def depth(self, rep: int) -> int:
        """Tree depth of ``rep`` (root is 0)."""
        return len(self.root_path(rep)) - 1

    def is_valid_tree(self) -> bool:
        """Structural self-check: connected, acyclic, parent/child match."""
        if self.parent.get(self.root, "missing") is not None:
            return False
        seen = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                return False
            seen.add(node)
            for child in self.children.get(node, []):
                if self.parent.get(child) != node:
                    return False
                stack.append(child)
        return seen == set(self.parent)


def choose_root(component: ComponentGraph) -> Optional[int]:
    """The tree root: smallest-ID multiplicity node, or None if dispersed."""
    multiplicities = (
        rep for rep, info in component._nodes.items() if info.is_multiplicity
    )
    return min(multiplicities, default=None)


def build_spanning_tree(component: ComponentGraph) -> Optional[SpanningTree]:
    """Algorithm 2: the deterministic DFS spanning tree of ``component``.

    Returns ``None`` when the component has no multiplicity node (it is
    already a dispersion configuration and needs no tree).
    """
    root = choose_root(component)
    if root is None:
        return None

    parent: Dict[int, Optional[int]] = {root: None}
    children: Dict[int, List[int]] = {root: []}

    # Paper: push the root's neighbors in decreasing port order so the
    # smallest port sits on top of the stack and is explored first.
    stack: List[Tuple[int, int]] = []  # (node, discovered_from)
    adjacency = component._adjacency

    def push_neighbors(node: int) -> None:
        by_port = adjacency[node]
        # Sorted, not insertion order: a forged packet may list its
        # occupied neighbors out of port order.
        for port in sorted(by_port, reverse=True):
            neighbor = by_port[port]
            if neighbor not in parent:
                stack.append((neighbor, node))

    push_neighbors(root)
    while stack:
        node, discovered_from = stack.pop()
        if node in parent:
            continue  # discovered through an earlier (smaller-port) edge
        parent[node] = discovered_from
        children[node] = []
        children[discovered_from].append(node)
        push_neighbors(node)

    if parent.keys() != component._nodes.keys():
        raise AssertionError(
            "spanning tree does not span its component; the component "
            "graph is not connected"
        )
    return SpanningTree(root=root, parent=parent, children=children)


def build_spanning_tree_bfs(
    component: ComponentGraph,
) -> Optional[SpanningTree]:
    """The paper's parenthetical alternative: a BFS spanning tree.

    Section V notes "(a breadth-first search, BFS, approach can also be
    used)" -- any deterministic construction shared by all robots
    preserves Lemmas 2 and 4.  This variant explores level by level,
    visiting each node's neighbors in increasing port order; the ablation
    benchmark runs the full algorithm on BFS trees to confirm the
    guarantees are construction-agnostic.
    """
    root = choose_root(component)
    if root is None:
        return None

    parent: Dict[int, Optional[int]] = {root: None}
    children: Dict[int, List[int]] = {root: []}
    frontier: List[int] = [root]
    adjacency = component._adjacency
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            by_port = adjacency[node]
            for port in sorted(by_port):
                neighbor = by_port[port]
                if neighbor not in parent:
                    parent[neighbor] = node
                    children[neighbor] = []
                    children[node].append(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier

    if parent.keys() != component._nodes.keys():
        raise AssertionError(
            "BFS spanning tree does not span its component"
        )
    return SpanningTree(root=root, parent=parent, children=children)
