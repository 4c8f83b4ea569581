"""Ablated variants of Algorithm 4 for the design-choice experiment (E3).

DESIGN.md calls out three load-bearing design choices in the paper's
algorithm; each variant here removes exactly one of them so the
campaign's E3 section can show what breaks:

* :class:`NoDisjointnessVariant` -- skips Algorithm 3's disjointness
  filter and slides along *every* root path (conflicts resolved
  first-path-wins).  Paths then share nodes, a shared node is asked to
  forward one robot to several successors at once, and Lemma 7's invariant
  "every occupied node stays occupied" can break: runs get slower and can
  oscillate.
* :class:`NoTruncationVariant` -- skips Algorithm 4's
  ``count(v_root) - 1`` cap, allowing the root to send out as many robots
  as it has paths.  The root can then be vacated, previously-occupied
  nodes become empty again, and the ``k - alpha_0`` round bound no longer
  holds.
* :class:`UnorderedLeafVariant` -- processes leaf candidates in
  *decreasing* ID order instead of increasing.  This one is expected to
  still be correct (any common deterministic order preserves Lemmas 4-7);
  it isolates which conventions are essential versus arbitrary.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.components import ComponentGraph
from repro.core.disjoint_paths import RootPath, leaf_node_set
from repro.core.dispersion import DispersionDynamic
from repro.core.sliding import compute_sliding_moves, truncate_paths
from repro.core.spanning_tree import build_spanning_tree


class NoDisjointnessVariant(DispersionDynamic):
    """Ablation: all root paths, no disjointness filter."""

    name = "ablation_no_disjointness"

    def component_moves(self, component: ComponentGraph) -> Dict[int, int]:
        """All root paths, conflicts resolved first-path-wins."""
        tree = build_spanning_tree(component)
        if tree is None:
            return {}
        paths = [
            RootPath(tuple(tree.root_path(leaf)))
            for leaf in leaf_node_set(tree, component)
        ]
        root_count = component.node(tree.root).robot_count
        paths = truncate_paths(paths, root_count)

        # Sliding with overlapping paths: first path wins each robot; a
        # robot already claimed by an earlier path is skipped (its hop is
        # simply lost).  Mirrors what a naive implementation would do.
        moves: Dict[int, int] = {}
        root_robots = sorted(component.node(tree.root).robot_ids)
        for index, path in enumerate(paths):
            mover = root_robots[index + 1]
            if mover not in moves:
                if path.is_trivial:
                    port = component.node(tree.root).smallest_empty_port
                    if port is not None:
                        moves[mover] = port
                else:
                    moves[mover] = component.port_between(
                        path.nodes[0], path.nodes[1]
                    )
            for position in range(1, len(path.nodes)):
                node = path.nodes[position]
                info = component.node(node)
                candidates = [
                    r for r in sorted(info.robot_ids, reverse=True)
                    if r not in moves
                ]
                if not candidates:
                    continue
                if position < len(path.nodes) - 1:
                    port = component.port_between(
                        node, path.nodes[position + 1]
                    )
                else:
                    empty_port = info.smallest_empty_port
                    if empty_port is None:
                        continue
                    port = empty_port
                moves[candidates[0]] = port
        return moves


class NoTruncationVariant(DispersionDynamic):
    """Ablation: no ``count(v_root) - 1`` cap; the root may be vacated."""

    name = "ablation_no_truncation"

    def component_moves(self, component: ComponentGraph) -> Dict[int, int]:
        tree = build_spanning_tree(component)
        if tree is None:
            return {}
        from repro.core.disjoint_paths import compute_disjoint_paths

        paths = compute_disjoint_paths(tree, component)
        root_info = component.node(tree.root)
        # Assign as many root robots as there are paths -- including the
        # smallest one, so the root can end the round empty.
        usable = min(len(paths), root_info.robot_count)
        paths = paths[:usable]

        moves: Dict[int, int] = {}
        root_robots = sorted(root_info.robot_ids)
        for index, path in enumerate(paths):
            mover = root_robots[index]  # note: index 0 moves too
            if path.is_trivial:
                port = root_info.smallest_empty_port
                if port is not None:
                    moves[mover] = port
            else:
                moves[mover] = component.port_between(
                    path.nodes[0], path.nodes[1]
                )
                for position in range(1, len(path.nodes)):
                    node = path.nodes[position]
                    info = component.node(node)
                    if position < len(path.nodes) - 1:
                        port = component.port_between(
                            node, path.nodes[position + 1]
                        )
                    else:
                        empty_port = info.smallest_empty_port
                        if empty_port is None:
                            continue
                        port = empty_port
                    mover_here = max(info.robot_ids)
                    if mover_here not in moves:
                        moves[mover_here] = port
        return moves


class BfsTreeVariant(DispersionDynamic):
    """The paper's parenthetical: use a BFS spanning tree instead of DFS.

    Expected to preserve every guarantee (Lemmas 2-8 only need *some*
    deterministic tree all robots agree on); BFS trees are shallower, so
    root paths -- and hence per-round sliding chains -- tend to be
    shorter, trading fewer robot moves for (possibly) fewer parallel
    disjoint paths.
    """

    name = "ablation_bfs_tree"

    def component_moves(self, component: ComponentGraph) -> Dict[int, int]:
        from repro.core.disjoint_paths import compute_disjoint_paths
        from repro.core.spanning_tree import build_spanning_tree_bfs

        tree = build_spanning_tree_bfs(component)
        if tree is None:
            return {}
        paths = compute_disjoint_paths(tree, component)
        paths = truncate_paths(
            paths, component.node(tree.root).robot_count
        )
        return compute_sliding_moves(component, tree, paths)


class UnorderedLeafVariant(DispersionDynamic):
    """Ablation: greedy selection in *decreasing* leaf-ID order."""

    name = "ablation_descending_leaf_order"

    def component_moves(self, component: ComponentGraph) -> Dict[int, int]:
        tree = build_spanning_tree(component)
        if tree is None:
            return {}
        used_nodes: Set[int] = set()
        used_edges: Set[Tuple[int, int]] = set()
        selected: List[RootPath] = []
        for leaf in sorted(leaf_node_set(tree, component), reverse=True):
            path = RootPath(tuple(tree.root_path(leaf)))
            if any(node in used_nodes for node in path.interior_and_leaf):
                continue
            if any(edge in used_edges for edge in path.edges()):
                continue
            used_nodes.update(path.interior_and_leaf)
            used_edges.update(path.edges())
            selected.append(path)
        root_count = component.node(tree.root).robot_count
        selected = truncate_paths(selected, root_count)
        return compute_sliding_moves(component, tree, selected)
