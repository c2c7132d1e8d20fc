"""Iterated Markov products along a tree of kernels.

Kernels sit on the nodes; each edge names the single label its two
endpoint kernels share.  Gluing every node at its edge label assembles
one kernel on the union of all labels, written once at its final size;
the result is independent of traversal order because cross entries
compose multiplicatively along tree paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import IntersectionNotSingletonError, InvalidParameterError, NotATreeError
from .kernels import DEFAULT_BASEPOINT_TOL, IndexedKernel, _glue_chain


@dataclass(frozen=True, eq=False)
class GluingTree:
    """Kernels on nodes, edges (i, j, shared label) forming a tree."""

    nodes: tuple[IndexedKernel, ...]
    edges: tuple[tuple[int, int, str], ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        edges = []
        for i, j, label in self.edges:
            i, j, label = int(i), int(j), str(label)
            if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
                raise NotATreeError(f"edge ({i}, {j}, {label!r}) references a missing node")
            if i == j:
                raise NotATreeError(f"edge ({i}, {j}, {label!r}) is a self-loop")
            for node in (i, j):
                if label not in nodes[node].labels:
                    raise IntersectionNotSingletonError(
                        f"edge ({i}, {j}, {label!r}): node {node} has no label {label!r}"
                    )
            edges.append((i, j, label))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(edges))


def _traversal(tree: GluingTree, order: str) -> list[tuple[int, str]]:
    """Visit sequence (node, glue label) from node 0, excluding the root.

    "bfs" explores in breadth-first layers, "dfs" depth-first; within a
    node, incident edges are scanned in edge-list order.
    """
    incident: dict[int, list[tuple[int, str]]] = {i: [] for i in range(len(tree.nodes))}
    for i, j, label in tree.edges:
        incident[i].append((j, label))
        incident[j].append((i, label))

    visited = {0}
    sequence: list[tuple[int, str]] = []
    pending: deque[int] = deque([0])
    while pending:
        u = pending.popleft() if order == "bfs" else pending.pop()
        for v, label in incident[u]:
            if v not in visited:
                visited.add(v)
                sequence.append((v, label))
                pending.append(v)
    if len(visited) != len(tree.nodes):
        missing = sorted(set(range(len(tree.nodes))) - visited)
        raise NotATreeError(f"edges do not connect nodes {missing} to node 0")
    return sequence


def glue_tree(
    tree: GluingTree,
    *,
    basepoint_tol: float = DEFAULT_BASEPOINT_TOL,
    traversal: str = "bfs",
) -> IndexedKernel:
    """Glue the tree's kernels at their edge labels, assembled once.

    The result equals the Markov product applied edge by edge in
    traversal order, bit for bit.  The canonical output uses a
    breadth-first traversal from node 0; "dfs" is accepted as an
    alternative order (the results agree entrywise up to label
    permutation, which is a tested property, not an assumption).
    """
    if traversal not in ("bfs", "dfs"):
        raise InvalidParameterError(f"traversal must be 'bfs' or 'dfs', got {traversal!r}")
    if not tree.nodes:
        raise NotATreeError("tree has no nodes")
    if len(tree.edges) != len(tree.nodes) - 1:
        raise NotATreeError(
            f"{len(tree.nodes)} nodes need {len(tree.nodes) - 1} edges to form a tree, "
            f"got {len(tree.edges)}"
        )
    steps = [(tree.nodes[v], label) for v, label in _traversal(tree, traversal)]
    return _glue_chain(tree.nodes[0], steps, basepoint_tol)
