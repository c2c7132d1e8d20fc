"""Iterated Markov products along a tree of kernels.

Kernels sit on the nodes; each edge names the single label its two
endpoint kernels share.  A tree is checked when it is built and carries
its glue order, breadth-first from node 0.  Gluing every node at its
edge label in that order assembles one kernel on the union of all
labels, written once at its final size; the result does not depend on
the root because cross entries compose multiplicatively along tree paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

from .errors import IntersectionNotSingletonError, NotATreeError
from .kernels import DEFAULT_BASEPOINT_TOL, IndexedKernel, _glue_chain


@dataclass(frozen=True, eq=False)
class GluingTree:
    """Kernels on nodes, edges (i, j, shared label) forming a tree.

    ``order`` is derived: the (node, glue label) steps of a breadth-first
    walk from node 0, scanning each node's edges in edge-list order.
    """

    nodes: tuple[IndexedKernel, ...]
    edges: tuple[tuple[int, int, str], ...]
    order: tuple[tuple[int, str], ...] = field(init=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        n = len(nodes)
        edges = []
        incident: list[list[tuple[int, str]]] = [[] for _ in nodes]
        for i, j, label in self.edges:
            if not all(isinstance(x, Integral) and not isinstance(x, bool) for x in (i, j)):
                raise NotATreeError(f"edge {(i, j, label)!r}: node indices must be integers")
            i, j, label = int(i), int(j), str(label)
            if not (0 <= i < n and 0 <= j < n):
                raise NotATreeError(f"edge ({i}, {j}, {label!r}) references a missing node")
            if i == j:
                raise NotATreeError(f"edge ({i}, {j}, {label!r}) is a self-loop")
            for node in (i, j):
                if label not in nodes[node].labels:
                    raise IntersectionNotSingletonError(
                        f"edge ({i}, {j}, {label!r}): node {node} has no label {label!r}"
                    )
            edges.append((i, j, label))
            incident[i].append((j, label))
            incident[j].append((i, label))
        if not nodes:
            raise NotATreeError("tree has no nodes")
        if len(edges) != n - 1:
            raise NotATreeError(
                f"{n} nodes need {n - 1} edges to form a tree, got {len(edges)}"
            )
        reached, order = {0}, [(0, "")]
        for u, _ in order:  # grows as nodes are reached: a breadth-first queue
            for v, label in incident[u]:
                if v not in reached:
                    reached.add(v)
                    order.append((v, label))
        if len(reached) != n:
            missing = sorted(set(range(n)) - reached)
            raise NotATreeError(f"edges do not connect nodes {missing} to node 0")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "order", tuple(order[1:]))


def glue_tree(tree: GluingTree, *, basepoint_tol: float = DEFAULT_BASEPOINT_TOL) -> IndexedKernel:
    """Glue the tree's kernels at their edge labels in ``tree.order``.

    The result is assembled once and equals, bit for bit, the Markov
    product applied edge by edge in that order.
    """
    steps = [(tree.nodes[v], label) for v, label in tree.order]
    return _glue_chain(tree.nodes[0], steps, basepoint_tol)
