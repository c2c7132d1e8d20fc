"""Shared random generators and independent oracles for the tests."""

from __future__ import annotations

from collections import deque

import numpy as np

from kernelglue import GluingTree, IndexedKernel, make_kernel

#: Tolerance values the library must reject: each one is either not
#: finite or not positive.
BAD_TOLERANCES = (float("nan"), 0.0, -1e-9, float("inf"))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average with the conjugate transpose; the result is exactly Hermitian."""
    return (m + m.conj().T) / 2


def random_gram_kernel(rng, labels, complex_entries=True) -> IndexedKernel:
    """PSD kernel built as a Gram matrix V*V, rescaled to an all-unit diagonal.

    The rescale divides real and imaginary parts separately by the
    symmetric matrix sqrt(d_i d_j), which keeps conjugate symmetry exact,
    then pins the diagonal to exactly 1.0.
    """
    n = len(labels)
    v = rng.standard_normal((n, n))
    if complex_entries:
        v = v + 1j * rng.standard_normal((n, n))
    g = hermitize(v.conj().T @ v + 0.1 * np.eye(n))
    d = g.real.diagonal()
    s = np.sqrt(np.outer(d, d))
    out = g.real / s + 1j * (g.imag / s)
    np.fill_diagonal(out, 1.0)
    return make_kernel(labels, out)


def random_unit_corner_hermitian(rng, n, psd) -> IndexedKernel:
    """Random Hermitian kernel with (0,0) entry exactly 1, PSD iff ``psd``.

    Eigenvalues are drawn away from zero in either direction so the two
    certification routes face no borderline verdicts.
    """
    while True:
        base = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        _, v = np.linalg.eigh(base)
        w = rng.uniform(0.1, 2.0, n)
        if not psd:
            w[0] = -rng.uniform(0.3, 1.5)
        m = hermitize((v * w) @ v.conj().T)
        corner = float(m[0, 0].real)
        if corner < 0.3:
            continue
        out = m.real / corner + 1j * (m.imag / corner)
        labels = tuple(f"t{i}" for i in range(n))
        return make_kernel(labels, out)


def random_glued_pair(rng, max_dim=8):
    """Two unit-diagonal PSD kernels sharing exactly the label "x0"."""
    n1 = int(rng.integers(2, max_dim + 1))
    n2 = int(rng.integers(2, max_dim + 1))
    labels1 = [f"a{i}" for i in range(n1 - 1)]
    labels1.insert(int(rng.integers(0, n1)), "x0")
    labels2 = [f"b{i}" for i in range(n2 - 1)]
    labels2.insert(int(rng.integers(0, n2)), "x0")
    k1 = random_gram_kernel(rng, tuple(labels1))
    k2 = random_gram_kernel(rng, tuple(labels2))
    return k1, k2


def random_gluing_tree(rng, max_nodes=5, max_size=5) -> GluingTree:
    """Random tree of unit-diagonal PSD kernels glued at fresh labels.

    Node i > 0 attaches to a random earlier node through glue label
    ``g<i>``; each node also carries at least one private label, and no
    node exceeds ``max_size`` labels.
    """
    n_nodes = int(rng.integers(2, max_nodes + 1))
    parents = [int(rng.integers(0, i)) for i in range(1, n_nodes)]
    incident: dict[int, list[str]] = {i: [] for i in range(n_nodes)}
    for child, parent in enumerate(parents, start=1):
        glue = f"g{child}"
        incident[parent].append(glue)
        incident[child].append(glue)
    nodes = []
    for i in range(n_nodes):
        glues = incident[i]
        extra = int(rng.integers(1, max(2, max_size - len(glues) + 1)))
        labels = list(glues) + [f"n{i}p{j}" for j in range(extra)]
        order = rng.permutation(len(labels))
        nodes.append(random_gram_kernel(rng, tuple(labels[j] for j in order)))
    edges = tuple((parents[c - 1], c, f"g{c}") for c in range(1, n_nodes))
    return GluingTree(tuple(nodes), edges)


def reroot(tree: GluingTree, r: int) -> GluingTree:
    """The same tree with nodes 0 and r swapped and the edges remapped, so
    that gluing starts from the old node r."""
    swap = {0: r, r: 0}
    nodes = list(tree.nodes)
    nodes[0], nodes[r] = nodes[r], nodes[0]
    edges = tuple((swap.get(i, i), swap.get(j, j), label) for i, j, label in tree.edges)
    return GluingTree(tuple(nodes), edges)


def edge_kernel_tree(parents, q: complex) -> GluingTree:
    """A tree of 2-label edge kernels over vertices ``v0, v1, ...``.

    Vertex c >= 1 hangs off vertex ``parents[c - 1] < c``.  Node c - 1 is
    the kernel ``[[1, q], [conj(q), 1]]`` on (parent, child), glued at the
    parent vertex to the parent's own edge kernel, or to node 0 when the
    parent is the root.
    """
    nodes, edges = [], []
    for c, p in enumerate(parents, start=1):
        nodes.append(make_kernel([f"v{p}", f"v{c}"], [[1, q], [np.conj(q), 1]]))
        if c > 1:
            edges.append((max(p - 1, 0), c - 1, f"v{p}"))
    return GluingTree(tuple(nodes), tuple(edges))


def haagerup_oracle(parents, q: complex) -> np.ndarray:
    """The closed form of ``glue_tree(edge_kernel_tree(parents, q))``.

    ``K(v_s, v_t) = conj(q)^up * q^down``, where up and down count the
    edges from s up to the lowest common ancestor and from there down to
    t; for real q this is ``q^d(s, t)``.  Rows and columns in vertex order.
    """
    n = len(parents) + 1
    above = np.eye(n)  # above[v, u] = 1 when u is v or one of its ancestors
    for c, p in enumerate(parents, start=1):
        above[c] += above[p]
    depth = above.sum(axis=1).astype(int) - 1
    lca = np.rint(above @ above.T).astype(int) - 1  # depth of the lowest common ancestor
    return np.conj(q) ** (depth[:, None] - lca) * q ** (depth[None, :] - lca)


def path_product_oracle(tree: GluingTree) -> dict[tuple[str, str], complex]:
    """Expected cross entries of a glued tree, computed independently.

    For private labels u, v of two different nodes, the glued kernel's
    entry (u, v) must equal the product of entries along the unique node
    path: K(u, g1) K(g1, g2) ... K(gm, v), each factor read from the node
    the path passes through.
    """
    adj: dict[int, list[tuple[int, str]]] = {i: [] for i in range(len(tree.nodes))}
    for a, b, label in tree.edges:
        adj[a].append((b, label))
        adj[b].append((a, label))

    def node_path(src, dst):
        prev = {src: None}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            if cur == dst:
                break
            for nxt, label in adj[cur]:
                if nxt not in prev:
                    prev[nxt] = (cur, label)
                    queue.append(nxt)
        steps = []
        cur = dst
        while prev[cur] is not None:
            parent, label = prev[cur]
            steps.append((cur, label))
            cur = parent
        steps.reverse()
        return steps

    glue_labels = {label for _, _, label in tree.edges}
    expected = {}
    for i, ki in enumerate(tree.nodes):
        for j, kj in enumerate(tree.nodes):
            if i == j:
                continue
            steps = node_path(i, j)
            for u in ki.labels:
                if u in glue_labels:
                    continue
                for v in kj.labels:
                    if v in glue_labels:
                        continue
                    value = 1.0 + 0.0j
                    node, at = i, u
                    for entered, via in steps:
                        value *= tree.nodes[node].entry(at, via)
                        node, at = entered, via
                    value *= tree.nodes[node].entry(at, v)
                    expected[(u, v)] = value
    return expected
