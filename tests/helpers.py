"""Shared random generators and independent oracles for the tests."""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from kernelglue import GluedRealization, GluingTree, IndexedKernel, make_kernel, sample_blocks
from kernelglue.realization import _STREAM_TAGS, _subseed

#: Tolerance values the library must reject: each one is either not
#: finite or not positive.
BAD_TOLERANCES = (float("nan"), 0.0, -1e-9, float("inf"))


def json_native(doc):
    """A document with each numpy array replaced by nested ``[re, im]``
    lists, built entry by entry: the JSON-native twin that the document
    is written as."""
    if isinstance(doc, dict):
        return {k: json_native(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple, np.ndarray)):
        return [json_native(v) for v in doc]
    if isinstance(doc, np.complexfloating):
        return [float(doc.real), float(doc.imag)]
    return doc


def count_solver_calls(monkeypatch):
    """A list to which each later call of ``eigh`` or ``eigvalsh`` appends
    its name and its matrix's shape."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def draw(source, n, seed, real_mode=False):
    """The labels and the n sampled rows of a spec or a glued pair, as one
    array: ``sample_blocks`` reuses one buffer, so each block is copied."""
    labels = source.labels if isinstance(source, GluedRealization) else source.full_labels
    blocks = [block.copy() for block in sample_blocks(source, n, seed, real_mode=real_mode)]
    return labels, np.concatenate(blocks)


def moments(source, n, seed, real_mode=False) -> IndexedKernel:
    """The empirical kernel of n rows drawn from a spec or a glued pair, by
    plain numpy: the sum of ``X.T @ X.conj()`` over the copied bands of
    ``sample_blocks``, divided by n, then averaged with its conjugate
    transpose so that it is exactly Hermitian."""
    labels = source.labels if isinstance(source, GluedRealization) else source.full_labels
    bands = (band.copy() for band in sample_blocks(source, n, seed, real_mode=real_mode))
    return make_kernel(labels, hermitize(sum(X.T @ X.conj() for X in bands) / n))


def _reference_normals(source, n, seed, real_mode):
    """Per band of k rows, the normals of each spec as an r d x k array,
    r = 2 (the d rows of real parts, then the d rows of imaginary parts)
    or 1 in real mode, read in row order from r k d floats of its
    stream.  Bands are 1,024 rows, and the last one takes a 1-row tail."""
    glued = isinstance(source, GluedRealization)
    specs = (source.spec1, source.spec2) if glued else (source,)
    seeds = [_subseed(seed, tag) for tag in _STREAM_TAGS] if glued else [seed]
    rngs = [np.random.Generator(np.random.SFC64(s)) for s in seeds]
    r, start = 1 if real_mode else 2, 0
    while start < n:
        k = n - start if n - start <= 1025 else 1024
        yield [rng.standard_normal(r * spec.dim * k).reshape(r * spec.dim, k)
               for spec, rng in zip(specs, rngs)]
        start += k


def _label_columns(specs):
    """Each spec's label columns in the sampled label order: the first
    spec's coordinates go around the basepoint column, the second's follow."""
    i = specs[0].basepoint_index
    first = [a if a < i else a + 1 for a in range(specs[0].dim)]
    return [first] + [[specs[0].dim + 1 + a for a in range(spec.dim)] for spec in specs[1:]]


def reference_blocks(source, n, seed, real_mode=False, magnitudes=False):
    """The bands of ``sample_blocks`` by the per-band formula, each a
    fresh array: ``V.T @ M`` viewed as complex, with V a row of ones, each
    spec's normals (``_reference_normals``) and zero rows up to a multiple
    of 8, and M the real form of the affine map, filled label by label:
    row 0 holds the means, 1.0 at the basepoint, and entry (b, a) of a
    spec's factor F, ``L.T`` scaled by sqrt(0.5) (``L.real.T`` in real
    mode), puts ``(Re F, Im F)`` in the row of the real part of normal b
    and ``(-Im F, Re F)`` in that of its imaginary part, in the
    ``[re, im]`` columns of label a.  With ``magnitudes`` V and M are
    replaced by their absolute values and each label's two columns are
    added, so each entry is a real bound of the absolute values of all the
    terms that make the sampled entry."""
    specs = (source.spec1, source.spec2) if isinstance(source, GluedRealization) else (source,)
    r = 1 if real_mode else 2
    height = -(-(1 + r * sum(spec.dim for spec in specs)) // 8) * 8
    width = 1 + sum(spec.dim for spec in specs)
    M = np.zeros((height, 2 * width))
    M[0, 2 * specs[0].basepoint_index] = 1.0
    row = 1
    for spec, columns in zip(specs, _label_columns(specs)):
        F = spec.factor.real.T if real_mode else spec.factor.T * math.sqrt(0.5)
        d = spec.dim
        for a, col in enumerate(columns):
            M[0, 2 * col], M[0, 2 * col + 1] = spec.mean[a].real, spec.mean[a].imag
            for b in range(d):
                M[row + b, 2 * col], M[row + b, 2 * col + 1] = F[b, a].real, F[b, a].imag
                if not real_mode:
                    M[row + d + b, 2 * col] = -F[b, a].imag
                    M[row + d + b, 2 * col + 1] = F[b, a].real
        row += r * d
    for normals in _reference_normals(source, n, seed, real_mode):
        k = normals[0].shape[1]
        V = np.vstack([np.ones((1, k))] + normals + [np.zeros((height - row, k))])
        if magnitudes:
            a = np.abs(V).T @ np.abs(M)
            yield a[:, 0::2] + a[:, 1::2]
        else:
            yield (V.T @ M).view(complex)


def affine_blocks(source, n, seed, real_mode=False):
    """The bands of ``sample_blocks`` by the affine formula ``mean + z @ F``
    in complex arithmetic, z the k x d complex normals ``re + 1j im`` of a
    spec (real ones in real mode) and F as in ``reference_blocks``, with
    the basepoint column of ones around the first spec's columns."""
    specs = (source.spec1, source.spec2) if isinstance(source, GluedRealization) else (source,)
    columns = _label_columns(specs)
    width = 1 + sum(spec.dim for spec in specs)
    for normals in _reference_normals(source, n, seed, real_mode):
        X = np.zeros((normals[0].shape[1], width), complex)
        X[:, specs[0].basepoint_index] = 1.0
        for spec, z, cols in zip(specs, normals, columns):
            if real_mode:
                X[:, cols] = spec.mean.real + z.T @ spec.factor.real.T
            else:
                z = z[: spec.dim] + 1j * z[spec.dim :]
                X[:, cols] = spec.mean + z.T @ (spec.factor.T * math.sqrt(0.5))
        yield X


def assert_moments_within_rounding(empirical, source, n, seed, real_mode=False):
    """``empirical`` is the moment kernel ``moments(source, n, seed,
    real_mode)`` within rounding.  Both are sums of the same n rows'
    ``X_s conj(X_t)``, rounded differently: the real and imaginary part of
    each entry of a row is a sum of at most 2d + 1 terms, d the label
    count, and a sum runs over the n rows and, after a map of the summed
    normals, over at most 2d + 8 terms twice.  Each side is then within
    about ``sqrt(2) (n + 4d + 16) eps`` (Higham 2002, ch. 3) of the exact
    sum of the rows' products, relative to ``S_st``, the sum over the
    rows of ``a_s a_t``, where a is a row of ``reference_blocks`` with
    ``magnitudes``, which bounds the terms of ``X``.  So the two agree
    within ``4 (n + 4d + 16) eps S_st / n``."""
    reference = moments(source, n, seed, real_mode)
    s = sum(a.T @ a for a in reference_blocks(source, n, seed, real_mode, True))
    d = len(reference.labels)
    bound = 4 * (n + 4 * d + 16) * np.finfo(float).eps * s / n
    assert empirical.labels == reference.labels
    excess = np.abs(empirical.entries - reference.entries) - bound
    assert np.all(excess <= 0), excess.max()


def isserlis_mc_tol(product, x0, n, real_mode=False):
    """The default ``mc_tol`` of ``verify_realization``, ``5 sqrt(v_max / n)``,
    with ``v_max`` by Isserlis' theorem in exact rational arithmetic, from
    the mean ``mu_s = P(s, x0)`` and covariance ``C = P - mu mu*`` of the
    glued realization: ``|mu_s|^2 C_tt + |mu_t|^2 C_ss + C_ss C_tt`` for
    circular complex draws, and ``mu_s^2 C_tt + mu_t^2 C_ss + 2 mu_s mu_t
    C_st + C_ss C_tt + C_st^2`` in real mode.  Only the last step, a square
    root of ``v_max / m^2`` with m the largest diagonal entry, is in floats."""
    p, i0 = product.entries, product.index(x0)
    fr = [[(Fraction(float(z.real)), Fraction(float(z.imag))) for z in row] for row in p]
    mu = [fr[s][i0] for s in range(len(p))]
    # the real part of C, all that either form reads
    c = [[fr[s][t][0] - mu[s][0] * mu[t][0] - mu[s][1] * mu[t][1] for t in range(len(p))]
         for s in range(len(p))]
    mod2 = [re * re + im * im for re, im in mu]
    v_max = None
    for s, t in itertools.product(range(len(p)), repeat=2):
        css, ctt, cst = c[s][s], c[t][t], c[s][t]
        v = mod2[s] * ctt + mod2[t] * css + css * ctt
        if real_mode:
            v += 2 * mu[s][0] * mu[t][0] * cst + cst**2
        v_max = v if v_max is None else max(v_max, v)
    m = max(row[s][0] for s, row in enumerate(fr))
    return 5.0 * float(m) * math.sqrt(max(float(v_max / m**2), 0.0) / n)


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
