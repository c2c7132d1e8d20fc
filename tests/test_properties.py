"""Invariants as properties over generated inputs.

Gluing preserves positive semidefiniteness and is associative, the
closed-form variance behind ``verify``'s default threshold is nonnegative
and at the glue point the Schur complement's diagonal, a glued
realization carries the product's labels in the product's order, the
moments ``verify`` maps from the Gram sum it draws are those of the
reference law's draws, real-mode rows have no -0.0 and a basepoint
column of exactly 1, a kernel
survives its JSON document bit for bit, and a tree glues to the same
kernel from any root and to the closed form of Haagerup's kernel on a
tree of edge kernels.  Away from the threshold, where rounding cannot
move a verdict, a certificate decided from eigenvalues alone gives the
verdict of a full eigendecomposition, and its witness.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    assert_law_moments_within_rounding,
    dump_document,
    edge_kernel_tree,
    haagerup_oracle,
    random_gram_kernel,
    reroot,
)
from kernelglue import (
    DEFAULT_PSD_TOL,
    GluedRealization,
    GluingTree,
    glue_tree,
    make_kernel,
    markov_product,
    mirror_upper,
    psd_check_eigen,
    sample_blocks,
    schur_reduce,
    verify_realization,
)
from kernelglue.fileio import kernel_from_document, kernel_to_document
from kernelglue.realization import _null_variance


@st.composite
def unit_psd_kernels(draw, prefix):
    """A PSD kernel ``V* V + I`` rescaled to exactly 1 at "x0", which sits
    at a drawn position among ``prefix``-named labels."""
    n = draw(st.integers(1, 6))
    parts = hnp.arrays(np.float64, (2, n, n), elements=st.floats(-10, 10))
    re, im = draw(parts)
    v = re + 1j * im
    g = mirror_upper(v.conj().T @ v + np.eye(n))
    labels = [f"{prefix}{i}" for i in range(n - 1)]
    labels.insert(draw(st.integers(0, n - 1)), "x0")
    i0 = labels.index("x0")
    c = g[i0, i0].real
    m = g.real / c + 1j * (g.imag / c)
    m[i0, i0] = 1.0
    return make_kernel(labels, m)


@settings(max_examples=150)
@given(unit_psd_kernels("a"), unit_psd_kernels("b"))
def test_markov_product_of_psd_kernels_is_psd(k1, k2):
    assert psd_check_eigen(k1).verdict and psd_check_eigen(k2).verdict
    assert psd_check_eigen(markov_product(k1, k2, "x0")).verdict


@settings(max_examples=150)
@given(unit_psd_kernels("a"), unit_psd_kernels("b"), st.booleans())
def test_null_variance_is_nonnegative_and_the_schur_diagonal_at_x0(k1, k2, real_mode):
    if real_mode:
        k1, k2 = (make_kernel(k.labels, k.entries.real) for k in (k1, k2))
    product = markov_product(k1, k2, "x0")
    m, v = _null_variance(product, "x0", real_mode)
    assert m == product.entries.diagonal().real.max()
    assert v.min() >= -1e-12
    # Y_s conj(Y_x0) is Y_s, whose variance is its covariance entry
    i0 = product.index("x0")
    rest = [i for i in range(product.dim) if i != i0]
    schur = schur_reduce(product, "x0").covariance.diagonal().real
    np.testing.assert_allclose(m**2 * v[i0, rest], schur, rtol=0, atol=1e-12 * m**2)
    np.testing.assert_allclose(m**2 * v[rest, i0], schur, rtol=0, atol=1e-12 * m**2)


@st.composite
def glue_chains(draw):
    """Three unit-diagonal PSD kernels: k1 and k2 share only "g12", k2 and k3
    only "g23", and each label order is drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernels = []
    for prefix, glue in (("a", ["g12"]), ("b", ["g12", "g23"]), ("c", ["g23"])):
        own = [f"{prefix}{j}" for j in range(draw(st.integers(0, 3)))]
        kernels.append(random_gram_kernel(rng, tuple(draw(st.permutations(glue + own)))))
    return kernels


@settings(max_examples=150)
@given(glue_chains())
def test_markov_product_is_associative(kernels):
    k1, k2, k3 = kernels
    left = markov_product(markov_product(k1, k2, "g12"), k3, "g23")
    right = markov_product(k1, markov_product(k2, k3, "g23"), "g12")
    assert sorted(right.labels) == sorted(left.labels)
    assert np.abs(right.restrict(left.labels).entries - left.entries).max() <= 1e-12


def _x0_at_every_position(k):
    """``k`` reordered with "x0" at each position in turn."""
    others = [label for label in k.labels if label != "x0"]
    return [k.restrict(others[:i] + ["x0"] + others[i:]) for i in range(k.dim)]


@settings(max_examples=50)
@given(unit_psd_kernels("a"), unit_psd_kernels("b"))
def test_glued_realization_labels_are_the_product_labels(k1, k2):
    specs = [[(k, schur_reduce(k, "x0")) for k in _x0_at_every_position(k)] for k in (k1, k2)]
    for a, spec1 in specs[0]:
        for b, spec2 in specs[1]:
            assert GluedRealization(spec1, spec2).labels == markov_product(a, b, "x0").labels


_POINT = make_kernel(["x0"], [[1.0]])


@settings(max_examples=40, deadline=None)
@given(unit_psd_kernels("a"), unit_psd_kernels("b"), st.booleans(),
       st.one_of(st.integers(2, 40), st.integers(2, 2**53)), st.integers(0, 2**64 - 1))
# a 1-label kernel, whose spec has no coordinate, on either side; n at q
# and q + 1, the last direct draw of the columns and the first of the law
@example(_POINT, random_gram_kernel(np.random.default_rng(1), ("b0", "x0", "b1")), False, 4, 0)
@example(_POINT, random_gram_kernel(np.random.default_rng(1), ("b0", "x0", "b1")), False, 5, 0)
@example(random_gram_kernel(np.random.default_rng(2), ("a0", "a1", "x0", "a2")), _POINT, True, 2,
         2**64 - 1)
def test_verify_moments_are_the_map_of_the_drawn_factor(k1, k2, real_mode, n, seed):
    # with "x0" first, in the middle and last in each kernel: a misplaced
    # column of the map from normals to rows moves an entry by O(1)
    if real_mode:
        k1, k2 = (make_kernel(k.labels, k.entries.real) for k in (k1, k2))
    ends = [[ks[i] for i in sorted({0, len(ks) // 2, len(ks) - 1})]
            for ks in map(_x0_at_every_position, (k1, k2))]
    for a in ends[0]:
        for b in ends[1]:
            report = verify_realization(a, b, "x0", n, seed, real_mode=real_mode)
            glued = GluedRealization(schur_reduce(a, "x0"), schur_reduce(b, "x0"))
            assert_law_moments_within_rounding(report.empirical, glued, n, seed, real_mode)


@settings(max_examples=40, deadline=None)
@given(unit_psd_kernels("a"), unit_psd_kernels("b"), st.integers(1, 1030),
       st.integers(0, 2**64 - 1))
# a 1-label kernel on either side, and a 1-row batch, which numpy runs as gemv
@example(_POINT, random_gram_kernel(np.random.default_rng(3), ("b0", "x0", "b1"), False), 1, 0)
@example(random_gram_kernel(np.random.default_rng(4), ("a0", "x0"), False), _POINT, 1026, 7)
def test_real_mode_rows_have_no_signed_zero_and_a_unit_basepoint(k1, k2, n, seed):
    # a row is V.T @ M, whose imaginary columns are sums of products with
    # zeros, some of them -0.0
    k1, k2 = (make_kernel(k.labels, k.entries.real) for k in (k1, k2))
    for a in _x0_at_every_position(k1):
        for b in _x0_at_every_position(k2):
            spec = schur_reduce(a, "x0")
            for source in (spec, GluedRealization(spec, schur_reduce(b, "x0"))):
                for X in sample_blocks(source, n, seed, real_mode=True):
                    assert not np.any(np.signbit(X.imag))
                    basepoint = X[:, spec.basepoint_index]
                    assert basepoint.tobytes() == np.ones(len(X), complex).tobytes()


_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1.7976931348623157e308]),
)


@st.composite
def hermitian_kernels(draw):
    """A finite Hermitian kernel whose upper triangle takes any drawn values."""
    n = draw(st.integers(1, 5))
    z = np.empty((n, n), dtype=np.complex128)
    z.real, z.imag = draw(hnp.arrays(np.float64, (2, n, n), elements=_values))
    return make_kernel([f"s{i}" for i in range(n)], mirror_upper(z))


@settings(max_examples=150)
@given(hermitian_kernels())
def test_kernel_document_round_trip_is_bitwise(k):
    back = kernel_from_document(json.loads(dump_document(kernel_to_document(k))))
    assert back.labels == k.labels
    assert back.entries.tobytes() == k.entries.tobytes()


@st.composite
def gluing_trees(draw):
    """A tree of unit-diagonal PSD kernels: node c > 0 hangs off a drawn
    earlier node through glue label ``g<c>``, and edges come in drawn order."""
    n_nodes = draw(st.integers(2, 8))
    parents = [draw(st.integers(0, c - 1)) for c in range(1, n_nodes)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    incident: dict[int, list[str]] = {i: [] for i in range(n_nodes)}
    for c, p in enumerate(parents, start=1):
        incident[p].append(f"g{c}")
        incident[c].append(f"g{c}")
    nodes = []
    for i in range(n_nodes):
        own = [f"n{i}p{j}" for j in range(draw(st.integers(0, 2)))]
        labels = draw(st.permutations(incident[i] + own))
        nodes.append(random_gram_kernel(rng, tuple(labels)))
    edges = draw(st.permutations([(p, c, f"g{c}") for c, p in enumerate(parents, start=1)]))
    return GluingTree(tuple(nodes), tuple(edges))


@settings(max_examples=100)
@given(gluing_trees(), st.data())
def test_glue_tree_is_traversal_independent(tree, data):
    base = glue_tree(tree)
    rerooted = glue_tree(reroot(tree, data.draw(st.integers(0, len(tree.nodes) - 1))))
    assert sorted(rerooted.labels) == sorted(base.labels)
    assert np.abs(rerooted.restrict(base.labels).entries - base.entries).max() <= 1e-12


def _conj(k):
    return make_kernel(k.labels, k.entries.conj())


@st.composite
def complex_glued_pairs(draw):
    """Two unit-diagonal PSD kernels with random complex entries off the
    diagonal, sharing only "x0", each label order drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        random_gram_kernel(rng, tuple(draw(st.permutations(
            ["x0"] + [f"{prefix}{j}" for j in range(draw(st.integers(1, 5)))]))))
        for prefix in "ab"
    ]


# Exact symmetries, compared in bytes.  Conjugation negates both factors'
# imaginary parts, so each product's real part is the same sum and its
# imaginary part the negated one; a zero imaginary part could take either
# sign, so the conjugation properties draw complex entries.

@settings(max_examples=150)
@given(complex_glued_pairs())
def test_markov_product_of_conjugates_is_the_conjugate(pair):
    k1, k2 = pair
    product = markov_product(k1, k2, "x0")
    conjugated = markov_product(_conj(k1), _conj(k2), "x0")
    assert conjugated.labels == product.labels
    assert conjugated.entries.tobytes() == product.entries.conj().tobytes()


@settings(max_examples=100)
@given(gluing_trees())
def test_glue_tree_of_conjugates_is_the_conjugate(tree):
    glued = glue_tree(tree)
    conjugated = glue_tree(GluingTree(tuple(map(_conj, tree.nodes)), tree.edges))
    assert conjugated.labels == glued.labels
    assert conjugated.entries.tobytes() == glued.entries.conj().tobytes()


@settings(max_examples=150)
@given(unit_psd_kernels("a"), unit_psd_kernels("b"), st.data())
def test_markov_product_of_permuted_operands_restricts_to_the_product(k1, k2, data):
    product = markov_product(k1, k2, "x0")
    p1, p2 = (data.draw(st.permutations(k.labels)) for k in (k1, k2))
    permuted = markov_product(k1.restrict(p1), k2.restrict(p2), "x0")
    assert permuted.restrict(product.labels).entries.tobytes() == product.entries.tobytes()


@st.composite
def vertex_trees(draw):
    """A parent array on 2 to 200 vertices and a complex q with 0.5 <= |q| <= 0.99."""
    n = draw(st.integers(2, 200))
    parents = [draw(st.integers(0, c - 1)) for c in range(1, n)]
    q = cmath.rect(draw(st.floats(0.5, 0.99)), draw(st.floats(-math.pi, math.pi)))
    return parents, q


@settings(max_examples=60)
@given(vertex_trees())
def test_edge_kernel_tree_glues_to_haagerup_closed_form(vertex_tree):
    parents, q = vertex_tree
    glued = glue_tree(edge_kernel_tree(parents, q))
    vertices = [f"v{v}" for v in range(len(parents) + 1)]
    deviation = np.abs(glued.restrict(vertices).entries - haagerup_oracle(parents, q))
    assert deviation.max() <= 1e-13


@st.composite
def near_threshold_kernels(draw):
    """A Hermitian kernel ``Q diag(w) Q*`` with a random unitary Q: the
    largest eigenvalue drawn from 1 to 1e4, the smallest ``c * tol`` times
    it, with ``c`` at least 0.01 away from the threshold -1, where rounding
    (about 1e-15 times the scale) cannot move a verdict."""
    n = draw(st.integers(2, 6))
    top = draw(st.floats(1.0, 1e4))
    c = draw(st.one_of(st.floats(-3.0, -1.01), st.floats(-0.99, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.concatenate([[c * DEFAULT_PSD_TOL * top], rng.uniform(0.0, top, n - 2), [top]])
    return make_kernel([f"s{i}" for i in range(n)], mirror_upper((q * w) @ q.conj().T))


@settings(max_examples=200)
@given(near_threshold_kernels())
def test_eigen_certificate_is_the_eigh_verdict(k):
    cert = psd_check_eigen(k)
    w, _ = np.linalg.eigh(k.entries)
    scale = max(1.0, float(np.abs(w).max()))
    assert cert.verdict == bool(w[0] >= -cert.tolerance_used * scale)
    assert abs(cert.min_eigenvalue - w[0]) <= 1e-12 * scale
    assert (cert.witness is None) == cert.verdict
    if not cert.verdict:
        q = float(np.real(cert.witness.conj() @ k.entries @ cert.witness))
        assert abs(q - cert.min_eigenvalue) <= 1e-12 * scale
