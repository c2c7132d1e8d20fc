"""Invariants as properties over generated inputs.

Gluing preserves positive semidefiniteness and is associative, a glued
realization carries the product's labels in the product's order, a kernel
survives its JSON document bit for bit, and a tree glues to the same
kernel from any root and to the closed form of Haagerup's kernel on a
tree of edge kernels.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import edge_kernel_tree, haagerup_oracle, random_gram_kernel, reroot
from kernelglue import (
    GluingTree,
    glue_realizations,
    glue_tree,
    make_kernel,
    markov_product,
    mirror_upper,
    psd_check_eigen,
    realize_process,
)
from kernelglue.fileio import dump_document, kernel_from_document, kernel_to_document


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
    specs = [[(k, realize_process(k, "x0")) for k in _x0_at_every_position(k)] for k in (k1, k2)]
    for a, spec1 in specs[0]:
        for b, spec2 in specs[1]:
            assert glue_realizations(spec1, spec2).labels == markov_product(a, b, "x0").labels


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
