"""Invariants as properties over generated inputs.

Gluing preserves positive semidefiniteness and is associative, a kernel
survives its JSON document bit for bit, and a tree glues to the same
kernel in either traversal order.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import random_gram_kernel
from kernelglue import (
    GluingTree,
    glue_tree,
    make_kernel,
    markov_product,
    mirror_upper,
    psd_check_eigen,
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
@given(gluing_trees())
def test_glue_tree_is_traversal_independent(tree):
    bfs = glue_tree(tree)
    dfs = glue_tree(tree, traversal="dfs")
    assert sorted(dfs.labels) == sorted(bfs.labels)
    assert np.abs(dfs.restrict(bfs.labels).entries - bfs.entries).max() <= 1e-12
