"""Iterated gluing along trees of kernels."""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from helpers import (
    edge_kernel_tree,
    path_product_oracle,
    random_gluing_tree,
    random_gram_kernel,
    reroot,
)
from kernelglue import (
    BasepointNotUnitError,
    GluingTree,
    IndexedKernel,
    IntersectionNotSingletonError,
    NotATreeError,
    glue_tree,
    make_kernel,
    markov_product,
    psd_check_eigen,
)


def correlation_kernel(a, b, c=0.5):
    return make_kernel([a, b], [[1, c], [c, 1]])


class TestGluingTreeValidation:
    def test_self_loop_rejected(self):
        k = correlation_kernel("x0", "a")
        with pytest.raises(NotATreeError):
            GluingTree((k,), ((0, 0, "a"),))

    def test_bad_node_index_rejected(self):
        k = correlation_kernel("x0", "a")
        with pytest.raises(NotATreeError):
            GluingTree((k,), ((0, 5, "a"),))

    def test_wrong_edge_count_rejected(self):
        k1 = correlation_kernel("x0", "a")
        k2 = correlation_kernel("a", "b")
        with pytest.raises(NotATreeError):
            glue_tree(GluingTree((k1, k2), ()))
        with pytest.raises(NotATreeError):
            glue_tree(GluingTree((k1, k2), ((0, 1, "a"), (1, 0, "a"))))

    def test_disconnected_rejected(self):
        # right edge count, but one edge repeated leaves node 2 unreached
        k1 = correlation_kernel("x0", "a")
        k2 = correlation_kernel("a", "b")
        k3 = correlation_kernel("b", "c")
        with pytest.raises(NotATreeError, match=r"do not connect nodes \[2\] to node 0"):
            GluingTree((k1, k2, k3), ((0, 1, "a"), (0, 1, "a")))

    @pytest.mark.parametrize("edge", [(False, True, "a"), (0, 1.7, "a"), (0.0, 1, "a")])
    def test_node_indices_must_be_integers(self, edge):
        nodes = (correlation_kernel("x0", "a"), correlation_kernel("a", "b"))
        with pytest.raises(NotATreeError, match=r"node indices must be integers"):
            GluingTree(nodes, (edge,))
        assert GluingTree(nodes, ((np.int64(0), 1, "a"),)).edges == ((0, 1, "a"),)

    def test_order_is_breadth_first_from_node_0(self):
        # 0 -a- 1, 1 -b- 2 -d- 4, 1 -c- 3 -e- 5; node 1 meets 3 before 2 in
        # the edge list, and depth first would place 4 before 5
        nodes = (
            correlation_kernel("x0", "a"),
            make_kernel(["a", "b", "c"], np.eye(3)),
            correlation_kernel("b", "d"),
            correlation_kernel("c", "e"),
            correlation_kernel("d", "f"),
            correlation_kernel("e", "g"),
        )
        edges = ((3, 5, "e"), (1, 3, "c"), (2, 4, "d"), (0, 1, "a"), (1, 2, "b"))
        tree = GluingTree(nodes, edges)
        assert tree.order == ((1, "a"), (3, "c"), (2, "b"), (5, "e"), (4, "d"))

    def test_edge_label_must_belong_to_both_endpoints(self):
        # node 0 = {a, x} has no "b", whichever order the edges come in
        nodes = (
            correlation_kernel("a", "x"),
            correlation_kernel("x", "b"),
            correlation_kernel("b", "c"),
        )
        for edges in (((0, 1, "x"), (0, 2, "b")), ((0, 2, "b"), (0, 1, "x"))):
            with pytest.raises(
                IntersectionNotSingletonError, match=r"edge \(0, 2, 'b'\): node 0 "
            ):
                GluingTree(nodes, edges)
        GluingTree(nodes, ((0, 1, "x"), (1, 2, "b")))

    def test_empty_tree_rejected(self):
        with pytest.raises(NotATreeError):
            glue_tree(GluingTree((), ()))


class TestGlueTree:
    def test_single_node_unchanged(self):
        rng = np.random.default_rng(1)
        k = random_gram_kernel(rng, ("x0", "a", "b"))
        assert glue_tree(GluingTree((k,), ())) == k

    def test_two_nodes_equal_binary_product(self):
        rng = np.random.default_rng(2)
        k1 = random_gram_kernel(rng, ("x0", "a"))
        k2 = random_gram_kernel(rng, ("a", "b", "c"))
        tree = GluingTree((k1, k2), ((0, 1, "a"),))
        assert glue_tree(tree) == markov_product(k1, k2, "a")

    def test_chain_cross_entry_is_path_product(self):
        # x0 -(.5)- a -(.5)- b -(.5)- c : entry (x0, c) = 0.5^3
        tree = GluingTree(
            (
                correlation_kernel("x0", "a"),
                correlation_kernel("a", "b"),
                correlation_kernel("b", "c"),
            ),
            ((0, 1, "a"), (1, 2, "b")),
        )
        result = glue_tree(tree)
        assert result.labels == ("x0", "a", "b", "c")
        assert result.entry("x0", "c") == 0.125
        assert result.entry("x0", "b") == 0.25
        assert psd_check_eigen(result).verdict

    def test_star_gluing(self):
        rng = np.random.default_rng(3)
        hub = random_gram_kernel(rng, ("g1", "g2", "g3", "h"))
        leaves = [random_gram_kernel(rng, (f"g{i}", f"leaf{i}")) for i in (1, 2, 3)]
        tree = GluingTree(
            (hub, *leaves), ((0, 1, "g1"), (0, 2, "g2"), (0, 3, "g3"))
        )
        result = glue_tree(tree)
        assert set(result.labels) == {"g1", "g2", "g3", "h", "leaf1", "leaf2", "leaf3"}
        # leaves talk to each other only through the hub
        expected = (
            leaves[0].entry("leaf1", "g1")
            * hub.entry("g1", "g2")
            * leaves[1].entry("g2", "leaf2")
        )
        assert abs(result.entry("leaf1", "leaf2") - expected) < 1e-12

    def test_path_products_on_random_trees(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            tree = random_gluing_tree(rng)
            result = glue_tree(tree)
            for (u, v), expected in path_product_oracle(tree).items():
                assert abs(result.entry(u, v) - expected) < 1e-12

    def test_traversal_order_independence(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            tree = random_gluing_tree(rng)
            base = glue_tree(tree)
            for r in range(len(tree.nodes)):
                rerooted = glue_tree(reroot(tree, r))
                assert set(rerooted.labels) == set(base.labels)
                aligned = rerooted.restrict(base.labels)
                assert np.abs(aligned.entries - base.entries).max() <= 1e-12

    def test_psd_preserved_on_random_trees(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            result = glue_tree(random_gluing_tree(rng))
            assert psd_check_eigen(result, 1e-8).verdict

    def test_propagates_gluing_errors(self):
        # edge label missing from an endpoint surfaces as an intersection error
        k1 = correlation_kernel("x0", "a")
        k2 = correlation_kernel("b", "c")
        with pytest.raises(IntersectionNotSingletonError):
            glue_tree(GluingTree((k1, k2), ((0, 1, "a"),)))
        # non-unit diagonal at the glue point
        k3 = make_kernel(["a", "b"], [[2.0, 0], [0, 1.0]])
        with pytest.raises(BasepointNotUnitError):
            glue_tree(GluingTree((k1, k3), ((0, 1, "a"),)))

    def test_non_unit_label_placed_earlier_rejected(self):
        # node 1 brings "b" with diagonal 2; node 2 is glued at "b" later
        nodes = (
            correlation_kernel("x0", "a"),
            make_kernel(["a", "b"], [[1.0, 0.5], [0.5, 2.0]]),
            correlation_kernel("b", "c"),
        )
        tree = GluingTree(nodes, ((0, 1, "a"), (1, 2, "b")))
        with pytest.raises(BasepointNotUnitError, match=r"\('b', 'b'\) is \(2\+0j\)"):
            glue_tree(tree)


def folded(tree):
    """Reference: the binary Markov product applied edge by edge."""
    result = tree.nodes[0]
    for v, label in tree.order:
        result = markov_product(result, tree.nodes[v], label)
    return result


class TestAssembly:
    def test_equals_edge_by_edge_fold_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            tree = random_gluing_tree(rng, max_nodes=10, max_size=6)
            for r in range(len(tree.nodes)):
                rerooted = reroot(tree, r)
                expected = folded(rerooted)
                result = glue_tree(rerooted)
                assert result.labels == expected.labels
                assert result.entries.tobytes() == expected.entries.tobytes()

    def test_builds_one_kernel(self, monkeypatch):
        nodes = tuple(correlation_kernel(f"c{i}", f"c{i + 1}", 0.9) for i in range(24))
        edges = tuple((i, i + 1, f"c{i + 1}") for i in range(23))
        tree = GluingTree(nodes, edges)
        built = []
        post_init = IndexedKernel.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(IndexedKernel, "__post_init__", counting)
        result = glue_tree(tree)
        assert len(built) == 1 and built[0] is result
        assert result.dim == 25


def test_edge_kernel_chain_matches_closed_form_at_scale():
    # v0 - v1 - ... - v1999, one edge kernel per step: K(v_i, v_j) = q^(j - i), i <= j
    q = 0.999 * cmath.exp(0.25j)
    tree = edge_kernel_tree(range(1999), q)
    pairs = np.random.default_rng(2000).integers(0, 2000, size=(400, 2))
    for glued in (glue_tree(tree), glue_tree(reroot(tree, len(tree.nodes) - 1))):
        index = {label: k for k, label in enumerate(glued.labels)}
        for i, j in pairs.tolist():
            expected = q ** (j - i) if i <= j else q.conjugate() ** (i - j)
            assert abs(glued.entries[index[f"v{i}"], index[f"v{j}"]] - expected) <= 1e-13
