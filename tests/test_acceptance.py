"""Acceptance gate: the seven product-level criteria, one test each.

Each test prints a single pass/fail line (visible via the -rP report
summary) and then asserts, so the suite both documents and enforces the
contract.
"""

from __future__ import annotations

import numpy as np

from helpers import (
    path_product_oracle,
    random_glued_pair,
    random_gluing_tree,
    random_gram_kernel,
    random_unit_corner_hermitian,
    reroot,
)
from kernelglue import (
    glue_tree,
    make_kernel,
    markov_product,
    psd_check_eigen,
    psd_check_schur,
    realize_process,
    schur_reduce,
    verify_realization,
)
from kernelglue.cli import main
from kernelglue.fileio import dump_document, kernel_to_document


def _verdict(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def test_criterion_1_products_of_psd_kernels_stay_psd():
    rng = np.random.default_rng(20240801)
    ok = True
    for _ in range(200):
        k1, k2 = random_glued_pair(rng, max_dim=8)
        cert = psd_check_eigen(markov_product(k1, k2, "x0"), 1e-8)
        ok = ok and cert.verdict
    _verdict("gluing preserves PSD (200 random pairs, tol 1e-8)", ok)


def test_criterion_2_eigen_and_schur_routes_agree():
    rng = np.random.default_rng(20240802)
    ok = True
    verdicts = {True: 0, False: 0}
    for trial in range(200):
        n = int(rng.integers(2, 10))
        k = random_unit_corner_hermitian(rng, n, psd=trial % 2 == 0)
        direct = psd_check_eigen(k)
        reduced = psd_check_schur(schur_reduce(k, k.labels[0]))
        ok = ok and (direct.verdict == reduced.verdict)
        verdicts[direct.verdict] += 1
    ok = ok and verdicts[True] > 0 and verdicts[False] > 0
    _verdict("eigen and Schur verdicts agree (200 mixed Hermitian)", ok)


def test_criterion_3_monte_carlo_reproduces_glued_kernel():
    k1 = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])
    k2 = make_kernel(["x0", "b"], [[1, 0.5 + 0.5j], [0.5 - 0.5j, 1]])
    passes = 0
    for seed in range(20):
        report = verify_realization(k1, k2, "x0", 10**6, seed=seed, mc_tol=0.01)
        passes += int(report.passed)
    _verdict(
        f"second moments within 0.01 at n=1e6 ({passes}/20 seeds, need 19)",
        passes >= 19,
    )


def test_criterion_4_restriction_identity_is_bitwise():
    rng = np.random.default_rng(20240804)
    ok = True
    for _ in range(50):
        k1, k2 = random_glued_pair(rng)
        product = markov_product(k1, k2, "x0")
        ok = ok and np.array_equal(product.restrict(k1.labels).entries, k1.entries)
        ok = ok and np.array_equal(product.restrict(k2.labels).entries, k2.entries)
    _verdict("product restricts bitwise to both operands (50 pairs)", ok)


def test_criterion_5_realization_covariance_equals_schur_complement():
    rng = np.random.default_rng(20240805)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        labels = [f"s{i}" for i in range(n - 1)]
        labels.insert(int(rng.integers(0, n)), "x0")
        k = random_gram_kernel(rng, tuple(labels))
        cov = realize_process(k, "x0").covariance
        reduced = schur_reduce(k, "x0").schur_complement()
        worst = max(worst, float(np.abs(cov - reduced).max()))
    _verdict(
        f"realization covariance matches Schur complement (worst {worst:.1e})",
        worst <= 1e-14,
    )


def test_criterion_6_tree_gluing_path_products_and_order_independence():
    rng = np.random.default_rng(20240806)
    worst_path = 0.0
    worst_order = 0.0
    for _ in range(50):
        tree = random_gluing_tree(rng, max_nodes=5, max_size=5)
        glued = glue_tree(tree)
        rerooted = glue_tree(reroot(tree, len(tree.nodes) - 1))
        for (u, v), expected in path_product_oracle(tree).items():
            worst_path = max(worst_path, abs(glued.entry(u, v) - expected))
        aligned = rerooted.restrict(glued.labels)
        worst_order = max(worst_order, float(np.abs(aligned.entries - glued.entries).max()))
    _verdict(
        f"tree cross entries are path products (worst {worst_path:.1e}) "
        f"and the root is immaterial (worst {worst_order:.1e})",
        worst_path <= 1e-12 and worst_order <= 1e-12,
    )


def test_criterion_7_negative_controls(tmp_path, capsys):
    bad_corner = {
        "labels": ["x0", "a"],
        "entries": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]],
    }
    good = make_kernel(["x0", "b"], [[1, 0.5], [0.5, 1]])
    p_bad = tmp_path / "bad.json"
    p_good = tmp_path / "good.json"
    p_bad.write_text(dump_document(bad_corner))
    p_good.write_text(dump_document(kernel_to_document(good)))
    code = main(["glue", str(p_bad), str(p_good), "--glue-label", "x0"])
    err = capsys.readouterr().err
    rejected = code == 2 and err.startswith("BasepointNotUnit")

    indefinite = make_kernel(["a", "b"], [[1, 2], [2, 1]])
    cert = psd_check_eigen(indefinite)
    w = cert.witness
    quad = float(np.real(w.conj() @ indefinite.entries @ w))
    witnessed = (not cert.verdict) and quad <= -1 + 1e-9

    _verdict(
        f"non-unit glue point rejected via CLI (exit {code}) and "
        f"indefinite witness quadratic form {quad:.12f} <= -1+1e-9",
        rejected and witnessed,
    )
