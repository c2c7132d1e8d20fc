"""Gaussian realization specs, sampling, and second-moment verification."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    BAD_TOLERANCES,
    affine_blocks,
    assert_moments_within_rounding,
    count_solver_calls,
    draw,
    isserlis_mc_tol,
    moments,
    random_glued_pair,
    random_gram_kernel,
    random_unit_corner_hermitian,
    reference_blocks,
)
from kernelglue import (
    DEFAULT_PSD_TOL,
    BasepointMismatchError,
    BasepointNotUnitError,
    EmptyBatchError,
    GluedRealization,
    InvalidParameterError,
    LabelCollisionError,
    NotPsdError,
    NumericalFailureError,
    RealizationSpec,
    make_kernel,
    markov_product,
    mirror_upper,
    psd_check_eigen,
    psd_check_schur,
    sample_blocks,
    schur_reduce,
    verify_realization,
)
from kernelglue import realization
from kernelglue.fileio import sample_text
from kernelglue.realization import _BAND_ROWS


def two_point_kernel(c):
    return make_kernel(["x0", "a"], [[1, c], [np.conj(c), 1]])


def cd_pair():
    k1 = two_point_kernel(0.5)
    k2 = make_kernel(["x0", "b"], [[1, 0.5 + 0.5j], [0.5 - 0.5j, 1]])
    return k1, k2


def glued_pair(k1, k2):
    return GluedRealization(schur_reduce(k1, "x0"), schur_reduce(k2, "x0"))


def near_boundary_kernel(rng, kind):
    """Kernel with unit basepoint "s0" (at a random position) near the PSD boundary.

    "gram": rank-deficient Gram matrix with column norms from 1e-1 to 1e4;
    "shifted": the same with a +-(1e-13..1e-6)*scale shift of the other
    diagonal entries; "indefinite": clearly not PSD.
    """
    n = int(rng.integers(2, 8))
    labels = ["s0"] + [f"t{i}" for i in range(1, n)]
    if kind == "indefinite":
        k = make_kernel(labels, random_unit_corner_hermitian(rng, n, psd=False).entries)
    else:
        rank = int(rng.integers(1, n))
        v = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
        v = v / np.linalg.norm(v, axis=0) * 10.0 ** rng.uniform(-1, 4, n)
        v[:, 0] /= np.linalg.norm(v[:, 0])
        m = mirror_upper(v.conj().T @ v).copy()
        if kind == "shifted":
            scale = float(np.abs(m).max())
            shift = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13, -6) * scale
            m[np.arange(1, n), np.arange(1, n)] += shift
        m[0, 0] = 1.0
        k = make_kernel(labels, m)
    return k.restrict([labels[i] for i in rng.permutation(n)])


class TestRealizeProcess:
    def test_two_point_example(self):
        # c = 0.5: mean(a) = K(a, x0) = 0.5, cov = 1 - |c|^2 = 0.75
        spec = schur_reduce(two_point_kernel(0.5), "x0")
        assert spec.labels == ("a",)
        assert spec.basepoint == "x0"
        np.testing.assert_array_equal(spec.mean, [0.5])
        np.testing.assert_array_equal(spec.covariance, [[0.75]])

    def test_zero_alpha_keeps_block(self):
        entries = np.diag([1.0, 2.0, 3.0]).astype(complex)
        k = make_kernel(["x0", "a", "b"], entries)
        spec = schur_reduce(k, "x0")
        np.testing.assert_array_equal(spec.mean, np.zeros(2))
        np.testing.assert_array_equal(spec.covariance, np.diag([2.0, 3.0]))

    def test_rank_one_kernel_is_deterministic(self):
        # K(s,t) = v(s) conj(v(t)) with v(x0) = 1 has zero covariance
        rng = np.random.default_rng(3)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v[0] = 1.0
        k = make_kernel(["x0", "a", "b", "c"], mirror_upper(np.outer(v, v.conj())))
        spec = schur_reduce(k, "x0")
        assert np.all(spec.covariance == 0)
        np.testing.assert_array_equal(spec.mean, v[1:])

    def test_covariance_matches_schur_complement(self):
        # with the basepoint first, in the middle and last, the spec's
        # covariance is K(rest, rest) - K(rest, s0) K(s0, rest) mirrored
        # from the upper triangle
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            others = [f"s{i}" for i in range(n - 1)]
            k = random_gram_kernel(rng, tuple(others + ["x0"]))
            for i0 in (0, n // 2, n - 1):
                kernel = k.restrict(others[:i0] + ["x0"] + others[i0:])
                spec = schur_reduce(kernel, "x0")
                assert spec.labels == tuple(others)
                assert spec.basepoint_index == i0
                rest = [i for i in range(n) if i != i0]
                alpha = kernel.entries[i0, rest]
                assert spec.mean.tobytes() == alpha.conj().tobytes()
                expected = kernel.entries[np.ix_(rest, rest)] - np.outer(alpha.conj(), alpha)
                assert np.array_equal(np.triu(spec.covariance, 1), np.triu(expected, 1))
                assert np.array_equal(spec.covariance.diagonal(), expected.diagonal().real)

    def test_schur_complement_memory(self):
        # the 1,000-label complement is 15.3 MiB; the outer product, the
        # difference and a mirrored copy of it took the peak to 68 MiB
        k = random_gram_kernel(np.random.default_rng(12), tuple(f"s{i}" for i in range(1000)))
        tracemalloc.start()
        try:
            spec = schur_reduce(k, "s500")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.covariance.shape == (999, 999)
        assert peak < 40 * 2**20

    def test_reconstructs_kernel(self):
        rng = np.random.default_rng(6)
        k = random_gram_kernel(rng, ("a", "x0", "b", "c"))
        spec = schur_reduce(k, "x0")
        rebuilt = spec.covariance + np.outer(spec.mean, spec.mean.conj())
        block = k.restrict([l for l in k.labels if l != "x0"]).entries
        np.testing.assert_allclose(rebuilt, block, atol=1e-12)
        for label in spec.labels:
            assert k.entry(label, "x0") == spec.mean[spec.labels.index(label)]

    def test_rejects_non_psd_kernel(self):
        k = make_kernel(["x0", "a"], [[1, 2], [2, 1]])
        with pytest.raises(NotPsdError):
            schur_reduce(k, "x0").factor

    def test_rejects_non_unit_basepoint(self):
        k = make_kernel(["x0", "a"], [[2.0, 0], [0, 1.0]])
        with pytest.raises(BasepointNotUnitError):
            schur_reduce(k, "x0")

    def test_factor_reproduces_covariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            k = random_gram_kernel(rng, ("x0", "a", "b", "c", "d"))
            spec = schur_reduce(k, "x0")
            err = np.abs(spec.factor @ spec.factor.conj().T - spec.covariance).max()
            assert err <= 1e-10

    def test_factor_failure_on_indefinite_covariance(self):
        spec = RealizationSpec(("a",), "x0", [0.0], [[-1.0]])
        with pytest.raises(NotPsdError):
            spec.factor

    def test_covariance_that_does_not_factor_is_not_psd(self):
        # The full kernel clears its eigenvalue threshold (scale 1e8), but
        # its covariance 1e8 - 1 - 1e8 = -1 does not factor: it is below
        # -1e-9 times the bordered kernel's scale 1e8 - 1 too.
        k = make_kernel(["x0", "a"], [[1, 1e4], [1e4, 1e8 - 1]])
        assert psd_check_eigen(k).verdict
        expected = r"min eigenvalue -1.000000e\+00 below -1e-09\*1e\+08"
        with pytest.raises(NotPsdError, match=expected):
            schur_reduce(k, "x0").factor

    def test_tolerance_validated(self):
        k = two_point_kernel(0.5)
        for bad in BAD_TOLERANCES:
            with pytest.raises(InvalidParameterError, match="^tol "):
                schur_reduce(k, "x0", bad).factor
            with pytest.raises(InvalidParameterError, match="basepoint_tol"):
                schur_reduce(k, "x0", basepoint_tol=bad).factor
            with pytest.raises(InvalidParameterError, match="^tol "):
                RealizationSpec(("a",), "x0", [0.5], [[0.75]], tol=bad).factor

    def test_eigensolver_failure_is_reported(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        spec = RealizationSpec(("a",), "x0", [0.5], [[0.75]])
        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericalFailureError):
            spec.factor
        with pytest.raises(NumericalFailureError):
            schur_reduce(two_point_kernel(0.5), "x0").factor


class TestNearBoundaryGate:
    def test_realize_either_factors_or_rejects(self):
        # Factoring the covariance is the only PSD gate: every spec's
        # factor is usable or raises NotPsdError, never a late failure.
        # Thresholded at the bordered kernel's scale, no exactly PSD kernel
        # is refused (39 of the 700 "gram" ones were at the complement's own).
        rng = np.random.default_rng(20261018)
        outcomes = {}
        for trial in range(2100):
            kind = ("gram", "shifted", "indefinite")[trial % 3]
            k = near_boundary_kernel(rng, kind)
            spec = schur_reduce(k, "s0")
            try:
                spec.factor
            except NotPsdError:
                outcomes[kind, False] = outcomes.get((kind, False), 0) + 1
                continue
            outcomes[kind, True] = outcomes.get((kind, True), 0) + 1
            assert "factor" in vars(spec)
            assert spec.factor.shape == (k.dim - 1, k.dim - 1)
            assert np.isfinite(spec.factor).all()
        assert outcomes.get(("indefinite", True), 0) == 0
        assert outcomes.get(("gram", False), 0) == 0
        assert outcomes[("gram", True)] == 700 and outcomes[("shifted", False)] > 0


@pytest.fixture(scope="module")
def near_boundary_corpus():
    """The gate's 2,100 seeded kernels, then the real part of each."""
    rng = np.random.default_rng(20261018)
    kernels = [near_boundary_kernel(rng, ("gram", "shifted", "indefinite")[t % 3])
               for t in range(2100)]
    return kernels + [make_kernel(k.labels, k.entries.real) for k in kernels]


class TestOneSchurVerdict:
    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_certificate_passes_exactly_when_realize_does(self, near_boundary_corpus, tol):
        # the spec's certificate and its factor decide at the spec's tol
        mismatches, verdicts = [], set()
        for i, k in enumerate(near_boundary_corpus):
            certified = psd_check_schur(schur_reduce(k, "s0", tol)).verdict
            try:
                schur_reduce(k, "s0", tol).factor
                realized = True
            except NotPsdError:
                realized = False
            verdicts.add(realized)
            if certified != realized:
                mismatches.append((i, certified))
        assert mismatches == [] and verdicts == {True, False}

    def test_indefinite_spec_is_rejected_at_the_sampling_call(self):
        k = make_kernel(["x0", "b", "c"], [[1, 0.9, 0.9], [0.9, 1, -0.9], [0.9, -0.9, 1]])
        spec = schur_reduce(k, "x0")
        assert not psd_check_schur(spec).verdict
        with pytest.raises(NotPsdError) as realized:
            schur_reduce(k, "x0").factor
        glued = GluedRealization(schur_reduce(two_point_kernel(0.5), "x0"), spec)
        for source in (spec, glued):
            with pytest.raises(NotPsdError) as sampled:
                sample_blocks(source, 10, seed=0)
            assert str(sampled.value) == str(realized.value)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_bisected_threshold_has_one_verdict(self, complex_entries):
        # 1 (+) Q diag(w) Q*: the basepoint row is zero, so the spec's
        # covariance is Q diag(w) Q*.  Bisecting w_min in [-4 tol, 0] ends
        # within rounding of the threshold -tol * scale, where two
        # eigensolvers, or one on the real part and one on the complex
        # matrix, can decide differently.
        rng, tol = np.random.default_rng(2026), DEFAULT_PSD_TOL
        mismatches, verdicts = [], set()
        for trial in range(50):
            d = int(rng.integers(2, 11))
            a = rng.standard_normal((d, d))
            if complex_entries:
                a = a + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(a)
            w = np.concatenate([[0.0], rng.uniform(0.0, 1.0, d - 1)])
            labels = ["x0"] + [f"t{i}" for i in range(d)]
            lo, hi = -4 * tol, 0.0
            for step in range(55):
                w[0] = (lo + hi) / 2
                entries = np.zeros((d + 1, d + 1), complex)
                entries[0, 0], entries[1:, 1:] = 1.0, mirror_upper((q * w) @ q.conj().T)
                k = make_kernel(labels, entries)
                certified = psd_check_schur(schur_reduce(k, "x0", tol)).verdict
                try:
                    schur_reduce(k, "x0", tol).factor
                    realized = True
                except NotPsdError:
                    realized = False
                verdicts.add(certified)
                if certified != realized:
                    mismatches.append((trial, step))
                lo, hi = (lo, w[0]) if certified else (w[0], hi)
        assert mismatches == [] and verdicts == {True, False}

    @pytest.mark.parametrize("psd", [True, False])
    def test_one_eigendecomposition_per_spec(self, monkeypatch, psd):
        # the certificate, the factor and the sampler read one decision,
        # in any order and however often, passing or failing
        c = 0.9 if psd else -0.9
        k = make_kernel(["x0", "b", "c"], [[1, 0.9, 0.9], [0.9, 1, c], [0.9, c, 1]])
        calls = count_solver_calls(monkeypatch)

        def check(spec):
            assert psd_check_schur(spec).verdict == psd

        def factor(spec):
            try:
                assert spec.factor.shape == (2, 2)
            except NotPsdError:
                assert not psd

        def sample(spec):
            try:
                next(sample_blocks(spec, 10, seed=0))
            except NotPsdError:
                assert not psd

        for order in itertools.permutations((check, factor, sample)):
            calls.clear()
            spec = schur_reduce(k, "x0")
            for call in order + order:
                call(spec)
            assert calls == [("eigh", (2, 2))], order

    def test_tolerance_validated_at_construction(self):
        k = two_point_kernel(0.5)
        for bad in BAD_TOLERANCES:
            with pytest.raises(InvalidParameterError, match="^tol "):
                schur_reduce(k, "x0", bad)
            with pytest.raises(InvalidParameterError, match="^tol "):
                RealizationSpec(("a",), "x0", [0.5], [[0.75]], tol=bad)


class TestSampling:
    def test_deterministic_process(self):
        spec = RealizationSpec(("a", "b"), "x0", [0.5, 0.25j], np.zeros((2, 2)))
        labels, samples = draw(spec, 5, seed=0)
        assert labels == ("x0", "a", "b")
        expected = np.tile([1.0, 0.5, 0.25j], (5, 1))
        np.testing.assert_array_equal(samples, expected)

    def test_bitwise_reproducible(self):
        spec = schur_reduce(two_point_kernel(0.3 + 0.2j), "x0")
        _, b1 = draw(spec, 100, seed=123)
        _, b2 = draw(spec, 100, seed=123)
        assert np.array_equal(b1, b2)
        _, b3 = draw(spec, 100, seed=124)
        assert not np.array_equal(b1, b3)

    def test_basepoint_column_exactly_one(self):
        rng = np.random.default_rng(8)
        k = random_gram_kernel(rng, ("a", "x0", "b"))
        spec = schur_reduce(k, "x0")
        labels, samples = draw(spec, 50, seed=1)
        assert labels == ("a", "x0", "b")
        assert np.all(samples[:, 1] == 1.0)

    def test_column_mean_converges(self):
        spec = schur_reduce(two_point_kernel(0.5), "x0")
        _, samples = draw(spec, 10**6, seed=2024)
        # standard error is sqrt(0.75/n) ~ 0.00087; 0.005 is almost 6 sigma
        assert abs(samples[:, 1].mean() - 0.5) < 0.005

    def test_sample_count_validated(self):
        spec = schur_reduce(two_point_kernel(0.5), "x0")
        with pytest.raises(InvalidParameterError):
            sample_blocks(spec, 0, seed=0)

    def test_real_mode_requires_real_spec(self):
        spec = schur_reduce(two_point_kernel(0.5), "x0")
        _, samples = draw(spec, 100, seed=0, real_mode=True)
        assert np.all(samples.imag == 0.0)
        complex_spec = schur_reduce(two_point_kernel(0.5j), "x0")
        with pytest.raises(InvalidParameterError):
            sample_blocks(complex_spec, 100, seed=0, real_mode=True)

    def test_real_mode_matches_moments(self):
        spec = schur_reduce(two_point_kernel(0.5), "x0")
        m = moments(spec, 10**5, seed=9, real_mode=True)
        assert abs(m.entry("a", "x0") - 0.5) < 0.01
        assert abs(m.entry("a", "a") - 1.0) < 0.02

    def test_only_specs_and_glued_pairs_are_sampled(self):
        with pytest.raises(InvalidParameterError, match="cannot sample an object of type IndexedKernel"):
            sample_blocks(two_point_kernel(0.5), 10, seed=0)


class TestGluedRealization:
    def test_two_singletons(self):
        k = make_kernel(["x0"], [[1.0]])
        glued = glued_pair(k, k)
        assert glued.labels == ("x0",)
        _, samples = draw(glued, 10, seed=3)
        assert np.all(samples == 1.0)

    def test_label_order_matches_markov_product(self):
        rng = np.random.default_rng(10)
        k1, k2 = random_glued_pair(rng)
        assert glued_pair(k1, k2).labels == markov_product(k1, k2, "x0").labels

    def test_basepoint_mismatch(self):
        s1 = schur_reduce(make_kernel(["x0", "a"], np.eye(2)), "x0")
        s2 = schur_reduce(make_kernel(["y0", "b"], np.eye(2)), "y0")
        with pytest.raises(BasepointMismatchError):
            GluedRealization(s1, s2)

    def test_label_collision(self):
        s1 = schur_reduce(make_kernel(["x0", "a"], np.eye(2)), "x0")
        s2 = schur_reduce(make_kernel(["x0", "a"], np.eye(2)), "x0")
        with pytest.raises(LabelCollisionError):
            GluedRealization(s1, s2)

    def test_glued_sampling_reproducible(self):
        k1, k2 = cd_pair()
        glued = glued_pair(k1, k2)
        _, b1 = draw(glued, 200, seed=77)
        _, b2 = draw(glued, 200, seed=77)
        assert np.array_equal(b1, b2)

    def test_component_streams_differ(self):
        # the two specs must not share randomness even when identical
        k = two_point_kernel(0.5)
        k_b = make_kernel(["x0", "b"], [[1, 0.5], [0.5, 1]])
        _, samples = draw(glued_pair(k, k_b), 500, seed=5)
        assert not np.array_equal(samples[:, 1], samples[:, 2])

    def test_cross_moment_matches_product(self):
        k1, k2 = cd_pair()
        _, samples = draw(glued_pair(k1, k2), 10**6, seed=6)
        cross = (samples[:, 1] * samples[:, 2].conj()).mean()
        assert abs(cross - (0.25 + 0.25j)) < 0.01

    def test_swapping_operands_same_distribution(self):
        k1, k2 = cd_pair()
        m12 = moments(glued_pair(k1, k2), 200000, seed=8)
        m21 = moments(glued_pair(k2, k1), 200000, seed=9)
        aligned = m21.restrict(m12.labels)
        assert np.abs(aligned.entries - m12.entries).max() < 0.02


    def test_sample_count_validated(self):
        k1, k2 = cd_pair()
        with pytest.raises(InvalidParameterError):
            sample_blocks(glued_pair(k1, k2), 0, seed=0)


def golden_specs(real_mode):
    """Specs whose basepoint is neither first nor last in its kernel."""
    rng = np.random.default_rng(20261018)
    k1 = random_gram_kernel(rng, ("a0", "a1", "x0", "a2"), not real_mode)
    k2 = random_gram_kernel(rng, ("b0", "x0", "b1"), not real_mode)
    return schur_reduce(k1, "x0"), schur_reduce(k2, "x0")


def batch_digest(source, n, real_mode):
    """sha256 of the labels and the bytes of n rows drawn with seed 123."""
    labels, samples = draw(source, n, 123, real_mode)
    return hashlib.sha256(repr(labels).encode() + samples.tobytes()).hexdigest()


class TestGoldenSamples:
    """sha256 of labels and sample bytes, pinned so the draws stay bitwise stable."""

    SINGLE = {
        False: "859c20e88eccb5baff6ce28b8b700f2e720afc52c61d7637a937eb88eaa7f9d5",
        True: "d5053b03c8119bd427369fca23d84845b7278eca5ae559e4ad34dcc6d8045070",
    }
    GLUED = {
        False: "84b3dbc30b6fb84e879d6309ff914eb44948b1685574059f97ac0effc4474161",
        True: "0adcea4cac2eb2dfeaca15a8539c199886672668b196f061cbad0f30aadfdb62",
    }

    @pytest.mark.parametrize("real_mode", [False, True])
    def test_sample_realization(self, real_mode):
        spec1, _ = golden_specs(real_mode)
        assert batch_digest(spec1, 64, real_mode) == self.SINGLE[real_mode]

    @pytest.mark.parametrize("real_mode", [False, True])
    def test_sample_glued(self, real_mode):
        glued = GluedRealization(*golden_specs(real_mode))
        assert batch_digest(glued, 64, real_mode) == self.GLUED[real_mode]


class TestBlockStream:
    """Sampling runs in bands of ``_BAND_ROWS`` rows; these pin the stream
    across many band boundaries and tie ``verify_realization`` to it."""

    SINGLE = {
        False: "922ec1c16e80f19f5090a5272946e0c92b7c53dc9098598e0f3aa17ec4b1cdf7",
        True: "85710a0a6d41d761310b5a800b5c456b61ff8ebb3031b8801fd67fa0c8cb6381",
    }
    GLUED = {
        False: "cd028d61a1935379bb1bc72cc9506c11edd45ba9ab4d7c89b6b1922394463df1",
        True: "28c5ca548eb3437523c0f6956a1599bff3b4962f2f37fade48b85f0f260c035a",
    }

    @pytest.mark.parametrize("real_mode", [False, True])
    def test_sample_realization_across_blocks(self, real_mode):
        spec1, _ = golden_specs(real_mode)
        assert batch_digest(spec1, 16389, real_mode) == self.SINGLE[real_mode]

    @pytest.mark.parametrize("real_mode", [False, True])
    def test_sample_glued_across_blocks(self, real_mode):
        glued = GluedRealization(*golden_specs(real_mode))
        assert batch_digest(glued, 16389, real_mode) == self.GLUED[real_mode]

    @pytest.mark.parametrize("real_mode", [False, True])
    def test_verify_streams_the_sampled_batch(self, real_mode):
        rng = np.random.default_rng(2027)
        k1 = random_gram_kernel(rng, ("a0", "x0", "a1"), not real_mode)
        k2 = random_gram_kernel(rng, ("b0", "b1", "x0"), not real_mode)
        n = 32775  # 32 bands and a short one
        report = verify_realization(k1, k2, "x0", n, seed=31, real_mode=real_mode)
        assert_moments_within_rounding(report.empirical, glued_pair(k1, k2), n, 31, real_mode)
        expected = isserlis_mc_tol(report.product, "x0", n, real_mode)
        assert report.mc_tol == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert report.n_samples == n

    def test_verify_memory_does_not_hold_the_batch(self):
        rng = np.random.default_rng(404)
        k1 = random_gram_kernel(rng, ("x0",) + tuple(f"a{i}" for i in range(31)))
        k2 = random_gram_kernel(rng, ("x0",) + tuple(f"b{i}" for i in range(31)))
        tracemalloc.start()
        try:
            report = verify_realization(k1, k2, "x0", 200_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        # the whole 2e5 x 63 complex batch alone is 192 MiB
        assert peak < 150 * 2**20

    def test_verify_reuses_its_band_buffers(self):
        rng = np.random.default_rng(404)
        k1 = random_gram_kernel(rng, ("x0",) + tuple(f"a{i}" for i in range(31)))
        k2 = random_gram_kernel(rng, ("x0",) + tuple(f"b{i}" for i in range(31)))
        tracemalloc.start()
        try:
            report = verify_realization(k1, k2, "x0", 200_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        # the band buffer, 128 float rows of 1,025, is 1 MiB, and a draw
        # scratch besides took 0.5 MiB more; a 2**14-row block's zr took
        # the peak to 10.3 MiB, the 2**14 x 63 complex block that the sums
        # read to 24.7 MiB, a draw buffer of its own to 40 MiB and fresh
        # temporaries in every block to 55 MiB
        assert peak < 15 * 2**20

    @pytest.mark.parametrize("real_mode", [False, True])
    def test_verify_holds_no_block(self, real_mode):
        rng = np.random.default_rng(404)
        k1 = random_gram_kernel(rng, ("x0",) + tuple(f"a{i}" for i in range(31)), not real_mode)
        k2 = random_gram_kernel(rng, ("x0",) + tuple(f"b{i}" for i in range(31)), not real_mode)
        tracemalloc.start()
        try:
            report = verify_realization(k1, k2, "x0", 200_000, seed=5, real_mode=real_mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        # a band and its Gram sum peak at 1.9 MiB (1.1 MiB in real mode),
        # and 2.1 MiB with a draw scratch besides; the draws of a 2**14-row
        # block, held while its bands were placed, took the peak to
        # 10.3 MiB (and 13.7 MiB in real mode, products too)
        assert peak < 4 * 2**20

    def test_first_band_memory_does_not_grow_with_n(self):
        # the bands are made as they are drawn: at n = 10**10 a list of
        # the n/1,024 band edges alone would hold 390 MB before the first
        # band, and a list of 16,384-row block sizes held 5.5 MB
        spec = schur_reduce(two_point_kernel(0.5), "x0")
        spec.factor
        peaks = []
        for n in (10**6, 10**10):
            tracemalloc.start()
            try:
                bands = sample_blocks(spec, n, 0)
                next(bands)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**19, peaks

    def test_sample_text_holds_one_band(self):
        rng = np.random.default_rng(405)
        spec = schur_reduce(random_gram_kernel(rng, tuple(f"a{i}" for i in range(31)) + ("x0",)),
                            "x0")
        tracemalloc.start()
        try:
            size = sum(map(len, sample_text(spec.full_labels, 3, sample_blocks(spec, 50_000, 3))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 50_000 * 32 * 40
        # the text of a 2**14-row block and its floats as Python objects
        # took the peak to 79.5 MiB
        assert peak < 20 * 2**20

    def test_moment_sums_do_not_depend_on_the_blas_thread_count(self):
        # 99 and 141 glued labels are bands of 197 and 281 float rows
        # complex, 99 and 141 real, and maps of 198 and 282 float columns
        # unpadded: not a multiple of 8, which OpenBLAS sums in a
        # thread-dependent order, in the Gram sum and in the map of it
        # alike.  LAPACK's bits are pinned at no size; eigh gave these
        # kernels the same factor under one and two threads
        script = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from helpers import random_gram_kernel\n"
            "from kernelglue import GluedRealization, make_kernel, schur_reduce\n"
            "from kernelglue.realization import _draw_bands, _moment_sums\n"
            "d, real_mode = int(sys.argv[1]), sys.argv[2] == 'real'\n"
            "rng = np.random.default_rng(6)\n"
            "ks = [random_gram_kernel(rng, ('x0',) + tuple(f'{p}{i}' for i in range(d)))\n"
            "      for p in 'cd']\n"
            "if real_mode:\n"
            "    ks = [make_kernel(k.labels, k.entries.real) for k in ks]\n"
            "glued = GluedRealization(*(schur_reduce(k, 'x0') for k in ks))\n"
            "M, bands = _draw_bands(glued, 5000, 1, real_mode)\n"
            "empirical = _moment_sums(bands, M, glued.labels)\n"
            "print(hashlib.sha256(empirical.entries.tobytes()).hexdigest())\n"
        )
        tests, src = Path(__file__).parent, Path(realization.__file__).parents[1]
        for case in itertools.product(("49", "70"), ("complex", "real")):
            digests = []
            for threads in ("1", "2"):
                env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{tests}",
                           OPENBLAS_NUM_THREADS=threads)
                done = subprocess.run([sys.executable, "-c", script, *case], capture_output=True,
                                      text=True, env=env, timeout=300)
                assert (done.returncode, done.stderr) == (0, "")
                digests.append(done.stdout)
            assert digests[0] == digests[1], case

    @pytest.mark.parametrize("real_mode", [False, True])
    @pytest.mark.parametrize("n", [1, 1024, 1025, 1026, 2049, 16385, 33795])
    def test_no_band_is_longer_than_a_band_and_a_row(self, n, real_mode):
        glued = GluedRealization(*golden_specs(real_mode))
        sizes = [len(band) for band in sample_blocks(glued, n, seed=1, real_mode=real_mode)]
        assert sum(sizes) == n
        assert max(sizes) <= _BAND_ROWS + 1

    @pytest.mark.parametrize("real_mode", [False, True])
    @pytest.mark.parametrize("larger_first", [True, False])
    def test_scratch_is_shared_by_specs_of_unequal_size(self, real_mode, larger_first):
        # the two specs draw in turn into one band buffer, the larger first
        # or second
        rng = np.random.default_rng(2028)
        big = random_gram_kernel(rng, ("a0", "a1", "x0", "a2", "a3"), not real_mode)
        small = random_gram_kernel(rng, ("x0", "b0"), not real_mode)
        k1, k2 = (big, small) if larger_first else (small, big)
        n = 32775
        report = verify_realization(k1, k2, "x0", n, seed=17, real_mode=real_mode)
        assert_moments_within_rounding(report.empirical, glued_pair(k1, k2), n, 17, real_mode)

    def test_argument_errors_come_before_any_draw(self, monkeypatch):
        k1, k2 = cd_pair()
        complex_k = make_kernel(["x0", "c"], [[1, 0.5j], [-0.5j, 1]])

        def no_draws(*args, **kwargs):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr(realization, "_draw_bands", no_draws)
        with pytest.raises(InvalidParameterError):
            verify_realization(k1, k2, "x0", 0, seed=0)
        with pytest.raises(EmptyBatchError):
            verify_realization(k1, k2, "x0", 1, seed=0)
        with pytest.raises(InvalidParameterError, match="real mode"):
            verify_realization(k1, complex_k, "x0", 100, seed=0, real_mode=True)


class TestReferenceSampler:
    """The banded sampler yields the bands of the per-band formula on
    fresh arrays, bit for bit, and those of the affine formula ``mean +
    z @ F`` within rounding, with the basepoint first, in the middle and
    last, at band edges and past 16,384 rows, in both modes; a glued pair
    adds the middle spec to a second one."""

    SIZES = (1, 2, 1025, 1026, 16385, 17409)

    @staticmethod
    def sources(d, real_mode):
        rng = np.random.default_rng(d)
        sources = []
        for i in sorted({0, d // 2, d}):
            labels = [f"a{j}" for j in range(d)]
            labels.insert(i, "x0")
            spec = schur_reduce(random_gram_kernel(rng, tuple(labels), not real_mode), "x0")
            assert spec.basepoint_index == i
            sources.append(spec)
        other = random_gram_kernel(rng, ("x0",) + tuple(f"b{j}" for j in range(d)), not real_mode)
        sources.append(GluedRealization(sources[len(sources) // 2], schur_reduce(other, "x0")))
        return sources

    @pytest.mark.parametrize("real_mode", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 31, 32, 40])
    def test_blocks_equal_the_whole_block_formula(self, d, real_mode):
        for source in self.sources(d, real_mode):
            for n in self.SIZES:
                got = sample_blocks(source, n, seed=n, real_mode=real_mode)
                want = reference_blocks(source, n, n, real_mode)
                for band, expected in zip(got, want, strict=True):
                    assert band.tobytes() == expected.tobytes(), (source, n)

    @pytest.mark.parametrize("real_mode", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 31, 40])
    def test_bands_are_the_affine_formula_within_rounding(self, d, real_mode):
        # each part of an entry is a sum of at most 2d' + 1 terms, d' the
        # label count, bounded by the entry of the magnitude bands
        eps = np.finfo(float).eps
        for source in self.sources(d, real_mode):
            width = len(source.labels if isinstance(source, GluedRealization)
                        else source.full_labels)
            for n in (1, 1026):
                got = sample_blocks(source, n, seed=n, real_mode=real_mode)
                want = affine_blocks(source, n, n, real_mode)
                size = reference_blocks(source, n, n, real_mode, magnitudes=True)
                for band, expected, a in zip(got, want, size, strict=True):
                    excess = np.abs(band - expected) - 4 * (2 * width + 2) * eps * a
                    assert np.all(excess <= 0), (source, n, excess.max())


class TestCircularDraws:
    """Complex draws are circular: their real and imaginary parts are
    independent with equal variance, which the second moments alone do
    not show; real-mode draws have no imaginary part."""

    def test_complex_pseudo_covariance_is_zero(self):
        rng = np.random.default_rng(2029)
        spec = schur_reduce(random_gram_kernel(rng, ("a0", "a1", "x0", "a2", "a3", "a4")), "x0")
        n = 40_000
        _, samples = draw(spec, n, 9)
        centered = np.delete(samples, spec.basepoint_index, axis=1) - spec.mean
        pseudo = centered.T @ centered / n
        # Var(Z_s Z_t) = C_ss C_tt + |C_st|^2 for circular Z (Isserlis)
        c = spec.covariance
        se = np.sqrt((np.outer(c.diagonal().real, c.diagonal().real) + np.abs(c) ** 2) / n)
        assert np.all(np.abs(pseudo) <= 5 * se), np.max(np.abs(pseudo) / se)

    @pytest.mark.parametrize("glued", [False, True])
    def test_real_mode_imaginary_parts_are_zero(self, glued):
        spec1, spec2 = golden_specs(real_mode=True)
        _, samples = draw(GluedRealization(spec1, spec2) if glued else spec1, 2049, 9, True)
        assert np.all(samples.imag == 0.0)

class TestCountCheck:
    """Every sampling entry point takes a sample count that is an integer
    of at least 1, and rejects anything else with one library error."""

    @staticmethod
    def draws(n):
        k1, k2 = cd_pair()
        spec = schur_reduce(k1, "x0")
        glued = GluedRealization(spec, schur_reduce(k2, "x0"))
        return {
            "sample_blocks": lambda: draw(spec, n, 0)[1],
            "sample_blocks of a glued pair": lambda: draw(glued, n, 0)[1],
            "verify_realization": lambda: verify_realization(k1, k2, "x0", n, 0).empirical.entries,
        }

    @pytest.mark.parametrize(
        "n, message",
        [
            (0, "sample count must be >= 1, got 0"),
            (-3, "sample count must be >= 1, got -3"),
            (np.int64(0), "sample count must be >= 1, got 0"),
            (2.5, "sample count must be an integer, got 2.5"),
            (10.0, "sample count must be an integer, got 10.0"),
            (True, "sample count must be an integer, got True"),
            ("3", "sample count must be an integer, got '3'"),
            (None, "sample count must be an integer, got None"),
        ],
    )
    def test_bad_count_is_invalid_parameter(self, n, message):
        for draw in self.draws(n).values():
            with pytest.raises(InvalidParameterError, match=re.escape(message)):
                draw()

    @pytest.mark.parametrize("n", [2, 16385])
    def test_numpy_integers_draw_as_their_value(self, n):
        for (name, draw), same in zip(self.draws(n).items(), self.draws(np.int64(n)).values()):
            assert np.array_equal(draw(), same()), name


class TestSeedCheck:
    """Every sampling entry point takes the CLI's seeds, unsigned 64-bit
    integers, and rejects anything else with one library error."""

    @staticmethod
    def draws(seed):
        k1, k2 = cd_pair()
        spec = schur_reduce(k1, "x0")
        glued = GluedRealization(spec, schur_reduce(k2, "x0"))
        return {
            "sample_blocks": lambda: draw(spec, 10, seed)[1],
            "sample_blocks of a glued pair": lambda: draw(glued, 10, seed)[1],
            "verify_realization": lambda: verify_realization(k1, k2, "x0", 10, seed).empirical.entries,
        }

    @pytest.mark.parametrize("seed", [-1, 1.5, 2**64, True, np.int64(-1), "3", None])
    def test_bad_seed_is_invalid_parameter(self, seed):
        message = re.escape(f"seed must fit in 64 unsigned bits, got {seed!r}")
        for draw in self.draws(seed).values():
            with pytest.raises(InvalidParameterError, match=message):
                draw()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_numpy_integers_draw_as_their_value(self, seed):
        for (name, draw), same in zip(self.draws(seed).items(), self.draws(np.uint64(seed)).values()):
            assert np.array_equal(draw(), same()), name


class TestMomentSums:
    """The one moment sum, ``_moment_sums``, as ``verify_realization``
    reports it in ``empirical``."""

    def test_deterministic_batch_gives_exact_kernel(self):
        # rank-one kernels with a unit basepoint have zero covariance
        k1 = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 0.25]])
        k2 = make_kernel(["x0", "b"], [[1, 0.5j], [-0.5j, 0.25]])
        report = verify_realization(k1, k2, "x0", 10, seed=0)
        assert np.array_equal(report.empirical.entries, report.product.entries)
        assert report.empirical.entry("a", "b") == 0.25j
        assert report.max_abs_deviation == 0.0

    def test_output_is_hermitian_and_psd(self):
        rng = np.random.default_rng(11)
        k1 = random_gram_kernel(rng, ("x0", "a", "b"))
        k2 = random_gram_kernel(rng, ("c", "x0"))
        m = verify_realization(k1, k2, "x0", 1000, seed=12).empirical
        assert np.array_equal(m.entries, m.entries.conj().T)
        assert psd_check_eigen(m).verdict

    def test_basepoint_moment_exact(self):
        k1, k2 = cd_pair()
        for n in (2, 3, 17, 1000):
            assert verify_realization(k1, k2, "x0", n, seed=n).empirical.entry("x0", "x0") == 1.0

    def test_needs_two_rows(self):
        k1, k2 = cd_pair()
        with pytest.raises(EmptyBatchError):
            verify_realization(k1, k2, "x0", 1, seed=0)

    def test_finite_entries_that_overflow_are_a_numerical_failure(self):
        # two bands of padded normals [1, 0...] in columns, mapped to the
        # rows [1, 2] as [re, im] columns; the sum counts their rows itself
        bands = [np.zeros((8, k)) for k in (2, 3)]
        for band in bands:
            band[0] = 1.0
        M = np.eye(8)
        M[0, :4] = [1, 0, 2, 0]
        assert realization._moment_sums(bands, M, ("x0", "a")).entry("a", "a") == 4.0
        M[0, 2] = 1e200
        with pytest.raises(NumericalFailureError, match=r"second-moment sum at \('a', 'a'\)"):
            realization._moment_sums(bands, M, ("x0", "a"))


class TestVerifyRealization:
    def test_example_pair_passes(self):
        k1, k2 = cd_pair()
        report = verify_realization(k1, k2, "x0", 10**6, seed=0, mc_tol=0.01)
        assert report.passed
        assert report.certificate.verdict
        assert report.max_abs_deviation <= 0.01
        assert report.n_samples == 10**6
        assert report.product.labels == report.empirical.labels

    def test_default_tolerance_is_five_sigma(self):
        k1, k2 = cd_pair()
        report = verify_realization(k1, k2, "x0", 50000, seed=1)
        # default mc_tol = 5 sqrt(v_max/n) with v_max about 0.9 here
        assert 0.001 < report.mc_tol < 0.05
        assert report.passed

    def test_fails_with_unreachable_tolerance(self):
        k1, k2 = cd_pair()
        report = verify_realization(k1, k2, "x0", 1000, seed=2, mc_tol=1e-9)
        assert not report.passed
        assert report.max_abs_deviation > 1e-9

    def test_propagates_basepoint_error(self):
        bad = make_kernel(["x0", "a"], [[2.0, 0], [0, 1.0]])
        k2 = make_kernel(["x0", "b"], np.eye(2))
        with pytest.raises(BasepointNotUnitError):
            verify_realization(bad, k2, "x0", 100, seed=0)

    def test_mc_tol_validated(self):
        k1, k2 = cd_pair()
        for bad in BAD_TOLERANCES:
            with pytest.raises(InvalidParameterError, match="mc_tol"):
                verify_realization(k1, k2, "x0", n=100, seed=0, mc_tol=bad)

    def test_two_eigendecompositions(self, monkeypatch):
        # one eigh per operand's covariance, which certifies the operand,
        # gives the product's certificate and factors it for sampling; the
        # product itself is not decomposed; a call of either solver is counted
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        k1, k2 = cd_pair()
        verify_realization(k1, k2, "x0", n=1000, seed=0)
        assert calls == [("eigh", (1, 1)), ("eigh", (1, 1))]

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_certificate_is_the_schur_certificate_of_the_product(self, seed):
        # P's Schur complement at x0 is C1 (+) C2, so its certificate is
        # the operand certificate with the smaller eigenvalue
        rng = np.random.default_rng(seed)
        k1, k2 = random_glued_pair(rng)
        report = verify_realization(k1, k2, "x0", 100, seed=0, tol=1e-8)
        operands = [psd_check_schur(schur_reduce(k, "x0", 1e-8)) for k in (k1, k2)]
        cert = report.certificate
        assert cert.min_eigenvalue == min(c.min_eigenvalue for c in operands)
        assert (cert.verdict, cert.witness, cert.tolerance_used) == (True, None, 1e-8)
        covariance = schur_reduce(report.product, "x0").covariance
        assert cert.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(covariance)[0],
                                                    rel=0.0, abs=1e-12)

    def test_arguments_are_checked_before_any_solve(self, monkeypatch):
        k1, k2 = cd_pair()
        real = make_kernel(["x0", "b"], [[1, 0.5], [0.5, 1]])
        bad = [
            (dict(n=0), InvalidParameterError, "sample count must be >= 1"),
            (dict(n=1), EmptyBatchError, "need at least 2 rows"),
            (dict(n=2.5), InvalidParameterError, "sample count must be an integer"),
            (dict(seed=-1), InvalidParameterError, "seed must fit"),
            (dict(real_mode="no"), InvalidParameterError, "real_mode must be a bool"),
            (dict(real_mode=True), InvalidParameterError, "real mode requires"),
        ]
        calls = count_solver_calls(monkeypatch)
        for change, error, message in bad:
            args = dict(n=100, seed=0, real_mode=False) | change
            with pytest.raises(error, match=message):
                verify_realization(k1, k2, "x0", args["n"], args["seed"],
                                   real_mode=args["real_mode"])
            assert calls == [], change
        # a truthy string is not a bool, and does not switch real mode on
        with pytest.raises(InvalidParameterError, match="real_mode must be a bool, got 'no'"):
            sample_blocks(schur_reduce(real, "x0"), 10, 0, real_mode="no")
        assert calls == []
        report = verify_realization(k1, real, "x0", 100, 0, real_mode=np.True_)
        assert report.n_samples == 100

    def test_rejects_zero_samples(self):
        k1, k2 = cd_pair()
        with pytest.raises(InvalidParameterError):
            verify_realization(k1, k2, "x0", 0, seed=0)

    def test_report_is_deterministic(self):
        k1, k2 = cd_pair()
        r1 = verify_realization(k1, k2, "x0", 5000, seed=3)
        r2 = verify_realization(k1, k2, "x0", 5000, seed=3)
        assert r1.max_abs_deviation == r2.max_abs_deviation
        assert np.array_equal(r1.empirical.entries, r2.empirical.entries)

    def test_centered_columns_nearly_independent(self):
        k1, k2 = cd_pair()
        _, samples = draw(glued_pair(k1, k2), 10**5, seed=4)
        a = samples[:, 1] - samples[:, 1].mean()
        b = samples[:, 2] - samples[:, 2].mean()
        assert abs((a * b.conj()).mean()) < 0.02

    @pytest.mark.parametrize(
        "corner, mc_tol, order",
        # |X_a|**2 near 1.5e305 overflows the Gram sum
        [(1.5e305, None, "second"), (1.5e305, 0.1, "second")],
    )
    def test_moment_sum_overflow_names_the_pair(self, corner, mc_tol, order):
        k1 = make_kernel(["x0", "a"], [[1, 1], [1, corner]])
        _, k2 = cd_pair()
        with pytest.raises(NumericalFailureError, match=f"the {order}-moment sum at \\('a', 'a'\\)"):
            verify_realization(k1, k2, "x0", 10_000, seed=0, mc_tol=mc_tol)

    def test_default_mc_tol_is_the_closed_form_at_a_large_corner(self):
        # v_max is near 1e320 here, past float64: the closed form is taken
        # over the largest diagonal entry squared
        k1 = make_kernel(["x0", "a"], [[1, 1], [1, 1e160]])
        _, k2 = cd_pair()
        report = verify_realization(k1, k2, "x0", 10_000, seed=0)
        assert math.isfinite(report.mc_tol)
        assert report.mc_tol == pytest.approx(isserlis_mc_tol(report.product, "x0", 10_000),
                                              rel=1e-12, abs=0.0)
        assert report.passed


class TestNullVariance:
    """The variance behind the default ``mc_tol`` is taken in closed form
    from the product; it agrees with the fourth-moment estimate of the
    draws that it replaced."""

    @pytest.mark.parametrize("real_mode", [False, True])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_closed_form_matches_the_fourth_moment_estimate(self, seed, real_mode):
        rng = np.random.default_rng(seed)
        k1 = random_gram_kernel(rng, ("x0",) + tuple(f"a{i}" for i in range(5)), not real_mode)
        k2 = random_gram_kernel(rng, ("b0", "b1", "x0", "b2", "b3", "b4"), not real_mode)
        n, second, quartic = 400_000, 0.0, 0.0
        for band in sample_blocks(glued_pair(k1, k2), n, seed, real_mode=real_mode):
            X = band.copy()
            a2 = np.abs(X) ** 2
            second = second + X.T @ X.conj()
            quartic = quartic + a2.T @ a2
        estimate = quartic / n - np.abs(second / n) ** 2
        m, v = realization._null_variance(markov_product(k1, k2, "x0"), "x0", real_mode)
        # the estimate's own sampling error: its worst entry was off by
        # 0.86-1.42% of v_max at these seeds
        assert np.abs(estimate - m**2 * v).max() <= 0.03 * m**2 * v.max()
