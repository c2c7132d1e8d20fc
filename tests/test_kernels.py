"""Kernel construction, Markov product, and the two PSD certification routes."""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    BAD_TOLERANCES,
    random_glued_pair,
    random_gram_kernel,
    random_unit_corner_hermitian,
)
from kernelglue import (
    DEFAULT_PSD_TOL,
    BasepointNotUnitError,
    DimensionMismatchError,
    DuplicateLabelError,
    GluingTree,
    IntersectionNotSingletonError,
    InvalidParameterError,
    LabelNotFoundError,
    NonFiniteError,
    NotHermitianError,
    NumericalFailureError,
    glue_tree,
    make_kernel,
    markov_product,
    mirror_upper,
    normalize_at_basepoint,
    psd_check_eigen,
    psd_check_schur,
    schur_reduce,
    verify_realization,
)

# Independently computed: eigenvalues of the 3x3 glued matrix for the
# c = 0.5, d = 0.5+0.5i pair (direct eigendecomposition of the
# hand-assembled matrix).
GLUED_3X3_MIN_EIG = 0.27036935015669783


class TestMakeKernel:
    def test_singleton_identity(self):
        k = make_kernel(["x0"], [[1.0 + 0.0j]])
        assert k.dim == 1
        assert k.entry("x0", "x0") == 1.0

    def test_valid_two_point(self):
        k = make_kernel(["x0", "a"], [[1, 0.5 + 0.2j], [0.5 - 0.2j, 1]])
        assert k.labels == ("x0", "a")
        assert k.entry("x0", "a") == 0.5 + 0.2j

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            make_kernel(["x0", "a"], [[1, 0.5], [0.4, 1]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            make_kernel(["a", "a"], np.eye(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            make_kernel(["a", "b"], np.eye(3))
        with pytest.raises(DimensionMismatchError):
            make_kernel(["a", "b"], np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError):
            make_kernel([], np.zeros((0, 0)))

    def test_non_finite_entries_rejected(self):
        # checked before conjugate symmetry, naming the first bad label pair
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 1)):
            m = np.eye(3, dtype=complex)
            m[1, 2] = bad
            m[2, 1] = np.conj(bad)
            with pytest.raises(NonFiniteError, match=r"\('b', 'c'\)"):
                make_kernel(["a", "b", "c"], m)
        with pytest.raises(NonFiniteError, match=r"\('a', 'a'\)"):
            make_kernel(["a"], [[np.nan]])

    def test_entries_are_locked(self):
        k = make_kernel(["a", "b"], np.eye(2))
        with pytest.raises(ValueError):
            k.entries[0, 0] = 5.0

    def test_restrict_reorders(self):
        k = make_kernel(["a", "b", "c"], np.diag([1.0, 2.0, 3.0]))
        r = k.restrict(["c", "a"])
        assert r.labels == ("c", "a")
        np.testing.assert_array_equal(r.entries, np.diag([3.0, 1.0]))

    def test_index_missing_label(self):
        k = make_kernel(["a"], [[1.0]])
        with pytest.raises(LabelNotFoundError):
            k.index("zz")

    def test_equality(self):
        k1 = make_kernel(["a", "b"], np.eye(2))
        k2 = make_kernel(["a", "b"], np.eye(2))
        k3 = make_kernel(["b", "a"], np.eye(2))
        assert k1 == k2
        assert k1 != k3

    def test_equality_with_another_type_is_not_implemented(self):
        k = make_kernel(["a"], [[1.0]])
        assert k.__eq__(k.entries) is NotImplemented
        assert k != ("a",)

    def test_repr_names_the_labels_and_dimension(self):
        assert repr(make_kernel(["a", "b"], np.eye(2))) == "IndexedKernel(labels=('a', 'b'), dim=2)"


class TestMirrorUpper:
    def test_result_exactly_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            out = mirror_upper(m)
            assert np.array_equal(out, out.conj().T)
            np.testing.assert_array_equal(out.diagonal().imag, np.zeros(5))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            mirror_upper(np.zeros((2, 3)))


class TestMarkovProduct:
    def test_cross_entry_that_overflows_is_a_numerical_failure(self):
        # K(a, x0) K(x0, b) = 1e400; numpy's warning stays inside, and the
        # finite operands are not blamed
        k1 = make_kernel(["x0", "a"], [[1, 1e200], [1e200, 1]])
        k2 = make_kernel(["x0", "b"], [[1, 1e200], [1e200, 1]])
        message = r"^the glued entry at \('a', 'b'\) overflows float64$"
        with pytest.raises(NumericalFailureError, match=message):
            markov_product(k1, k2, "x0")
        with pytest.raises(NumericalFailureError, match=message):
            glue_tree(GluingTree((k1, k2), ((0, 1, "x0"),)))

    def test_gluing_a_point_is_identity(self):
        k1 = make_kernel(["x0"], [[1.0]])
        k2 = make_kernel(["x0", "b"], [[1, 0.3 - 0.1j], [0.3 + 0.1j, 1]])
        assert markov_product(k1, k2, "x0") == k2
        assert markov_product(k2, k1, "x0") == k2

    def test_cross_entries_factor_through_glue_point(self):
        # K1(x0,a) = c = 0.5 and K2(x0,b) = d = 0.5+0.5i give the cross
        # entry (a,b) = K1(a,x0) K2(x0,b) = conj(c) d.
        c, d = 0.5, 0.5 + 0.5j
        k1 = make_kernel(["x0", "a"], [[1, c], [np.conj(c), 1]])
        k2 = make_kernel(["x0", "b"], [[1, d], [np.conj(d), 1]])
        prod = markov_product(k1, k2, "x0")
        assert prod.labels == ("x0", "a", "b")
        assert prod.entry("a", "b") == 0.25 + 0.25j
        assert prod.entry("b", "a") == 0.25 - 0.25j
        assert prod.entry("x0", "b") == d
        assert prod.entry("a", "x0") == np.conj(c)

    def test_glued_example_is_psd(self):
        c, d = 0.5, 0.5 + 0.5j
        k1 = make_kernel(["x0", "a"], [[1, c], [np.conj(c), 1]])
        k2 = make_kernel(["x0", "b"], [[1, d], [np.conj(d), 1]])
        cert = psd_check_eigen(markov_product(k1, k2, "x0"))
        assert cert.verdict
        assert cert.min_eigenvalue >= 0
        assert abs(cert.min_eigenvalue - GLUED_3X3_MIN_EIG) < 1e-12

    def test_restriction_is_bitwise(self):
        # bytes, not values: a real pair's +0.0 imaginary parts must not turn -0.0
        rng = np.random.default_rng(11)
        for complex_entries in [True] * 10 + [False] * 10:
            k1, k2 = random_glued_pair(rng, complex_entries=complex_entries)
            prod = markov_product(k1, k2, "x0")
            assert prod.restrict(k1.labels).entries.tobytes() == k1.entries.tobytes()
            assert prod.restrict(k2.labels).entries.tobytes() == k2.entries.tobytes()

    def test_cross_terms_factor_through_glue_point(self):
        rng = np.random.default_rng(12)
        k1, k2 = random_glued_pair(rng)
        prod = markov_product(k1, k2, "x0")
        ix0 = prod.index("x0")
        rows = [prod.index(u) for u in k1.labels if u != "x0"]
        cols = [prod.index(v) for v in k2.labels if v != "x0"]
        # the cross block is the elementwise product of the x0 column and
        # the x0 row, bitwise
        expected = np.outer(prod.entries[rows, ix0], prod.entries[ix0, cols])
        assert np.array_equal(prod.entries[np.ix_(rows, cols)], expected)
        # scalar recomputation agrees to rounding (FMA contraction in the
        # vectorized multiply can shift the last bit)
        for u in rows:
            for v in cols:
                direct = complex(prod.entries[u, ix0]) * complex(prod.entries[ix0, v])
                assert abs(complex(prod.entries[u, v]) - direct) < 1e-15

    def test_result_exactly_hermitian(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            k1, k2 = random_glued_pair(rng)
            e = markov_product(k1, k2, "x0").entries
            assert np.array_equal(e, e.conj().T)

    def test_no_shared_label_rejected(self):
        k1 = make_kernel(["a"], [[1.0]])
        k2 = make_kernel(["b"], [[1.0]])
        with pytest.raises(IntersectionNotSingletonError):
            markov_product(k1, k2, "a")

    def test_two_shared_labels_rejected(self):
        k1 = make_kernel(["x0", "y", "a"], np.eye(3))
        k2 = make_kernel(["x0", "y", "b"], np.eye(3))
        with pytest.raises(IntersectionNotSingletonError):
            markov_product(k1, k2, "x0")

    def test_wrong_glue_label_rejected(self):
        k1 = make_kernel(["x0", "a"], np.eye(2))
        k2 = make_kernel(["x0", "b"], np.eye(2))
        with pytest.raises(IntersectionNotSingletonError):
            markov_product(k1, k2, "a")

    def test_basepoint_not_unit_rejected(self):
        k1 = make_kernel(["x0", "a"], [[2.0, 0], [0, 1.0]])
        k2 = make_kernel(["x0", "b"], np.eye(2))
        with pytest.raises(BasepointNotUnitError):
            markov_product(k1, k2, "x0")
        with pytest.raises(BasepointNotUnitError):
            markov_product(k2, k1, "x0")

    def test_basepoint_tolerance_is_respected(self):
        k1 = make_kernel(["x0", "a"], [[1.0 + 5e-13, 0], [0, 1.0]])
        k2 = make_kernel(["x0", "b"], np.eye(2))
        markov_product(k1, k2, "x0")
        k1_off = make_kernel(["x0", "a"], [[1.0 + 5e-12, 0], [0, 1.0]])
        with pytest.raises(BasepointNotUnitError):
            markov_product(k1_off, k2, "x0")
        markov_product(k1_off, k2, "x0", basepoint_tol=1e-11)

    def test_basepoint_tolerance_validated(self):
        k1 = make_kernel(["x0", "a"], np.eye(2))
        k2 = make_kernel(["x0", "b"], np.eye(2))
        for bad in BAD_TOLERANCES:
            with pytest.raises(InvalidParameterError, match="basepoint_tol"):
                markov_product(k1, k2, "x0", basepoint_tol=bad)
            with pytest.raises(InvalidParameterError, match="basepoint_tol"):
                schur_reduce(k1, "x0", basepoint_tol=bad)
            with pytest.raises(InvalidParameterError, match="basepoint_tol"):
                glue_tree(GluingTree((k1,), ()), basepoint_tol=bad)

    def test_glue_point_off_corner(self):
        # the shared label need not sit first in either operand
        rng = np.random.default_rng(14)
        k1 = random_gram_kernel(rng, ("a0", "x0", "a1"))
        k2 = random_gram_kernel(rng, ("b0", "b1", "x0"))
        prod = markov_product(k1, k2, "x0")
        assert prod.labels == ("a0", "x0", "a1", "b0", "b1")
        assert np.array_equal(prod.restrict(k2.labels).entries, k2.entries)


class TestPsdCheckEigen:
    def test_identity_kernel(self):
        cert = psd_check_eigen(make_kernel(["a", "b", "c"], np.eye(3)))
        assert cert.verdict
        assert cert.min_eigenvalue == 1.0
        assert cert.witness is None

    def test_indefinite_two_by_two(self):
        # eigenvalues of [[1,2],[2,1]] are 1±2; the witness spans (1,-1)/sqrt(2)
        cert = psd_check_eigen(make_kernel(["a", "b"], [[1, 2], [2, 1]]))
        assert not cert.verdict
        assert abs(cert.min_eigenvalue - (-1.0)) < 1e-14
        w = cert.witness
        assert w is not None
        np.testing.assert_allclose(np.abs(w), [1 / np.sqrt(2)] * 2, atol=1e-14)
        np.testing.assert_allclose(w[0], -w[1], atol=1e-14)

    def test_witness_quadratic_form_is_negative(self):
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(50):
            k = random_unit_corner_hermitian(rng, int(rng.integers(2, 7)), psd=False)
            cert = psd_check_eigen(k)
            assert not cert.verdict
            q = float(np.real(cert.witness.conj() @ k.entries @ cert.witness))
            scale = max(1.0, float(np.abs(np.linalg.eigvalsh(k.entries)).max()))
            assert q < -cert.tolerance_used * scale
            np.testing.assert_allclose(q, cert.min_eigenvalue, rtol=1e-10)
            found += 1
        assert found == 50

    def test_gram_kernels_pass(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            labels = tuple(f"s{i}" for i in range(int(rng.integers(1, 8))))
            assert psd_check_eigen(random_gram_kernel(rng, labels)).verdict

    def test_eigensolver_failure_is_reported(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        # eigvalsh decides every kernel; eigh runs only for a failure's witness
        for solver, entries in (("eigvalsh", [[1.0]]), ("eigh", [[-1.0]])):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, solver, boom)
                with pytest.raises(NumericalFailureError):
                    psd_check_eigen(make_kernel(["a"], entries))

    def test_tolerance_validated(self):
        k = make_kernel(["s0", "a"], np.eye(2))
        for bad in BAD_TOLERANCES:
            with pytest.raises(InvalidParameterError, match="^tol "):
                psd_check_eigen(k, bad)
            with pytest.raises(InvalidParameterError, match="^tol "):
                psd_check_schur(schur_reduce(k, "s0", bad))


class TestOneEigenVerdict:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_bisected_threshold_has_one_verdict(self, complex_entries):
        # Q diag(w) Q*: bisecting w_min in [-4 tol, 0] ends within rounding
        # of the threshold -tol * scale, where eigvalsh and eigh can
        # decide differently; eigvalsh alone decides, and gives the
        # certificate's eigenvalue to the bit
        rng, tol = np.random.default_rng(2027), DEFAULT_PSD_TOL
        mismatches, verdicts = [], set()
        for trial in range(50):
            d = int(rng.integers(3, 12))
            a = rng.standard_normal((d, d))
            if complex_entries:
                a = a + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(a)
            w = np.concatenate([[0.0], rng.uniform(0.0, 1.0, d - 1)])
            labels = [f"t{i}" for i in range(d)]
            lo, hi = -4 * tol, 0.0
            for step in range(55):
                w[0] = (lo + hi) / 2
                k = make_kernel(labels, mirror_upper((q * w) @ q.conj().T))
                cert = psd_check_eigen(k, tol)
                lam = np.linalg.eigvalsh(k.entries)
                expected = bool(lam[0] >= -tol * max(1.0, float(np.abs(lam).max())))
                verdicts.add(cert.verdict)
                if (cert.verdict != expected
                        or cert.min_eigenvalue.hex() != float(lam[0]).hex()
                        or (cert.witness is None) != cert.verdict):
                    mismatches.append((trial, step))
                lo, hi = (lo, w[0]) if cert.verdict else (w[0], hi)
        assert mismatches == [] and verdicts == {True, False}


class TestToleranceTypes:
    """Every library tolerance is a real number other than a bool; a
    string, None, a bool or a complex number is one library error."""

    @staticmethod
    def checks(value):
        k = make_kernel(["x0", "a"], np.eye(2))
        k2 = make_kernel(["x0", "b"], np.eye(2))
        return {
            "tol": [lambda: psd_check_eigen(k, value), lambda: schur_reduce(k, "x0", value)],
            "basepoint_tol": [lambda: schur_reduce(k, "x0", basepoint_tol=value),
                              lambda: markov_product(k, k2, "x0", basepoint_tol=value),
                              lambda: glue_tree(GluingTree((k,), ()), basepoint_tol=value)],
            "mc_tol": [lambda: verify_realization(k, k2, "x0", 100, 0, mc_tol=value)],
        }

    @pytest.mark.parametrize("value", ["1e-9", None, True, False, np.True_, 1e-9j, [1e-9]])
    def test_non_real_tolerance_is_invalid_parameter(self, value):
        message = re.escape(f"must be finite and positive, got {value!r}")
        checks = self.checks(value)
        if value is None:
            del checks["mc_tol"]  # None asks for the default 5-sigma rule
        for name, calls in checks.items():
            for call in calls:
                with pytest.raises(InvalidParameterError, match=f"^{name} {message}$"):
                    call()

    @pytest.mark.parametrize("value", [1, np.float64(0.5), np.int64(1), Fraction(1, 2)])
    def test_real_tolerance_is_taken(self, value):
        for calls in self.checks(value).values():
            for call in calls:
                call()


class TestSchurReduce:
    def test_two_by_two_read_off(self):
        c = 0.3 + 0.4j
        k = make_kernel(["s0", "a"], [[1, c], [np.conj(c), 1]])
        spec = schur_reduce(k, "s0")
        assert spec.labels == ("a",) and spec.basepoint == "s0"
        np.testing.assert_array_equal(spec.mean, [np.conj(c)])
        np.testing.assert_array_equal(spec.covariance, [[1.0 - abs(c) ** 2]])

    def test_middle_basepoint_keeps_order(self):
        rng = np.random.default_rng(31)
        k = random_gram_kernel(rng, ("a", "s0", "b"))
        spec = schur_reduce(k, "s0")
        assert spec.labels == ("a", "b") and spec.basepoint_index == 1
        np.testing.assert_array_equal(spec.mean, [k.entry("a", "s0"), k.entry("b", "s0")])
        np.testing.assert_allclose(spec.covariance + np.outer(spec.mean, spec.mean.conj()),
                                   k.restrict(["a", "b"]).entries, rtol=0, atol=1e-15)

    def test_basepoint_not_unit(self):
        k = make_kernel(["s0", "a"], [[2.0, 0], [0, 1.0]])
        with pytest.raises(BasepointNotUnitError):
            schur_reduce(k, "s0")

    def test_missing_label(self):
        k = make_kernel(["s0"], [[1.0]])
        with pytest.raises(LabelNotFoundError):
            schur_reduce(k, "zz")

    def test_split_validation(self):
        # the split is checked where the kernel is: the corner by schur_reduce,
        # the shape and the symmetry by the kernel rule
        with pytest.raises(BasepointNotUnitError):
            schur_reduce(make_kernel(["s0", "a"], np.diag([2.0, 1.0])), "s0")
        with pytest.raises(DimensionMismatchError):
            schur_reduce(make_kernel(["s0", "a"], np.eye(3)), "s0")
        with pytest.raises(NotHermitianError):
            schur_reduce(make_kernel(["s0", "a", "b"], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]), "s0")


def bordered(alpha, block):
    """The kernel with unit corner at "s0", row ``alpha`` and ``block`` on "t0", "t1", ..."""
    n = len(alpha)
    m = np.eye(n + 1, dtype=complex)
    m[0, 1:], m[1:, 0], m[1:, 1:] = alpha, np.conj(alpha), block
    return make_kernel(["s0"] + [f"t{i}" for i in range(n)], m)


class TestPsdCheckSchur:
    def test_boundary_rank_one(self):
        # alpha = (0.6, 0.8): A - alpha* alpha has eigenvalues {0, 1}
        cert = psd_check_schur(schur_reduce(bordered([0.6, 0.8], np.eye(2)), "s0"))
        assert cert.verdict
        assert abs(cert.min_eigenvalue) < 1e-12

    def test_indefinite_rank_one(self):
        cert = psd_check_schur(schur_reduce(bordered([1.0, 1.0], np.eye(2)), "s0"))
        assert not cert.verdict
        assert abs(cert.min_eigenvalue - (-1.0)) < 1e-12

    def test_zero_alpha_matches_eigen_route(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            k = random_unit_corner_hermitian(rng, 4, psd=bool(rng.integers(2)))
            direct = psd_check_eigen(k)
            reduced = psd_check_schur(schur_reduce(bordered(np.zeros(4), k.entries), "s0"))
            assert reduced.verdict == direct.verdict
            np.testing.assert_allclose(reduced.min_eigenvalue, direct.min_eigenvalue,
                                       rtol=0, atol=1e-14)

    def test_agrees_with_eigen_route(self):
        # bordered matrix and Schur complement must deliver one verdict
        rng = np.random.default_rng(42)
        seen = {True: 0, False: 0}
        for trial in range(50):
            n = int(rng.integers(2, 10))
            k = random_unit_corner_hermitian(rng, n, psd=trial % 2 == 0)
            direct = psd_check_eigen(k)
            reduced = psd_check_schur(schur_reduce(k, k.labels[0]))
            assert direct.verdict == reduced.verdict
            seen[direct.verdict] += 1
        assert seen[True] > 0 and seen[False] > 0


class TestNormalizeAtBasepoint:
    def test_rescales_to_exact_unit(self):
        k = make_kernel(["x0", "a"], [[4.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]])
        out = normalize_at_basepoint(k, "x0")
        assert out.entry("x0", "x0") == 1.0
        assert out.entry("x0", "a") == 0.5 + 0.25j
        assert out.labels == k.labels

    def test_preserves_psd_verdict(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            base = random_gram_kernel(rng, ("x0", "a", "b"))
            scaled = make_kernel(base.labels, base.entries * 3.0)
            out = normalize_at_basepoint(scaled, "x0")
            assert psd_check_eigen(out).verdict

    def test_rejects_non_positive_corner(self):
        k = make_kernel(["x0", "a"], [[-1.0, 0], [0, 1.0]])
        with pytest.raises(BasepointNotUnitError):
            normalize_at_basepoint(k, "x0")

    def test_entry_that_overflows_is_a_numerical_failure(self):
        # 1e10 / 1e-300 is past float64; numpy's warning stays inside
        k = make_kernel(["x0", "a"], [[1e-300, 1e10], [1e10, 1]])
        with pytest.raises(NumericalFailureError,
                           match=r"^the normalized entry at \('x0', 'a'\) overflows float64$"):
            normalize_at_basepoint(k, "x0")

