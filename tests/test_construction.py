"""One construction rule for every value type, and no verdict on overflowed eigenvalues.

Every value type takes its labels and complex arrays through the same
checks: distinct labels, the expected shape, finite entries and exact
conjugate symmetry, with errors that name entries by label.  An array
the package locked, or a read-only view of one, is shared; any other is
copied, a caller's read-only array too.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from helpers import dump_document
from kernelglue import (
    BasepointMismatchError,
    BasepointNotUnitError,
    DimensionMismatchError,
    DuplicateLabelError,
    GluedRealization,
    GluingTree,
    InvalidParameterError,
    LabelCollisionError,
    NonFiniteError,
    NotHermitianError,
    NumericalFailureError,
    PsdCertificate,
    RealizationSpec,
    glue_tree,
    make_kernel,
    normalize_at_basepoint,
    psd_check_eigen,
    psd_check_schur,
    verify_realization,
)
from kernelglue import IndexedKernel, markov_product, schur_reduce
from kernelglue.cli import main
from kernelglue.fileio import kernel_to_document, load_kernel

# Finite entries whose eigenvalues (+-1.5e308 * sqrt(2)) overflow float64.
OVERFLOW = [[1.5e308, 1.5e308], [1.5e308, -1.5e308]]


class TestRealizationSpec:
    def test_non_finite_mean_or_covariance(self):
        with pytest.raises(NonFiniteError, match=r"mean entry \('a'\)"):
            RealizationSpec(("a",), "x0", [np.nan], [[0.5]])
        with pytest.raises(NonFiniteError, match=r"covariance entry \('a', 'b'\)"):
            RealizationSpec(("a", "b"), "x0", [0, 0], [[1, np.inf], [np.inf, 1]])

    def test_repeated_labels(self):
        with pytest.raises(DuplicateLabelError, match="'a'"):
            RealizationSpec(("a", "b", "a"), "x0", np.zeros(3), np.eye(3))

    def test_basepoint_is_not_a_coordinate(self):
        with pytest.raises(LabelCollisionError, match="'x0'"):
            RealizationSpec(("a", "x0"), "x0", np.zeros(2), np.eye(2))

    def test_basepoint_index_is_an_integer_in_range(self):
        for bad in (0.5, 1.0, "1", None, True, -1, 2):
            with pytest.raises(InvalidParameterError, match="basepoint_index"):
                RealizationSpec(("a",), "x0", [0.0], [[1.0]], basepoint_index=bad)
        spec = RealizationSpec(("a",), "x0", [0.0], [[1.0]], basepoint_index=np.int64(1))
        assert spec.full_labels == ("a", "x0")
        assert type(spec.basepoint_index) is int


class TestSchurSplit:
    """``schur_reduce`` splits a bordered kernel, so what it splits has
    passed the kernel rule: non-finite parts are rejected there, by label."""

    def test_nan_block_is_non_finite(self):
        with pytest.raises(NonFiniteError, match=r"kernel entry \('a', 'b'\)"):
            schur_reduce(make_kernel(["x0", "a", "b"], [[1, 0.5, 0.5], [0.5, 1, np.nan],
                                                        [0.5, np.nan, 1]]), "x0")

    def test_inf_alpha_is_non_finite(self):
        with pytest.raises(NonFiniteError, match=r"kernel entry \('x0', 'a'\)"):
            schur_reduce(make_kernel(["x0", "a"], [[1, np.inf], [np.inf, 1]]), "x0")

    def test_nan_corner_is_not_unit(self):
        # a NaN corner never reaches the unit check; a finite corner off 1 fails it
        with pytest.raises(NonFiniteError, match=r"kernel entry \('x0', 'x0'\)"):
            schur_reduce(make_kernel(["x0", "a"], [[np.nan, 0], [0, 1]]), "x0")
        with pytest.raises(BasepointNotUnitError):
            schur_reduce(make_kernel(["x0", "a"], [[1 + 1e-9, 0], [0, 1]]), "x0")


class TestLabelsAndMessages:
    def test_not_hermitian_names_labels(self):
        with pytest.raises(NotHermitianError) as info:
            make_kernel(["x0", "a", "b"], [[1, 0, 0.5], [0, 1, 0], [0.4, 0, 1]])
        message = str(info.value)
        assert "('b', 'x0')" in message and "('x0', 'b')" in message
        assert "deviation 1.000e-01" in message

    def test_covariance_messages_name_labels(self):
        with pytest.raises(NotHermitianError, match=r"covariance entry \('b', 'a'\)"):
            RealizationSpec(("a", "b"), "x0", [0, 0], [[1, 0.5], [0.4, 1]])

    def test_witness_is_a_finite_vector(self):
        with pytest.raises(NonFiniteError):
            PsdCertificate(False, -1.0, [np.nan, 1.0], 1e-9)

    @pytest.mark.parametrize("call, message", [
        (lambda: make_kernel(["a"], "x"), "^kernel cannot be read as complex numbers: "),
        (lambda: make_kernel(["a", "b"], [[1, 0], [1]]),
         "^kernel cannot be read as complex numbers: "),
        (lambda: PsdCertificate(False, -1.0, ["q"], 1e-9),
         "^witness cannot be read as complex numbers: "),
        (lambda: make_kernel(5, [[1]]), "^labels cannot be read as strings: "),
        (lambda: PsdCertificate(False, -1.0, [[1], [1, 2]], 1e-9),
         "^witness cannot be read as complex numbers: "),
    ], ids=["string-entries", "ragged-entries", "string-witness", "int-labels", "ragged-witness"])
    def test_unreadable_values_are_invalid_parameters(self, call, message):
        with pytest.raises(InvalidParameterError, match=message):
            call()

    @pytest.mark.parametrize("witness, shape", [
        ([[1.0, 0.0], [0.0, 1.0]], "(2, 2)"), ([[1.0, 0.0]], "(1, 2)"), (1.0, "()"),
    ], ids=["square", "row", "scalar"])
    def test_witness_is_a_vector_of_any_length(self, witness, shape):
        with pytest.raises(DimensionMismatchError,
                           match=rf"^witness has shape {re.escape(shape)}, expected a vector$"):
            PsdCertificate(False, -1.0, witness, 1e-9)
        for n in (1, 3):
            assert PsdCertificate(False, -1.0, [1.0] * n, 1e-9).witness.shape == (n,)

    def test_hermitian_check_covers_every_band(self):
        # 600 rows take six bands of the banded comparison; a pair in any
        # band is caught, and the message names the worst pair of the
        # whole matrix, here the one in the last band
        labels = [f"s{i}" for i in range(600)]
        for pairs in ([(0, 599)], [(599, 1)], [(300, 299)], [(5, 6), (598, 599)]):
            a = np.eye(600, dtype=complex)
            for size, (i, j) in enumerate(pairs, start=1):
                a[i, j] = size * 1e-3
            with pytest.raises(NotHermitianError) as info:
                make_kernel(labels, a)
            first, second = sorted(pairs[-1])
            pair = f"entry ('s{second}', 's{first}') != conj(entry ('s{first}', 's{second}'))"
            assert pair in str(info.value)
            assert str(info.value).endswith(f"deviation {len(pairs) * 1e-3:.3e}")


class TestArraySharing:
    def test_a_writable_array_is_copied(self):
        a = np.eye(3, dtype=complex)
        k = make_kernel(["a", "b", "c"], a)
        a[0, 1] = a[1, 0] = 0.5
        assert np.array_equal(k.entries, np.eye(3))

    def test_a_locked_view_of_a_writable_array_is_copied(self):
        base = np.eye(3, dtype=complex)
        view = base[:]
        view.flags.writeable = False
        k = make_kernel(["a", "b", "c"], view)
        base[0, 1] = base[1, 0] = 0.5
        assert np.array_equal(k.entries, np.eye(3))

    def test_a_locked_array_is_shared(self):
        # a caller's read-only array is copied, not shared: the caller can
        # make it writable again (only arrays the package locked are shared)
        a = np.eye(3, dtype=complex)
        a.flags.writeable = False
        assert make_kernel(["a", "b", "c"], a).entries is not a
        # a locked array of another dtype is converted, so copied
        locked_floats = np.eye(3)
        locked_floats.flags.writeable = False
        assert make_kernel(["a", "b", "c"], locked_floats).entries.base is None

    def test_a_caller_cannot_unlock_a_kernel(self):
        a = np.eye(2, dtype=complex)
        a.flags.writeable = False
        k = make_kernel(["a", "b"], a)
        a.flags.writeable = True
        a[0, 1] = 5.0
        assert k.entries is not a
        assert np.array_equal(k.entries, np.eye(2))
        assert np.array_equal(k.entries, k.entries.conj().T)

    def test_package_arrays_are_shared(self, tmp_path):
        # what the package builds is locked, so building on it copies nothing
        k1 = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])
        k2 = make_kernel(["x0", "b"], [[1, 0.5j], [-0.5j, 1]])
        glued = markov_product(k1, k2, "x0")
        path = tmp_path / "k.json"
        path.write_text(dump_document(kernel_to_document(glued)))
        spec = schur_reduce(glued, "x0")
        matrices = [glued.entries, glued.restrict(["b", "a", "x0"]).entries,
                    load_kernel(str(path)).entries, spec.covariance, glued.entries[1:, 1:]]
        for m in matrices:
            assert IndexedKernel(tuple(f"s{i}" for i in range(len(m))), m).entries is m
        assert RealizationSpec(spec.labels, "x0", spec.mean, spec.covariance).mean is spec.mean


class TestGluedRealization:
    def specs(self):
        k = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])
        other = make_kernel(["y0", "b"], [[1, 0.5], [0.5, 1]])
        return schur_reduce(k, "x0"), schur_reduce(other, "y0")

    def test_built_directly_checks_basepoints(self):
        spec1, spec2 = self.specs()
        with pytest.raises(BasepointMismatchError, match="basepoints differ"):
            GluedRealization(spec1, spec2)

    def test_parts_must_be_specs(self):
        spec, _ = self.specs()
        for parts in ((spec, "x"), (None, spec), (spec, make_kernel(["x0"], [[1.0]]))):
            name, bad = next((f"spec{i}", type(p).__name__)
                             for i, p in enumerate(parts, 1) if p is not spec)
            with pytest.raises(InvalidParameterError,
                               match=f"{name} must be of type RealizationSpec, not {bad}"):
                GluedRealization(*parts)

    def test_labels_are_derived(self):
        spec1, _ = self.specs()
        spec2 = schur_reduce(make_kernel(["b", "x0"], [[1, 0.25], [0.25, 1]]), "x0")
        assert GluedRealization(spec1, spec2).labels == ("x0", "a", "b")


def _edge():
    return make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])


class TestArgumentTypes:
    """A kernel, tree or spec argument of the wrong type is named, with its
    type, as the argument checks name every other bad argument."""

    @pytest.mark.parametrize("call, name, kind, got", [
        (lambda: GluingTree(("x",), ()), "node 0", "IndexedKernel", "str"),
        (lambda: GluingTree((_edge(), None), ((0, 1, "x0"),)), "node 1", "IndexedKernel",
         "NoneType"),
        (lambda: glue_tree({}), "tree", "GluingTree", "dict"),
        (lambda: glue_tree(_edge()), "tree", "GluingTree", "IndexedKernel"),
        (lambda: markov_product(_edge(), "k2", "x0"), "k2", "IndexedKernel", "str"),
        (lambda: markov_product(np.eye(2), _edge(), "x0"), "k1", "IndexedKernel", "ndarray"),
        (lambda: psd_check_eigen(np.eye(2)), "k", "IndexedKernel", "ndarray"),
        (lambda: normalize_at_basepoint(np.eye(2), "x0"), "k", "IndexedKernel", "ndarray"),
        (lambda: schur_reduce(np.eye(2), "x0"), "k", "IndexedKernel", "ndarray"),
        (lambda: psd_check_schur(_edge()), "spec", "RealizationSpec", "IndexedKernel"),
        (lambda: verify_realization(_edge(), None, "x0", 10, 0), "k2", "IndexedKernel",
         "NoneType"),
    ])
    def test_wrong_type_is_named(self, call, name, kind, got):
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} must be of type {kind}, not {got}$"):
            call()


class TestOverflowingEigenvalues:
    def test_eigen_route(self):
        with pytest.raises(NumericalFailureError, match="not all finite"):
            psd_check_eigen(make_kernel(["a", "b"], OVERFLOW))

    def test_schur_route(self):
        with pytest.raises(NumericalFailureError, match="not all finite"):
            psd_check_schur(RealizationSpec(("a", "b"), "x0", [0.0, 0.0], OVERFLOW))

    def test_realization_factor(self):
        spec = RealizationSpec(("a", "b"), "x0", [0.0, 0.0], OVERFLOW)
        with pytest.raises(NumericalFailureError, match="not all finite"):
            spec.factor

    def test_schur_complement_overflow(self):
        # a finite kernel whose covariance 1e300 - 1e200 * 1e200 overflows at
        # (b, b), the second coordinate: the basepoint is not one
        k = make_kernel(["a", "x0", "b"], [[1, 0.5, 0], [0.5, 1, 1e200], [0, 1e200, 1e300]])
        message = r"^the Schur complement at \('b', 'b'\) overflows float64$"
        with pytest.raises(NumericalFailureError, match=message):
            schur_reduce(k, "x0")

    def test_bordered_scale_overflow(self):
        # |mean|**2 overflows: the bordered kernel's scale would pass any covariance
        spec = RealizationSpec(("a",), "x0", [1e200], [[-1.0]])
        with pytest.raises(NumericalFailureError, match="bordered kernel's diagonal overflows"):
            spec.factor

    def test_cli_check_exits_one(self, tmp_path, capsys):
        doc = {"labels": ["a", "b"], "entries": [[[v, 0.0] for v in row] for row in OVERFLOW]}
        path = tmp_path / "overflow.json"
        path.write_text(dump_document(doc))
        assert main(["check", str(path), "--no-timestamp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("NumericalFailure: ")
