"""Labeled Hermitian kernels, the Markov product, and PSD certification.

A kernel on a finite labeled set is stored as a square complex matrix
indexed by an ordered tuple of distinct string labels.  Two kernels that
share exactly one label can be glued into their Markov product: the
result restricts to each operand on its own labels and factors every
cross entry through the shared point.

Positive semidefiniteness is certified here by eigendecomposition and
in ``realization`` by the Schur complement at a unit basepoint, so each
route is an oracle for the other.  Both, and the covariance factor,
share one eigenvalue threshold rule, and one solver call decides each
verdict; an eigenvalue that overflows is a numerical failure.
Every value type here and in ``realization`` takes distinct string labels
(``_labels``) and finite complex arrays of the expected shape, matrices
exactly Hermitian (``_array``); errors name entries by label.  A kernel,
tree or spec argument must be one (``_check_type``).

All types are immutable after construction (arrays are write-locked)
and all operations are pure, so values are safe to share across threads.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    BasepointNotUnitError,
    DimensionMismatchError,
    DuplicateLabelError,
    IntersectionNotSingletonError,
    InvalidParameterError,
    LabelNotFoundError,
    NonFiniteError,
    NotHermitianError,
    NumericalFailureError,
)

#: Relative eigenvalue tolerance for PSD verdicts: the matrix passes when
#: lambda_min >= -tol * scale, scale = max(1, largest |eigenvalue|); a Schur
#: complement's scale is also at least its bordered kernel's largest diagonal.
DEFAULT_PSD_TOL = 1e-9

#: Absolute tolerance on |K(x0, x0) - 1| for glue points and basepoints.
DEFAULT_BASEPOINT_TOL = 1e-12

#: Entries per band of rows of a matrix pass: the band's complex
#: temporary takes 16 bytes each, about 1 MB.
_BAND_ENTRIES = 1 << 16


def _band_rows(n: int) -> int:
    """Rows per band of an n-column matrix pass."""
    return max(1, _BAND_ENTRIES // max(1, n))


def mirror_upper(matrix: np.ndarray) -> np.ndarray:
    """Return a locked copy whose lower triangle is the exact conjugate
    mirror of the upper triangle and whose diagonal has zero imaginary part.

    This is how every Hermitian matrix in this package is finalized:
    floating-point kernels (FMA contraction in complex multiplies) make
    "symmetric" formulas only approximately Hermitian, while the library
    contract is exact entrywise conjugate symmetry.
    """
    out = np.array(matrix, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {out.shape}")
    return _lock(_mirror(out))


def _mirror(out: np.ndarray) -> np.ndarray:
    """``mirror_upper`` in place, a band of ``_band_rows`` rows at a time:
    the band's part left of its diagonal block is the conjugate transpose of
    the column band above it, so no temporary outgrows a band."""
    step = _band_rows(len(out))
    for i in range(0, len(out), step):
        out[i : i + step, :i] = out[:i, i : i + step].T.conj()
        block = out[i : i + step, i : i + step]
        r, c = np.triu_indices(len(block), 1)
        block[c, r] = block[r, c].conj()
    np.fill_diagonal(out.imag, 0.0)
    return out


# The arrays ``_lock`` has locked, by id: an array is dropped when it dies.
_ROOTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    _ROOTS[id(a)] = a
    return a


def _labels(labels) -> tuple[str, ...]:
    """Labels as a tuple of distinct strings; the first repeat raises."""
    try:
        labels = tuple(map(str, labels))
    except TypeError as exc:
        raise InvalidParameterError(f"labels cannot be read as strings: {exc}") from None
    if len(set(labels)) != len(labels):
        repeat = next(l for i, l in enumerate(labels) if l in labels[:i])
        raise DuplicateLabelError(f"label {repeat!r} appears more than once")
    return labels


def _locked(value) -> bool:
    """Whether ``value`` is a complex128 array that is read-only along its
    whole ``.base`` chain, and that chain ends at an array ``_lock`` locked:
    an array this package built, or a view of one.  A caller's own array
    is never shared, since the caller could unlock it again."""
    if not (isinstance(value, np.ndarray) and value.dtype == np.complex128):
        return False
    while isinstance(value.base, np.ndarray) and not value.flags.writeable:
        value = value.base
    return value.base is None and not value.flags.writeable and _ROOTS.get(id(value)) is value


def _hermitian(a: np.ndarray) -> bool:
    """Whether a square matrix equals its conjugate transpose exactly,
    compared in bands of rows against the matching columns."""
    step = _band_rows(len(a))
    return all(
        np.array_equal(a[i : i + step], a[:, i : i + step].conj().T)
        for i in range(0, len(a), step)
    )


def _array(value, name: str, n: int | None, ndim: int, labels=None) -> np.ndarray:
    """The one rule for a value type's complex array: a locked complex128
    array of shape ``(n,) * ndim`` (a vector of any length if ``n`` is
    None) with finite entries, and a matrix must be exactly Hermitian.  A
    locked array (``_locked``) is shared; any other value is copied, so no
    caller can change it later.  Errors name entries by label, else by index."""

    def at(*index) -> str:
        keys = [labels[i] if labels is not None else int(i) for i in index]
        return f"({', '.join(map(repr, keys))})"

    try:
        a = value if _locked(value) else np.array(value, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"{name} cannot be read as complex numbers: {exc}") from None
    shape = (n,) * ndim if n is not None else a.shape if a.ndim == 1 else "a vector"
    if a.shape != shape:
        raise DimensionMismatchError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        index = tuple(np.argwhere(~np.isfinite(a))[0])
        raise NonFiniteError(f"{name} entry {at(*index)} is {complex(a[index])}, not finite")
    if ndim == 2 and not _hermitian(a):
        dev = np.abs(a - a.conj().T)
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise NotHermitianError(
            f"{name} entry {at(j, i)} != conj(entry {at(i, j)}), deviation {dev[i, j]:.3e}"
        )
    return _lock(a)


def _check_tolerance(name: str, value: float) -> None:
    """A tolerance is a real number, not a bool, finite and positive."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (math.isfinite(value) and value > 0)):
        raise InvalidParameterError(f"{name} must be finite and positive, got {value!r}")


def _check_type(kind: type | tuple[type, ...], **values) -> None:
    """Each named value is a ``kind``, or one of a tuple of kinds: a kernel,
    tree or spec is never coerced."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for name, value in values.items():
        if not isinstance(value, kinds):
            names = " or ".join(k.__name__ for k in kinds)
            raise InvalidParameterError(f"{name} must be of type {names}, not {type(value).__name__}")


def _check_unit_diagonal(value: complex, where: str, tol: float) -> None:
    """The one unit-basepoint rule: ``|value - 1| <= tol``, for a ``tol``
    its entry point has checked with ``_check_tolerance``."""
    value = complex(value)
    if not abs(value - 1.0) <= tol:
        raise BasepointNotUnitError(f"{where} is {value}, not 1 within {tol:g}")


def _psd_eigh(matrix: np.ndarray, tol: float, floor: float = 1.0, *, vectors: bool = True):
    """Eigenvalues, and eigenvectors if ``vectors``, plus the relative PSD verdict.

    Returns ``(w, v, scale, verdict)`` with ascending eigenvalues ``w``,
    unit eigenvectors ``v`` in its columns (None unless ``vectors``),
    ``scale = max(1, floor, |w|_max)`` and ``verdict = w_min >= -tol * scale``;
    an empty matrix passes.  ``floor`` is the scale of the kernel a Schur
    complement was reduced from (``_bordered_scale``): the complement's
    rounding error is of that size, not of its own.  Every PSD decision in
    the package is made here, once per matrix, and none on an eigenvalue
    that overflowed to infinity: a spec's Schur complement with vectors,
    for its factor and its certificate, and a kernel by ``eigvalsh``
    alone, which agrees with ``eigh`` to rounding (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 10) in a quarter to a
    third of its time.  A failing kernel's later call with vectors is for
    its witness; that call's verdict is not read.
    """
    _check_tolerance("tol", tol)
    try:
        if vectors:
            w, v = np.linalg.eigh(matrix)
        else:
            w, v = np.linalg.eigvalsh(matrix), None
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    if not np.isfinite(w).all():
        raise NumericalFailureError(
            f"eigenvalues {w.min()} to {w.max()} are not all finite (float64 overflow)"
        )
    scale = max(1.0, floor, float(np.abs(w).max(initial=0.0)))
    verdict = w.size == 0 or bool(w[0] >= -tol * scale)
    return w, v, scale, verdict


def _check_overflow(a: np.ndarray, where: str, rows, cols) -> None:
    """A matrix computed from finite entries is finite, or the first entry
    that is not raises ``NumericalFailureError`` naming its label pair."""
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise NumericalFailureError(f"{where} ({rows[i]!r}, {cols[j]!r}) overflows float64")


def _bordered_scale(alpha: np.ndarray, reduced: np.ndarray) -> float:
    """The largest diagonal entry ``C(s, s) + |alpha_s|^2`` of the kernel
    bordered by a unit basepoint row ``alpha`` around its Schur complement
    ``C``: the scale floor of ``C``'s certificate.  A floor that overflows
    would pass any matrix, so it raises ``NumericalFailureError``."""
    with np.errstate(over="ignore"):
        floor = float((reduced.diagonal().real + np.abs(alpha) ** 2).max(initial=0.0))
    if not math.isfinite(floor):
        raise NumericalFailureError("the bordered kernel's diagonal overflows float64")
    return floor


@dataclass(frozen=True, eq=False)
class IndexedKernel:
    """A Hermitian kernel over an ordered finite set of string labels.

    ``entries[i, j]`` is the kernel value between ``labels[i]`` and
    ``labels[j]``.  Construction requires at least one label and applies
    the package's rule for labels and arrays; nothing is repaired.
    """

    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        labels = _labels(self.labels)
        if not labels:
            raise DimensionMismatchError("a kernel needs at least one label")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", _array(self.entries, "kernel", len(labels), 2, labels))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelNotFoundError(f"label {label!r} not in kernel {self.labels}") from None

    def entry(self, s: str, t: str) -> complex:
        return complex(self.entries[self.index(s), self.index(t)])

    def restrict(self, labels) -> "IndexedKernel":
        """Kernel restricted to ``labels``, in the given order.

        Also serves as a pure reordering when ``labels`` is a permutation
        of this kernel's labels.
        """
        idx = [self.index(l) for l in labels]
        return IndexedKernel(labels, _lock(self.entries[np.ix_(idx, idx)]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexedKernel):
            return NotImplemented
        return self.labels == other.labels and bool(
            np.array_equal(self.entries, other.entries)
        )

    def __repr__(self) -> str:
        return f"IndexedKernel(labels={self.labels}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class PsdCertificate:
    """Verdict of a positive semidefiniteness check, with witness.

    ``verdict`` is True when the minimum eigenvalue clears the relative
    threshold ``-tolerance_used * max(1, largest |eigenvalue|)``, or, for
    a Schur complement, ``max(1, largest diagonal entry of the bordered
    matrix, largest |eigenvalue|)``, decided with ``min_eigenvalue`` by one
    solver call: ``eigvalsh`` in ``psd_check_eigen``, the ``eigh`` that
    factors a Schur complement.  A failure's ``witness`` is a unit
    eigenvector for ``min_eigenvalue``, its quadratic form against the
    tested matrix to rounding.
    """

    verdict: bool
    min_eigenvalue: float
    witness: np.ndarray | None
    tolerance_used: float

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness", _array(self.witness, "witness", None, 1))


def make_kernel(labels, entries) -> IndexedKernel:
    """Build an IndexedKernel, validating labels and Hermitian symmetry."""
    return IndexedKernel(labels, entries)


def _unit_index(k: IndexedKernel, label: str, tol: float) -> int:
    i = k.index(label)
    _check_unit_diagonal(k.entries[i, i], f"kernel entry at ({label!r}, {label!r})", tol)
    return i


def _glue_chain(
    first: IndexedKernel, steps: list[tuple[IndexedKernel, str]], basepoint_tol: float
) -> IndexedKernel:
    """Glue each ``(kernel, x0)`` of ``steps`` in turn onto ``first``.

    The result is allocated once at its final size.  Labels come in
    placement order; each new kernel is copied bitwise onto its own
    labels (the glue point keeps its placed diagonal), and every cross
    entry is ``placed(s, x0) * kernel(x0, t)`` or its conjugate.  A cross
    entry that overflows raises ``NumericalFailureError``.
    """
    _check_tolerance("basepoint_tol", basepoint_tol)
    n = first.dim + sum(k.dim - 1 for k, _ in steps)
    out = np.zeros((n, n), dtype=np.complex128)
    out[: first.dim, : first.dim] = first.entries
    labels = list(first.labels)
    index = {label: i for i, label in enumerate(labels)}
    for k, x0 in steps:
        shared = {label for label in k.labels if label in index}
        if shared != {x0}:
            raise IntersectionNotSingletonError(
                f"label sets must intersect exactly in {{{x0!r}}}, "
                f"got intersection {sorted(shared)}"
            )
        ix0 = index[x0]
        _check_unit_diagonal(
            out[ix0, ix0], f"kernel entry at ({x0!r}, {x0!r})", basepoint_tol
        )
        i2 = _unit_index(k, x0, basepoint_tol)
        rest = [i for i in range(k.dim) if i != i2]
        m, end = len(labels), len(labels) + len(rest)
        with np.errstate(over="ignore", invalid="ignore"):
            cross = np.outer(out[:m, ix0], k.entries[i2, rest])
        # Row and column x0 of the new block overwrite the cross entries
        # computed through the placed diagonal.
        cross[ix0] = k.entries[i2, rest]
        _check_overflow(cross, "the glued entry at", labels, [k.labels[i] for i in rest])
        out[:m, m:end] = cross
        out[m:end, :m] = cross.conj().T
        out[m:end, ix0] = k.entries[rest, i2]
        out[m:end, m:end] = k.entries[np.ix_(rest, rest)]
        for i in rest:
            index[k.labels[i]] = len(labels)
            labels.append(k.labels[i])
    return IndexedKernel(labels, _lock(out))


def markov_product(
    k1: IndexedKernel,
    k2: IndexedKernel,
    x0: str,
    *,
    basepoint_tol: float = DEFAULT_BASEPOINT_TOL,
) -> IndexedKernel:
    """Glue two kernels at their unique shared label.

    The result lives on the union of the label sets (operand-1 order
    followed by operand-2 order, with the glue point kept at its
    operand-1 position), restricts to each operand on its own labels,
    and has cross entries ``k1(s1, x0) * k2(x0, s2)``.

    Both kernels must carry the value 1 at the glue point diagonal,
    within ``basepoint_tol``.
    """
    _check_type(IndexedKernel, k1=k1, k2=k2)
    return _glue_chain(k1, [(k2, x0)], basepoint_tol)


def psd_check_eigen(k: IndexedKernel, tol: float = DEFAULT_PSD_TOL) -> PsdCertificate:
    """Certify positive semidefiniteness by direct eigendecomposition.

    The verdict is relative: ``lambda_min >= -tol * max(1, |lambda|_max)``,
    decided by ``eigvalsh`` alone.  Only a False verdict computes
    eigenvectors, for the witness.
    """
    _check_type(IndexedKernel, k=k)
    w, _, _, verdict = _psd_eigh(k.entries, tol, vectors=False)
    witness = None if verdict else _psd_eigh(k.entries, tol)[1][:, 0]
    return PsdCertificate(verdict, float(w[0]), witness, float(tol))


def normalize_at_basepoint(k: IndexedKernel, x0: str) -> IndexedKernel:
    """Rescale a kernel so the diagonal entry at ``x0`` becomes exactly 1.

    Only legal when that entry is real and strictly positive (the
    rescaling then preserves positive semidefiniteness).  An entry that
    overflows raises ``NumericalFailureError``.  Never applied implicitly
    by any other operation.
    """
    _check_type(IndexedKernel, k=k)
    i0 = k.index(x0)
    value = complex(k.entries[i0, i0])
    if not (value.imag == 0.0 and value.real > 0.0):
        raise BasepointNotUnitError(
            f"cannot normalize: entry at ({x0!r}) is {value}, not real positive"
        )
    # Componentwise real division keeps conjugate symmetry exact and
    # makes the basepoint diagonal exactly 1.0.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = k.entries.real / value.real + 1j * (k.entries.imag / value.real)
    _check_overflow(scaled, "the normalized entry at", k.labels, k.labels)
    return IndexedKernel(k.labels, _lock(scaled))
