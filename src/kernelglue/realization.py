"""Schur reduction, Gaussian realization of a kernel, and Monte Carlo verification.

A kernel with a unit basepoint s0 splits into the mean ``K(s, s0)`` and
the covariance ``K(s, t) - K(s, s0) K(s0, t)``, its Schur complement at
s0, of a Gaussian family indexed by the remaining labels: one
``RealizationSpec``, made by ``schur_reduce``.  Pinning the basepoint
coordinate to the constant 1 makes the second moments
``E(X_s conj(X_t))`` reproduce the kernel.  The kernel is PSD exactly
when that covariance is, decided once per spec, by one ``eigh`` at the
spec's ``tol`` on the first read of ``factor`` (``NotPsdError`` if it
fails), ``psd_check_schur`` or ``sample_blocks``.  Gluing two such
realizations with independent randomness reproduces the Markov product,
whose Schur complement at the glue point is the direct sum of the two
covariances: ``verify_realization`` takes its certificate from the two
specs' decisions, and checks the product end to end from second moments
alone.  A row is ``v.T @ M``, v its column of normals [1; z; 0 pad]
and M the one real map of a spec or a glued pair, built for both
consumers by ``_realization``.  Every draw, of one spec or of a glued
pair, comes from one ``Generator(SFC64(seed))``, and every sample
count n is an integer from 1 to 2**53.  ``sample_blocks`` draws
n columns in bands of ``_BAND_ROWS`` into one reused buffer, so memory
does not grow with n.  ``verify_realization`` draws no row, and not
``sample_blocks``'s normals: it draws the LQ factor of its n columns,
over sqrt(n), from its exact law (``_gram_factor``), one band of h
columns whatever n is, and takes the second moments from its rows
``R.T @ M`` (``_moment_sums``), its threshold's variance in closed form.
The zero pad of the factor and of M pins the moments under any BLAS
thread count (the eigensolver's factor need not be, at any size).
Draws are circularly-symmetric complex Gaussians (real and imaginary
parts each of variance 1/2), or real ones in real mode.
The value types here check labels and arrays by the rule of ``kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import (
    BasepointMismatchError,
    InvalidParameterError,
    LabelCollisionError,
    NotPsdError,
    NumericalFailureError,
)
from .kernels import (
    DEFAULT_BASEPOINT_TOL,
    DEFAULT_PSD_TOL,
    IndexedKernel,
    PsdCertificate,
    _array,
    _band_rows,
    _bordered_scale,
    _check_overflow,
    _check_tolerance,
    _check_type,
    _labels,
    _lock,
    _mirror,
    _psd_eigh,
    _unit_index,
    markov_product,
)

# Rows per band of ``sample_blocks``, drawn and placed while in cache.
# Each band draws its own normals, so this fixes the stream, and a run is
# reproducible per (seed, n).
_BAND_ROWS = 1 << 10

# A band and the law's factor are a multiple of this many float rows high,
# and the map a multiple of this many float columns wide, their pad zero.
# OpenBLAS orders the sums of a product by thread count at some widths, not
# at a multiple of 8.
_PAD_COLUMNS = 8


def _check_draw(n, seed, real_mode) -> None:
    """A draw's arguments: a sample count, an integer from 1 to 2**53, where
    ``_gram_factor``'s degrees are exact; a seed of 64 unsigned bits; and a
    bool ``real_mode`` (numpy's too)."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise InvalidParameterError(f"sample count must be an integer, got {n!r}")
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    if n > 2**53:
        raise InvalidParameterError(f"sample count must be at most 2**53, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must fit in 64 unsigned bits, got {seed!r}")
    if not isinstance(real_mode, (bool, np.bool_)):
        raise InvalidParameterError(f"real_mode must be a bool, got {real_mode!r}")


@dataclass(frozen=True, eq=False)
class RealizationSpec:
    """Mean and centered covariance of the Gaussian realization: the split
    of a kernel at its basepoint that ``schur_reduce`` makes.

    ``labels`` indexes the non-basepoint coordinates; ``basepoint_index``
    remembers where the basepoint sat in the source kernel's label order
    so sampled batches and glued products line up column-for-column, so
    it is an integer in ``[0, dim]``, and the basepoint is not itself a
    coordinate label.  ``tol``, finite and positive, is the relative PSD
    tolerance of both ``factor`` and ``psd_check_schur``.
    """

    labels: tuple[str, ...]
    basepoint: str
    mean: np.ndarray
    covariance: np.ndarray
    basepoint_index: int = 0
    tol: float = DEFAULT_PSD_TOL

    def __post_init__(self):
        labels, basepoint, i = _labels(self.labels), str(self.basepoint), self.basepoint_index
        n = len(labels)
        if basepoint in labels:
            raise LabelCollisionError(f"basepoint {basepoint!r} is also a coordinate label")
        if isinstance(i, bool) or not isinstance(i, Integral) or not 0 <= i <= n:
            raise InvalidParameterError(f"basepoint_index {i!r} is not an integer in [0, {n}]")
        _check_tolerance("tol", self.tol)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "basepoint_index", int(i))
        object.__setattr__(self, "mean", _array(self.mean, "mean", n, 1, labels))
        object.__setattr__(self, "covariance", _array(self.covariance, "covariance", n, 2, labels))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def full_labels(self) -> tuple[str, ...]:
        """Labels with the basepoint re-inserted at its source position."""
        i = self.basepoint_index
        return self.labels[:i] + (self.basepoint,) + self.labels[i:]

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.mean.imag == 0.0) and np.all(self.covariance.imag == 0.0))

    @cached_property
    def _schur(self) -> tuple:
        """The spec's one PSD decision, ``(w, scale, verdict, vectors)``:
        one ``eigh`` of the covariance (of its real part for a real spec)
        at ``tol``, relative to the scale of the kernel the spec realizes,
        whose diagonal is ``cov(s, s) + |mean_s|^2``.  On a pass
        ``vectors`` is the factor, eigenvalues within the tolerance of zero
        clipped to zero (rank-deficient covariances sit exactly on the PSD
        boundary); on a failure it is the witness, the first eigenvector."""
        target = self.covariance.real if self.is_real else self.covariance
        floor = _bordered_scale(self.mean, self.covariance)
        w, v, scale, verdict = _psd_eigh(target, self.tol, floor)
        v = v * np.sqrt(np.clip(w, 0.0, None)) if verdict else v[:, 0]
        return w, scale, verdict, _lock(v.astype(np.complex128))

    @cached_property
    def factor(self) -> np.ndarray:
        """L with ``L @ L.conj().T`` the covariance, or ``NotPsdError``, as
        ``_schur`` decides, naming the label where its witness is largest."""
        w, scale, verdict, factor = self._schur
        if not verdict:
            label = self.labels[int(np.argmax(np.abs(factor)))]
            raise NotPsdError(f"kernel is not PSD at basepoint {self.basepoint!r}: covariance "
                              f"has min eigenvalue {w[0]:.6e} below -{self.tol:g}*{scale:g}, "
                              f"its witness largest at label {label!r}")
        return factor


@dataclass(frozen=True, eq=False)
class GluedRealization:
    """Two realizations sharing a basepoint, sampled independently.

    ``labels`` is derived: spec1's full labels, then spec2's coordinates,
    the label order of the Markov product of the source kernels.
    """

    spec1: RealizationSpec
    spec2: RealizationSpec
    labels: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        spec1, spec2 = self.spec1, self.spec2
        _check_type(RealizationSpec, spec1=spec1, spec2=spec2)
        if spec1.basepoint != spec2.basepoint:
            raise BasepointMismatchError(
                f"basepoints differ: {spec1.basepoint!r} vs {spec2.basepoint!r}"
            )
        collision = set(spec1.labels) & set(spec2.labels)
        if collision:
            raise LabelCollisionError(
                f"non-basepoint labels shared by both realizations: {sorted(collision)}"
            )
        object.__setattr__(self, "labels", spec1.full_labels + spec2.labels)


def schur_reduce(
    k: IndexedKernel,
    s0: str,
    tol: float = DEFAULT_PSD_TOL,
    *,
    basepoint_tol: float = DEFAULT_BASEPOINT_TOL,
) -> RealizationSpec:
    """Split a kernel at a unit basepoint s0 into its unfactored realization spec.

    mean(s) = ``K(s0, s).conj()`` and cov(s, t) = K(s, t) - K(s, s0) K(s0, t),
    the Schur complement, formed here and nowhere else: the outer product
    is subtracted from a fresh copy of ``K(rest, rest)`` a band of rows at
    a time, which is then mirrored in place (``mirror_upper``).  An entry
    that overflows raises ``NumericalFailureError`` naming its label pair.
    """
    _check_type(IndexedKernel, k=k)
    _check_tolerance("basepoint_tol", basepoint_tol)
    i0 = _unit_index(k, s0, basepoint_tol)
    rest = [i for i in range(k.dim) if i != i0]
    labels = k.labels[:i0] + k.labels[i0 + 1 :]
    alpha = k.entries[i0, rest]
    mean = alpha.conj()
    reduced = k.entries[np.ix_(rest, rest)]
    step = _band_rows(len(rest))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(rest), step):
            band = reduced[i : i + step]
            band -= np.multiply(mean[i : i + step, None], alpha)
            _check_overflow(band, "the Schur complement at", labels[i : i + step], labels)
    return RealizationSpec(
        labels=labels,
        basepoint=s0,
        mean=_lock(mean),
        covariance=_lock(_mirror(reduced)),
        basepoint_index=i0,
        tol=tol,
    )


def psd_check_schur(spec: RealizationSpec) -> PsdCertificate:
    """Certify the bordered kernel of a spec via its Schur complement.

    A kernel with unit corner is PSD exactly when its complement
    ``spec.covariance`` is, so the verdict (and the certificate's
    eigenvalue and witness) refer to the covariance, decided by the one
    ``eigh`` that gives ``spec.factor``: ``lambda_min >= -spec.tol * max(1, largest
    diagonal entry, |lambda|_max)``.  ``schur_reduce`` sets ``tol``.
    """
    _check_type(RealizationSpec, spec=spec)
    w, _, verdict, vectors = spec._schur
    return PsdCertificate(verdict, float(w[0]) if w.size else 0.0,
                          None if verdict else vectors, float(spec.tol))


def _bands(m: int):
    """The row bands of m rows, ``_BAND_ROWS`` rows each, made as they are
    asked for.  A 1-row tail joins the band before it (no band starts at
    row m - 1): numpy runs a 1-row product as gemv, whose bits differ
    from gemm's."""
    starts = range(0, max(m - 1, 1), _BAND_ROWS)
    return (slice(a, a + _BAND_ROWS if a + _BAND_ROWS < m - 1 else m) for a in starts)


def _padded(d: int) -> int:
    """d rows or columns rounded up to a multiple of ``_PAD_COLUMNS``."""
    return -(-d // _PAD_COLUMNS) * _PAD_COLUMNS


def sample_blocks(
    source: RealizationSpec | GluedRealization,
    n: int,
    seed: int,
    *,
    real_mode: bool = False,
):
    """Check the arguments and read each spec's ``factor``, then iterate
    over n draws of a spec or a glued pair in bands of at most
    ``_BAND_ROWS + 1`` rows, each a view of one reused buffer that the
    next band overwrites.

    A row is mean + L z for each spec around the constant basepoint
    column, in the realization's labels.  z is standard
    circularly-symmetric complex normal, or standard real normal in real
    mode (real specs only).  All of them come from one
    ``Generator(SFC64(seed))``, the generator of ``verify_realization``'s
    law; a glued pair's specs read disjoint draws of it, so they are
    independent.  Identical (source, seed, n) give bitwise-identical rows.
    A band of k rows is the h x k float64 V of ``_realization``, in one
    reused flat buffer, its q rows of normals drawn in place by one call;
    its rows are ``V.T @ M`` viewed as complex, M's pad columns dropped.
    """
    _check_draw(n, seed, real_mode)
    labels, M, q = _realization(source, real_mode)
    M = M[:, : 2 * len(labels)]
    rng = np.random.Generator(np.random.SFC64(seed))
    buffer = np.empty(len(M) * min(n, _BAND_ROWS + 1))
    out = np.empty((min(n, _BAND_ROWS + 1), len(labels)), complex)

    def rows():
        for band in _bands(n):
            V = buffer[: len(M) * (band.stop - band.start)].reshape(len(M), -1)
            V[0] = 1.0
            rng.standard_normal(out=V[1 : 1 + q])
            V[1 + q :] = 0.0
            X = out[: V.shape[1]]
            np.matmul(V.T, M, out=X.view(np.float64))
            yield X

    return rows()


def _realization(source, real_mode: bool) -> tuple:
    """``(labels, M, q)`` of a spec or a glued pair: its ``full_labels``
    (a spec) or ``labels`` (a pair), its one real map M, and q = r * (sum
    of its specs' dims) normals a column, r = 2, or 1 in real mode, which
    needs real specs and is decided before any ``factor`` is read.  A
    column of a band V is [1; z; 0 pad], h high, h = 1 + q rounded up to a
    multiple of ``_PAD_COLUMNS``: z is each spec's d real parts and,
    unless in real mode, its d imaginary parts, in spec order.  ``V.T @
    M`` is the band's rows as interleaved ``[re, im]`` float columns, then
    zero pad columns up to a multiple of ``_PAD_COLUMNS``.  Row 0 of M
    holds the means, 1.0 at the basepoint.  A spec's rows hold the real
    form of its factor F, ``L.T`` pre-scaled by sqrt(0.5) (``L.real.T`` in
    real mode): on the rows of the real parts ``(Re F, Im F)``, on those
    of the imaginary parts ``(-Im F, Re F)``, in its labels' columns."""
    _check_type((RealizationSpec, GluedRealization), source=source)
    glued = isinstance(source, GluedRealization)
    specs = (source.spec1, source.spec2) if glued else (source,)
    if real_mode and not all(spec.is_real for spec in specs):
        raise InvalidParameterError("real mode requires a real-valued mean and covariance")
    r, i = 1 if real_mode else 2, specs[0].basepoint_index
    coords = sum(spec.dim for spec in specs)
    cols = 2 * np.delete(np.arange(1 + coords), i)
    M = np.zeros((_padded(1 + r * coords), _padded(2 + 2 * coords)))
    M[0, 2 * i], row = 1.0, 1
    for spec in specs:
        d, c, cols = spec.dim, cols[: spec.dim], cols[spec.dim :]
        F = spec.factor.real.T if real_mode else spec.factor.T * math.sqrt(0.5)
        M[0, c], M[0, c + 1] = spec.mean.real, spec.mean.imag
        M[row : row + d, c], M[row : row + d, c + 1] = F.real, F.imag
        if not real_mode:
            M[row + d : row + 2 * d, c], M[row + d : row + 2 * d, c + 1] = -F.imag, F.real
        row += r * d
    return (source.labels if glued else source.full_labels), M, r * coords


def _gram_factor(q: int, n: int, rng) -> np.ndarray:
    """The factor R of the law of n columns ``[1; z; 0 pad]``, z q
    standard normals: h x h, h the height of their band (``_realization``),
    with ``R @ R.T`` their Gram sum over n.  R is the columns'
    lower-trapezoidal LQ factor over sqrt(n), of k = min(1 + q, n)
    columns (Bartlett's triangle; the Gram sum is singular Wishart when
    n < 1 + q): ``R[0, 0] = 1`` and the rest of row 0 zero, so the rows'
    basepoint moment is exactly 1; ``R[j, j] = sqrt(chi2(n - j) / n)`` for
    0 < j < k; normals over sqrt(n) everywhere below the diagonal of the
    first k columns.  ``rng`` draws the chi2 from j = 1, then the normals
    row by row.  The zero pad pins R's products under any BLAS thread
    count."""
    k, h = min(1 + q, n), _padded(1 + q)
    R = np.zeros((h, h))
    R[0, 0] = 1.0
    np.fill_diagonal(R[1:k, 1:k], np.sqrt(rng.chisquare(n - np.arange(1.0, k)) / n))
    below = np.tri(q, k, dtype=bool)
    R[1 : 1 + q, :k][below] = rng.standard_normal(np.count_nonzero(below)) / math.sqrt(n)
    return R


def _moment_sums(rows, labels) -> IndexedKernel:
    """The empirical kernel whose float rows, ``[re, im]`` columns and a
    zero pad, are ``rows``: the quarters of ``rows.T @ rows`` give the sum
    of ``X.T @ X.conj()``, mirrored, so exactly Hermitian, the pad
    dropped.  An entry that is not finite raises ``NumericalFailureError``
    naming its label pair."""
    d = len(labels)
    with np.errstate(over="ignore", invalid="ignore"):
        S = (rows.T @ rows)[: 2 * d, : 2 * d]
        re, im = S[0::2], S[1::2]
        sums = (re[:, 0::2] + im[:, 1::2]) + 1j * (im[:, 0::2] - re[:, 1::2])
    _check_overflow(sums, "the second-moment sum at", labels, labels)
    return IndexedKernel(labels, _lock(_mirror(sums)))


def _null_variance(product: IndexedKernel, x0: str, real_mode: bool):
    """``(m, v)``: m is the product's largest diagonal entry, and ``m**2 * v``
    the exact variance of ``Y_s conj(Y_t)`` for one row Y of the glued
    realization, for every label pair (Isserlis' theorem, with the mean
    ``mu_s = P(s, x0)`` and the basepoint coordinate the constant 1):
    ``P_ss P_tt - |mu_s|^2 |mu_t|^2`` for circular complex draws, and
    ``P_ss P_tt + P_st^2 - 2 mu_s^2 mu_t^2`` in real mode.  Each term is of
    degree 2 in P and is divided by ``m**2`` (``|mu_s|^2`` by m), so v is
    at most about 1 for a PSD product."""
    p = product.entries
    m = float(p.diagonal().real.max())
    d, a = p.diagonal().real / m, np.abs(p[:, product.index(x0)]) ** 2 / m
    v = np.outer(d, d) - np.outer(a, a)
    if real_mode:
        v += np.square(p.real / m) - np.outer(a, a)
    return m, v


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of checking empirical second moments against the product."""

    product: IndexedKernel
    certificate: PsdCertificate
    empirical: IndexedKernel
    max_abs_deviation: float
    mc_tol: float
    n_samples: int
    seed: int
    passed: bool


def verify_realization(
    k1: IndexedKernel,
    k2: IndexedKernel,
    x0: str,
    n: int,
    seed: int,
    mc_tol: float | None = None,
    *,
    tol: float = DEFAULT_PSD_TOL,
    basepoint_tol: float = DEFAULT_BASEPOINT_TOL,
    real_mode: bool = False,
) -> VerificationReport:
    """Full constructive check that gluing preserves positivity.

    Forms the Markov product and splits both kernels at x0.  The product's
    Schur complement at x0 is the direct sum of the two covariances, so its
    ``certificate`` is the spec certificate (``psd_check_schur``, each at
    its own scale) with the smaller eigenvalue; a spec that fails raises
    ``NotPsdError`` before the first draw, so a report's certificate has
    passed, and ``passed`` is the Monte Carlo verdict.  Then draws the
    LQ factor R of n rows' normals, over sqrt(n), from its exact law by
    ``Generator(SFC64(seed))`` (``_gram_factor``), takes their second
    moments from the rows ``R.T @ M`` and compares them entrywise to the
    product.  When ``mc_tol`` is None the pass threshold is ``5 *
    sqrt(v_max / n)``, with ``v_max`` the largest variance of one row's
    ``Y_s conj(Y_t)``, in closed form from the product; a threshold that
    overflows raises ``NumericalFailureError`` before the draw.  Every
    argument is checked before the first eigensolver call.
    """
    _check_type(IndexedKernel, k1=k1, k2=k2)
    if mc_tol is not None:
        _check_tolerance("mc_tol", mc_tol)
    _check_draw(n, seed, real_mode)
    product = markov_product(k1, k2, x0, basepoint_tol=basepoint_tol)
    specs = [schur_reduce(k, x0, tol, basepoint_tol=basepoint_tol) for k in (k1, k2)]
    labels, M, q = _realization(GluedRealization(*specs), real_mode)
    certificate = min(map(psd_check_schur, specs), key=lambda c: c.min_eigenvalue)
    if mc_tol is None:
        m, v = _null_variance(product, x0, real_mode)
        mc_tol = m * (5.0 * math.sqrt(max(v.max(), 0.0) / n))
        if not math.isfinite(mc_tol):
            raise NumericalFailureError(f"the default mc_tol, {m:g} * 5 sqrt(v_max / n) at n = {n}, "
                                        "overflows float64")
    rng = np.random.Generator(np.random.SFC64(seed))
    rows = _gram_factor(q, n, rng).T @ M
    del M  # the rows' size: freed before their moment sum, verify's peak
    empirical = _moment_sums(rows, labels)
    max_dev = float(np.abs(empirical.entries - product.entries).max())
    return VerificationReport(product, certificate, empirical, max_dev, float(mc_tol), n,
                              int(seed), bool(max_dev <= mc_tol))
