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
alone.  Both draw the normals of n rows in bands of about
``_BAND_ROWS`` rows (``_draw_bands``), each band drawing its own normals
from SFC64 straight into one reused buffer, one column per row, so
memory does not grow with n.  A band's rows are ``V.T @ M`` for its
normals V, with M the one real map of the specs (``_band_map``):
``sample_blocks`` forms them so, and ``verify_realization`` never does.
It adds the Gram matrix ``V @ V.T`` of each band while it is in cache,
maps the sum once through M to the rows' second moments, in its one
moment sum (``_moment_sums``), and takes its threshold's variance in
closed form.  The zero pad rows of the band and the zero pad columns of
M make the moment sums the same under any BLAS thread count (the
eigensolver's factor need not be, at any size).  Draws
are circularly-symmetric complex Gaussians (real and imaginary parts
each of variance 1/2), or real ones in real mode.
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
    EmptyBatchError,
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

# Fixed tags mixed with the user seed to derive the two independent
# sub-streams of a glued realization.
_STREAM_TAGS = (0x1D872B41, 0x6C8E9CF5)

# Rows per band, drawn, placed and summed while in cache.  Each band draws
# its own normals, so this fixes the stream, and a run is reproducible per
# (seed, n).
_BAND_ROWS = 1 << 10

# A band is a multiple of this many float rows high, and the map a multiple
# of this many float columns wide, their pad zero.  OpenBLAS orders the sums
# of a Gram update and of a product by thread count at some widths, not at a
# multiple of 8.
_PAD_COLUMNS = 8


def _subseed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((tag, seed)).generate_state(1, np.uint64)[0])


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must fit in 64 unsigned bits, got {seed!r}")


def _check_count(n) -> None:
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise InvalidParameterError(f"sample count must be an integer, got {n!r}")
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")


def _check_rows(n) -> None:
    """A moment estimate's row count: a sample count of at least 2."""
    _check_count(n)
    if n < 2:
        raise EmptyBatchError(f"need at least 2 rows to estimate moments, got {n}")


def _check_draw(n, seed, real_mode, arrays) -> None:
    """A draw's arguments: a sample count, a seed, and a bool ``real_mode``
    (numpy's too), which needs every array of ``arrays`` real-valued."""
    _check_count(n)
    _check_seed(seed)
    if not isinstance(real_mode, (bool, np.bool_)):
        raise InvalidParameterError(f"real_mode must be a bool, got {real_mode!r}")
    if real_mode and any(np.any(a.imag) for a in arrays):
        raise InvalidParameterError("real mode requires a real-valued mean and covariance")


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
        """L with ``L @ L.conj().T`` the covariance, or ``NotPsdError``, as ``_schur`` decides."""
        w, scale, verdict, factor = self._schur
        if not verdict:
            raise NotPsdError(f"kernel is not PSD at basepoint {self.basepoint!r}: covariance "
                              f"has min eigenvalue {w[0]:.6e} below -{self.tol:g}*{scale:g}")
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
    """Check the arguments and each spec's ``factor``, then iterate over
    n draws of a spec or a glued pair in bands of at most
    ``_BAND_ROWS + 1`` rows, each a view of one reused buffer that the
    next band overwrites.

    A row is mean + L z for each spec around the constant basepoint
    column, in ``full_labels`` (a spec) or ``labels`` (a glued pair)
    order.  z is standard circularly-symmetric complex normal, its real
    and imaginary parts drawn per band, or standard real normal in real
    mode (real specs only).  Each spec draws from its own SFC64
    generator, seeded through ``SeedSequence`` by the seed, or for a
    glued pair by two sub-seeds, the seed mixed with two fixed tags.
    Identical (source, seed, n) give bitwise-identical rows.
    """
    M, bands = _draw_bands(source, n, seed, real_mode)
    labels = source.labels if isinstance(source, GluedRealization) else source.full_labels
    out = np.empty((min(n, _BAND_ROWS + 1), len(labels)), complex)
    M = M[:, : 2 * len(labels)]

    def rows():
        for V in bands:
            X = out[: V.shape[1]]
            np.matmul(V.T, M, out=X.view(np.float64))
            yield X

    return rows()


def _draw_bands(source, n, seed, real_mode: bool):
    """Check the arguments of ``sample_blocks`` and read every spec's
    factor once; return the ``_band_map`` M of the specs and an iterator
    over the bands of normals, each drawn when asked for into one reused
    flat buffer.

    A band of k rows is V, h x k float64 and C-contiguous, with h = 1 +
    r * (sum of dims) rounded up to a multiple of ``_PAD_COLUMNS``, r = 2,
    or 1 in real mode: a row of ones, then each spec's d rows of the real
    parts of its normals and, unless in real mode, its d rows of their
    imaginary parts, then zero pad rows.  Per band and spec, the r * k * d
    normals are drawn straight into the spec's rows by one call.  A
    band's rows are ``V.T @ M`` viewed as complex."""
    if not isinstance(source, (RealizationSpec, GluedRealization)):
        raise InvalidParameterError(f"cannot sample an object of type {type(source).__name__}")
    specs = (source.spec1, source.spec2) if isinstance(source, GluedRealization) else (source,)
    _check_draw(n, seed, real_mode, [a for spec in specs for a in (spec.mean, spec.covariance)])
    M = _band_map(specs, real_mode)
    seeds = [seed] if len(specs) == 1 else [_subseed(seed, tag) for tag in _STREAM_TAGS]
    rngs = [np.random.Generator(np.random.SFC64(s)) for s in seeds]
    heights = [spec.dim * (1 if real_mode else 2) for spec in specs]
    buffer = np.empty(len(M) * min(n, _BAND_ROWS + 1))

    def bands():
        for rows in _bands(n):
            V = buffer[: len(M) * (rows.stop - rows.start)].reshape(len(M), -1)
            V[0], row = 1.0, 1
            for height, rng in zip(heights, rngs):
                rng.standard_normal(out=V[row : row + height])
                row += height
            V[row:] = 0.0
            yield V

    return M, bands()


def _band_map(specs, real_mode: bool) -> np.ndarray:
    """M, as high as a band V (``_draw_bands``), with ``V.T @ M`` the
    band's rows as interleaved ``[re, im]`` float columns, then zero pad
    columns up to a multiple of ``_PAD_COLUMNS``.  Row 0 holds the means,
    1.0 at the basepoint.  A spec's rows hold the real form of its factor
    F, ``L.T`` pre-scaled by sqrt(0.5) (``L.real.T`` in real mode): on the
    rows of the real parts ``(Re F, Im F)``, on those of the imaginary
    parts ``(-Im F, Re F)``, in its labels' columns."""
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
    return M


def _moment_sums(bands, M, labels) -> IndexedKernel:
    """The empirical kernel of the rows ``V.T @ M`` of bands of normals V:
    the sum over all rows of ``X.T @ X.conj()``, divided by the row count
    and mirrored, so it is exactly Hermitian (and PSD, being an empirical
    Gram matrix), and a basepoint column of ones gives a diagonal entry of
    exactly 1.  A band is a C-contiguous float array, one column per row,
    as high as M, a multiple of ``_PAD_COLUMNS``; the rows' first
    ``len(labels)`` complex columns are the labels'.

    The rows are linear in the normals, so their real Gram sum is ``M.T @
    G @ M`` for G the sum of ``V @ V.T``, mapped once after the last band.
    G is added band by band in order, which numpy runs as a symmetric
    rank-k update; the four interleaved quarters of the map give the
    complex sums.  OpenBLAS orders the sums of such an update, and of a
    product, by thread count for some widths, and not for a multiple of 8
    columns: the padded band and the padded map make every sum the same
    under any BLAS thread count, and the pad's rows and columns are
    dropped at the end.  The sums run with numpy's overflow warnings off
    and are checked once at the end: an entry that is not finite raises
    ``NumericalFailureError`` naming its label pair.
    """
    gram = None
    rows, d = 0, len(labels)
    with np.errstate(over="ignore", invalid="ignore"):
        for V in bands:
            rows += V.shape[1]
            g = V @ V.T
            gram = g if gram is None else np.add(gram, g, out=gram)
        S = M.T @ gram @ M
        re, im = S[0::2], S[1::2]
        sums = ((re[:, 0::2] + im[:, 1::2]) + 1j * (im[:, 0::2] - re[:, 1::2]))[:d, :d]
    _check_overflow(sums, "the second-moment sum at", labels, labels)
    return IndexedKernel(labels, _lock(_mirror(sums / rows)))


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
    glued realization's normals band by band, sums their Gram matrix as
    it goes, maps the sum to the rows' second moments, and compares them
    entrywise to the exact product.  When ``mc_tol`` is
    None the pass threshold is ``5 * sqrt(v_max / n)``, with ``v_max`` the
    largest variance of one row's ``Y_s conj(Y_t)``, in closed form from
    the product.  Every argument is checked before the first eigensolver call.
    """
    _check_type(IndexedKernel, k1=k1, k2=k2)
    if mc_tol is not None:
        _check_tolerance("mc_tol", mc_tol)
    _check_draw(n, seed, real_mode, (k1.entries, k2.entries))
    _check_rows(n)
    product = markov_product(k1, k2, x0, basepoint_tol=basepoint_tol)
    glued = GluedRealization(*(schur_reduce(k, x0, tol, basepoint_tol=basepoint_tol)
                               for k in (k1, k2)))
    certificate = min(map(psd_check_schur, (glued.spec1, glued.spec2)),
                      key=lambda c: c.min_eigenvalue)
    M, bands = _draw_bands(glued, n, seed, real_mode)
    empirical = _moment_sums(bands, M, glued.labels)
    max_dev = float(np.abs(empirical.entries - product.entries).max())
    if mc_tol is None:
        m, v = _null_variance(product, x0, real_mode)
        mc_tol = 5.0 * m * math.sqrt(max(v.max(), 0.0) / n)
    passed = bool(max_dev <= mc_tol)
    return VerificationReport(product, certificate, empirical, max_dev, float(mc_tol), n,
                              int(seed), passed)
