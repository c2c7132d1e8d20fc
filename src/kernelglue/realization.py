"""Gaussian realization of a kernel and Monte Carlo verification.

A PSD kernel with a unit basepoint s0 is realized by a Gaussian family
indexed by the remaining labels, with mean ``K(s, s0)`` and covariance
``K(s, t) - K(s, s0) K(s0, t)``, the Schur complement at s0; pinning the
basepoint coordinate to the constant 1 makes the second moments
``E(X_s conj(X_t))`` reproduce the kernel.  The kernel is PSD exactly
when that covariance is, so ``realize_process`` rejects with
``NotPsdError`` any kernel whose covariance does not factor.  Gluing two
such realizations with independent randomness reproduces the Markov
product, which ``verify_realization`` checks end to end.  Draws come in
blocks of ``_CHUNK_ROWS`` rows from one stream, which fills a batch in
place or, for ``sample_blocks`` and the verification, one reused block,
so their memory does not grow with n.  Each call allocates its scratch
once and every block reuses it, with the same floating-point operations
on the same operands as fresh arrays, so the stream is bitwise the
same.  Draws are circularly-symmetric complex Gaussians (real and
imaginary parts each of variance 1/2), or real ones in real mode.  The
value types here check labels and arrays by the rule of ``kernels``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import (
    BasepointMismatchError,
    DimensionMismatchError,
    EmptyBatchError,
    FactorizationFailureError,
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
    _check_tolerance,
    _labels,
    _lock,
    _psd_eigh,
    markov_product,
    mirror_upper,
    psd_check_eigen,
    schur_reduce,
)

# Fixed tags mixed with the user seed to derive the two independent
# sub-streams of a glued realization.
_STREAM_TAGS = (0x1D872B41, 0x6C8E9CF5)

# Rows per sampling block; 2**11 to 2**16 run equally fast, 2**18 slower.
_CHUNK_ROWS = 1 << 14


def _subseed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((tag, seed)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class RealizationSpec:
    """Mean and centered covariance of the Gaussian realization.

    ``labels`` indexes the non-basepoint coordinates; ``basepoint_index``
    remembers where the basepoint sat in the source kernel's label order
    so sampled batches and glued products line up column-for-column, so
    it is an integer in ``[0, dim]``, and the basepoint is not itself a
    coordinate label.  ``tol`` is the relative PSD tolerance used when
    factoring the covariance.
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
    def factor(self) -> np.ndarray:
        """A matrix L with ``L @ L.conj().T`` equal to the covariance.

        Computed by eigendecomposition; eigenvalues within the PSD
        tolerance of zero are clipped to zero (rank-deficient covariances
        sit exactly on the PSD boundary), anything lower fails.
        """
        target = self.covariance.real if self.is_real else self.covariance
        w, v, scale, verdict = _psd_eigh(target, self.tol)
        if not verdict:
            raise FactorizationFailureError(
                f"covariance has min eigenvalue {w[0]:.6e} below -{self.tol:g}*{scale:g}"
            )
        factor = (v * np.sqrt(np.clip(w, 0.0, None))).astype(np.complex128)
        return _lock(factor)


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

    @property
    def basepoint(self) -> str:
        return self.spec1.basepoint


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Rows of process draws, one column per label, plus the seed used.

    The basepoint column is the constant 1 bitwise, and identical
    (spec, seed, n) inputs reproduce the batch bitwise.
    """

    labels: tuple[str, ...]
    samples: np.ndarray
    seed: int
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        # the caller's array is copied; a sampler hands over (_owned) its own buffer
        labels = _labels(self.labels)
        samples = np.array(self.samples, dtype=np.complex128, order="C", copy=not _owned)
        if samples.ndim != 2 or samples.shape[1] != len(labels):
            raise DimensionMismatchError(
                f"samples of shape {samples.shape} do not match {len(labels)} labels"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "samples", _lock(samples))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def column(self, label: str) -> np.ndarray:
        return self.samples[:, self.labels.index(label)]

    def blocks(self) -> list[np.ndarray]:
        """Views of the rows in the ``_CHUNK_ROWS`` blocks a sampler draws."""
        return np.split(self.samples, range(_CHUNK_ROWS, self.n, _CHUNK_ROWS))


def realize_process(
    k: IndexedKernel,
    s0: str,
    tol: float = DEFAULT_PSD_TOL,
    *,
    basepoint_tol: float = DEFAULT_BASEPOINT_TOL,
) -> RealizationSpec:
    """Build the Gaussian realization spec of a PSD kernel at basepoint s0.

    mean(s) = K(s, s0) and cov(s, t) = K(s, t) - K(s, s0) K(s0, t), the
    Schur complement at s0.  Factoring that covariance is the PSD check:
    the spec comes back with ``factor`` computed, or ``NotPsdError``.
    """
    split = schur_reduce(k, s0, basepoint_tol=basepoint_tol)
    i0 = k.index(s0)
    spec = RealizationSpec(
        labels=k.labels[:i0] + k.labels[i0 + 1 :],
        basepoint=s0,
        mean=split.alpha.conj(),
        covariance=split.schur_complement(),
        basepoint_index=i0,
        tol=tol,
    )
    try:
        spec.factor
    except FactorizationFailureError as exc:
        raise NotPsdError(f"kernel is not PSD at basepoint {s0!r}: {exc}") from exc
    return spec


def glue_realizations(spec1: RealizationSpec, spec2: RealizationSpec) -> GluedRealization:
    """Join two realizations at their common basepoint.

    Sampling the result draws the two components from independent
    randomness streams; the label order matches the Markov product of
    the source kernels.
    """
    return GluedRealization(spec1, spec2)


def _draws(spec: RealizationSpec, rng, m: int, real_mode: bool, scratch) -> tuple:
    """The mean and the m x dim centered draws ``L z`` for the non-basepoint
    labels, written into ``scratch``: z goes into the first buffer, ``zr``
    then ``zi``, and the product into the buffer that holds none of its
    operands."""
    L, d = spec.factor, spec.dim
    z, w = (buffer[: 2 * m * d] for buffer in scratch)
    if real_mode:
        z, w = z[: m * d].reshape(m, d), w[: m * d].reshape(m, d)
        rng.standard_normal(out=z)
        return spec.mean.real, np.matmul(z, L.real.T, out=w)
    zr, zi = z.reshape(2, m, d)
    rng.standard_normal(out=zr)
    rng.standard_normal(out=zi)
    scaled = w.view(complex).reshape(m, d)
    np.multiply(zr, math.sqrt(0.5), out=scaled.real)
    np.multiply(zi, math.sqrt(0.5), out=scaled.imag)
    return spec.mean, np.matmul(scaled, L.T, out=z.view(complex).reshape(m, d))


def _place(block: np.ndarray, specs, rngs, real_mode: bool, scratch) -> np.ndarray:
    """Fill a block: the first spec around its basepoint column of ones, then any second."""
    m, i, stop = len(block), specs[0].basepoint_index, specs[0].dim + 1
    mean, y = _draws(specs[0], rngs[0], m, real_mode, scratch)
    np.add(mean[:i], y[:, :i], out=block[:, :i])
    block[:, i] = 1.0
    np.add(mean[i:], y[:, i:], out=block[:, i + 1 : stop])
    if len(specs) == 2:
        mean, y = _draws(specs[1], rngs[1], m, real_mode, scratch)
        np.add(mean, y, out=block[:, stop:])
    return block


def _blocks(specs, n: int, seed: int, real_mode: bool, out: np.ndarray | None = None):
    """Check the arguments, seed one stream per spec (a glued pair from one
    sub-seed each) and return an iterator over the n rows in filled blocks
    of ``_CHUNK_ROWS``, ``zr`` then ``zi`` per block: the block at row i is
    a view of ``out`` at row i if it holds all n rows, else of one buffer."""
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    if real_mode and not all(spec.is_real for spec in specs):
        raise InvalidParameterError("real mode requires a real-valued mean and covariance")
    seeds = [seed] if len(specs) == 1 else [_subseed(seed, tag) for tag in _STREAM_TAGS]
    rngs = [np.random.default_rng(s) for s in seeds]
    size = 2 * min(n, _CHUNK_ROWS) * max(spec.dim for spec in specs)
    scratch = np.empty(size), np.empty(size)
    if out is None:
        out = np.empty((min(n, _CHUNK_ROWS), 1 + sum(spec.dim for spec in specs)), complex)
    views = (out[i % len(out) :][: min(n - i, _CHUNK_ROWS)] for i in range(0, n, _CHUNK_ROWS))
    return (_place(view, specs, rngs, real_mode, scratch) for view in views)


def _sample(specs, labels, n: int, seed: int, real_mode: bool) -> SampleBatch:
    """The n-row batch, allocated once and filled in place by ``_blocks``."""
    samples = np.empty((max(n, 0), len(labels)), complex)  # _blocks rejects n < 1
    for _ in _blocks(specs, n, seed, real_mode, samples):
        pass
    return SampleBatch(labels, samples, seed, _owned=True)


def sample_blocks(spec: RealizationSpec, n: int, seed: int, *, real_mode: bool = False):
    """The rows of ``sample_realization``, checked now, drawn into one reused block."""
    return _blocks((spec,), n, seed, real_mode)


def sample_realization(
    spec: RealizationSpec,
    n: int,
    seed: int,
    *,
    real_mode: bool = False,
) -> SampleBatch:
    """Draw n realizations: row = mean + L z, plus the constant basepoint.

    z has independent standard circularly-symmetric complex normal
    entries (or standard real normals in real mode, legal only for
    real-valued specs).  Identical (spec, seed, n) give bitwise-identical
    batches.
    """
    return _sample((spec,), spec.full_labels, n, seed, real_mode)


def sample_glued(
    glued: GluedRealization,
    n: int,
    seed: int,
    *,
    real_mode: bool = False,
) -> SampleBatch:
    """Sample a glued realization with two independent sub-streams.

    Sub-seeds are derived by mixing the user seed with two fixed tag
    constants through a deterministic splitting function, so runs are
    reproducible while the component processes stay independent.  Both
    components are written into one batch allocated at its final size.
    """
    return _sample((glued.spec1, glued.spec2), glued.labels, n, seed, real_mode)


def _moment_sums(blocks, labels, n: int, fourth: bool = False):
    """Sums over all n rows of ``X.T @ X.conj()`` and, if ``fourth``, of
    ``A.T @ A`` with ``A = |X|**2``, added block by block in order.

    The Gram sum is taken as the real ``V.T @ V`` of ``V``, the
    C-contiguous block viewed as its ``[re, im]`` float columns, which
    numpy runs as a symmetric rank-k update (half the flops of the
    complex product and no conjugate copy); its four interleaved
    quarters give the complex sum after the last block.  ``A`` is
    written into one buffer that every block reuses.  The sums run with
    numpy's overflow warnings off and are checked once at the end: a sum
    that is not finite raises ``NumericalFailureError`` naming its label
    pair.
    """
    if n < 2:
        raise EmptyBatchError(f"need at least 2 rows to estimate moments, got {n}")
    real_gram = quartic = buffer = None
    with np.errstate(over="ignore", invalid="ignore"):
        for X in blocks:
            V = X.view(np.float64)
            g = V.T @ V
            real_gram = g if real_gram is None else np.add(real_gram, g, out=real_gram)
            if fourth:
                buffer = np.empty(X.shape) if buffer is None else buffer
                a2 = buffer[: len(X)]
                np.square(np.abs(X, out=a2), out=a2)
                q = a2.T @ a2
                quartic = q if quartic is None else np.add(quartic, q, out=quartic)
        re, im = real_gram[0::2], real_gram[1::2]
        gram = (re[:, 0::2] + im[:, 1::2]) + 1j * (im[:, 0::2] - re[:, 1::2])
    for order, total in (("second", gram), ("fourth", quartic)):
        if total is not None and not np.isfinite(total).all():
            i, j = np.argwhere(~np.isfinite(total))[0]
            raise NumericalFailureError(
                f"the {order}-moment sum at ({labels[i]!r}, {labels[j]!r}) overflows float64"
            )
    return gram, quartic


def estimate_second_moments(batch: SampleBatch) -> IndexedKernel:
    """Empirical kernel: entry(s, t) = mean over rows of Y_s conj(Y_t).

    Summed over the row blocks ``verify_realization`` uses, to the same
    bits.  The upper triangle is mirrored by conjugation, so the output
    is exactly Hermitian (and PSD, being an empirical Gram matrix); the
    basepoint diagonal comes out exactly 1.
    """
    gram, _ = _moment_sums(batch.blocks(), batch.labels, batch.n)
    return IndexedKernel(batch.labels, mirror_upper(gram / batch.n))


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

    Forms the Markov product and its PSD certificate, samples the glued
    realization block by block, sums second moments as it goes, and
    compares them entrywise to the exact product.  When ``mc_tol`` is
    None the pass threshold is ``5 * sqrt(v_max / n)`` with ``v_max`` the
    largest per-entry sample variance, summed from the same draws.
    """
    if mc_tol is not None:
        _check_tolerance("mc_tol", mc_tol)
    product = markov_product(k1, k2, x0, basepoint_tol=basepoint_tol)
    certificate = psd_check_eigen(product, tol)
    spec1 = realize_process(k1, x0, tol, basepoint_tol=basepoint_tol)
    spec2 = realize_process(k2, x0, tol, basepoint_tol=basepoint_tol)
    glued = glue_realizations(spec1, spec2)
    blocks = _blocks((spec1, spec2), n, seed, real_mode)
    gram, quartic = _moment_sums(blocks, glued.labels, n, fourth=mc_tol is None)
    empirical = IndexedKernel(glued.labels, mirror_upper(gram / n))
    max_dev = float(np.abs(empirical.entries - product.entries).max())
    if mc_tol is None:
        var = quartic / n - np.abs(empirical.entries) ** 2
        mc_tol = 5.0 * math.sqrt(max(var.max(), 0.0) / n)
    passed = bool(certificate.verdict and max_dev <= mc_tol)
    return VerificationReport(
        product=product,
        certificate=certificate,
        empirical=empirical,
        max_abs_deviation=max_dev,
        mc_tol=float(mc_tol),
        n_samples=n,
        seed=int(seed),
        passed=passed,
    )
