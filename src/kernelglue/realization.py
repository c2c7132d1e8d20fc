"""Gaussian realization of a kernel and Monte Carlo verification.

A PSD kernel with a unit basepoint s0 is realized by a Gaussian family
indexed by the remaining labels, with mean ``K(s, s0)`` and covariance
``K(s, t) - K(s, s0) K(s0, t)``, the Schur complement at s0; pinning the
basepoint coordinate to the constant 1 makes the second moments
``E(X_s conj(X_t))`` reproduce the kernel.  The kernel is PSD exactly
when that covariance is, so ``realize_process`` rejects with
``NotPsdError`` any kernel whose covariance does not factor.  Gluing two
such realizations with independent randomness (both written into one
batch, assembled once) and estimating second moments empirically
reproduces the Markov product, which is what ``verify_realization``
checks end to end.

Centered draws are circularly-symmetric complex Gaussians (real and
imaginary parts each of variance 1/2), so only the Hermitian covariance
matters; a real mode is available for real-valued kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BasepointMismatchError,
    DimensionMismatchError,
    EmptyBatchError,
    FactorizationFailureError,
    InvalidParameterError,
    LabelCollisionError,
    NotPsdError,
)
from .kernels import (
    DEFAULT_BASEPOINT_TOL,
    DEFAULT_PSD_TOL,
    IndexedKernel,
    PsdCertificate,
    _check_hermitian,
    _check_tolerance,
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


def _subseed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((tag, seed)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class RealizationSpec:
    """Mean and centered covariance of the Gaussian realization.

    ``labels`` indexes the non-basepoint coordinates; ``basepoint_index``
    remembers where the basepoint sat in the source kernel's label order
    so sampled batches and glued products line up column-for-column.
    ``tol`` is the relative PSD tolerance used when factoring the
    covariance.
    """

    labels: tuple[str, ...]
    basepoint: str
    mean: np.ndarray
    covariance: np.ndarray
    basepoint_index: int = 0
    tol: float = DEFAULT_PSD_TOL

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        mean = np.array(self.mean, dtype=np.complex128).reshape(-1)
        cov = np.array(self.covariance, dtype=np.complex128)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionMismatchError(f"covariance must be square, got {cov.shape}")
        if not (len(labels) == mean.shape[0] == cov.shape[0]):
            raise DimensionMismatchError(
                f"{len(labels)} labels, mean of length {mean.shape[0]}, "
                f"covariance {cov.shape[0]}x{cov.shape[0]}"
            )
        _check_hermitian(cov, "covariance")
        if not 0 <= self.basepoint_index <= len(labels):
            raise InvalidParameterError(
                f"basepoint_index {self.basepoint_index} out of range"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mean", _lock(mean))
        object.__setattr__(self, "covariance", _lock(cov))

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
    """Two realizations sharing a basepoint, sampled independently."""

    spec1: RealizationSpec
    spec2: RealizationSpec
    labels: tuple[str, ...]

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

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.complex128)
        if samples.ndim != 2 or samples.shape[1] != len(self.labels):
            raise DimensionMismatchError(
                f"samples of shape {samples.shape} do not match {len(self.labels)} labels"
            )
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "samples", _lock(samples))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def column(self, label: str) -> np.ndarray:
        return self.samples[:, self.labels.index(label)]


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
    if spec1.basepoint != spec2.basepoint:
        raise BasepointMismatchError(
            f"basepoints differ: {spec1.basepoint!r} vs {spec2.basepoint!r}"
        )
    collision = set(spec1.labels) & set(spec2.labels)
    if collision:
        raise LabelCollisionError(
            f"non-basepoint labels shared by both realizations: {sorted(collision)}"
        )
    labels = spec1.full_labels + spec2.labels
    return GluedRealization(spec1, spec2, labels)


def _draws(spec: RealizationSpec, n: int, seed: int, real_mode: bool) -> np.ndarray:
    """The n x dim draws ``mean + L z`` for the non-basepoint labels."""
    L = spec.factor
    rng = np.random.default_rng(seed)
    if real_mode:
        if not spec.is_real:
            raise InvalidParameterError(
                "real mode requires a real-valued mean and covariance"
            )
        z = rng.standard_normal((n, spec.dim))
        return spec.mean.real + z @ L.real.T
    zr = rng.standard_normal((n, spec.dim))
    zi = rng.standard_normal((n, spec.dim))
    z = (zr + 1j * zi) * math.sqrt(0.5)
    return spec.mean + z @ L.T


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
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    draws = _draws(spec, n, seed, real_mode)
    samples = np.insert(draws, spec.basepoint_index, 1.0, axis=1)
    return SampleBatch(spec.full_labels, samples, seed)


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
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    spec1, spec2 = glued.spec1, glued.spec2
    i, d1 = spec1.basepoint_index, spec1.dim + 1
    samples = np.empty((n, len(glued.labels)), dtype=np.complex128)
    draws1 = _draws(spec1, n, _subseed(seed, _STREAM_TAGS[0]), real_mode)
    samples[:, :i] = draws1[:, :i]
    samples[:, i] = 1.0
    samples[:, i + 1 : d1] = draws1[:, i:]
    del draws1  # freed before the second draw, which lowers the peak
    samples[:, d1:] = _draws(spec2, n, _subseed(seed, _STREAM_TAGS[1]), real_mode)
    return SampleBatch(glued.labels, samples, seed)


def estimate_second_moments(batch: SampleBatch) -> IndexedKernel:
    """Empirical kernel: entry(s, t) = mean over rows of Y_s conj(Y_t).

    The upper triangle is computed and mirrored by conjugation, so the
    output is exactly Hermitian (and PSD, being an empirical Gram
    matrix); the basepoint diagonal comes out exactly 1.
    """
    if batch.n < 2:
        raise EmptyBatchError(f"need at least 2 rows to estimate moments, got {batch.n}")
    X = batch.samples
    gram = (X.T @ X.conj()) / batch.n
    return IndexedKernel(batch.labels, mirror_upper(gram))


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


def _max_entry_variance(batch: SampleBatch, moments: IndexedKernel) -> float:
    """Largest per-entry sample variance of Y_s conj(Y_t) across the batch."""
    a2 = np.abs(batch.samples) ** 2
    second = (a2.T @ a2) / batch.n
    var = second - np.abs(moments.entries) ** 2
    return float(max(var.max(), 0.0))


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
    realization, estimates second moments, and compares them entrywise
    to the exact product.  When ``mc_tol`` is None the pass threshold is
    ``5 * sqrt(v_max / n)`` with ``v_max`` the largest per-entry sample
    variance estimated from the batch.
    """
    if mc_tol is not None:
        _check_tolerance("mc_tol", mc_tol)
    product = markov_product(k1, k2, x0, basepoint_tol=basepoint_tol)
    certificate = psd_check_eigen(product, tol)
    spec1 = realize_process(k1, x0, tol, basepoint_tol=basepoint_tol)
    spec2 = realize_process(k2, x0, tol, basepoint_tol=basepoint_tol)
    glued = glue_realizations(spec1, spec2)
    batch = sample_glued(glued, n, seed, real_mode=real_mode)
    empirical = estimate_second_moments(batch)
    if empirical.labels != product.labels:
        raise DimensionMismatchError(
            "internal label order mismatch between product and glued samples"
        )
    max_dev = float(np.abs(empirical.entries - product.entries).max())
    if mc_tol is None:
        v_max = _max_entry_variance(batch, empirical)
        mc_tol = 5.0 * math.sqrt(v_max / batch.n)
    passed = bool(certificate.verdict and max_dev <= mc_tol)
    return VerificationReport(
        product=product,
        certificate=certificate,
        empirical=empirical,
        max_abs_deviation=max_dev,
        mc_tol=float(mc_tol),
        n_samples=batch.n,
        seed=int(seed),
        passed=passed,
    )
