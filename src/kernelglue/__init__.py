"""Markov products of positive definite kernels on finite labeled sets.

Two Hermitian PSD kernels sharing exactly one label with unit diagonal
there can be glued into a kernel on the union of their label sets whose
cross entries factor through the shared point.  This package builds that
product, certifies positive semidefiniteness by two independent routes
(eigendecomposition and Schur complement), realizes kernels as Gaussian
processes whose second moments reproduce them, and verifies the gluing
empirically by Monte Carlo.  Tree-shaped iterated gluings and a CLI with
JSON document formats round out the toolkit.
"""

from .errors import (
    BasepointMismatchError,
    BasepointNotUnitError,
    DimensionMismatchError,
    DuplicateLabelError,
    FileFormatError,
    FileParseError,
    IntersectionNotSingletonError,
    InvalidParameterError,
    KernelGlueError,
    LabelCollisionError,
    LabelNotFoundError,
    MathError,
    NonFiniteError,
    NotATreeError,
    NotHermitianError,
    NotPsdError,
    NumericalFailureError,
    ValidationError,
)
from .kernels import (
    DEFAULT_BASEPOINT_TOL,
    DEFAULT_PSD_TOL,
    IndexedKernel,
    PsdCertificate,
    make_kernel,
    markov_product,
    mirror_upper,
    normalize_at_basepoint,
    psd_check_eigen,
)
from .realization import (
    GluedRealization,
    RealizationSpec,
    VerificationReport,
    psd_check_schur,
    sample_blocks,
    schur_reduce,
    verify_realization,
)
from .trees import GluingTree, glue_tree

__version__ = "0.1.0"

__all__ = [
    "BasepointMismatchError",
    "BasepointNotUnitError",
    "DEFAULT_BASEPOINT_TOL",
    "DEFAULT_PSD_TOL",
    "DimensionMismatchError",
    "DuplicateLabelError",
    "FileFormatError",
    "FileParseError",
    "GluedRealization",
    "GluingTree",
    "IndexedKernel",
    "IntersectionNotSingletonError",
    "InvalidParameterError",
    "KernelGlueError",
    "LabelCollisionError",
    "LabelNotFoundError",
    "MathError",
    "NonFiniteError",
    "NotATreeError",
    "NotHermitianError",
    "NotPsdError",
    "NumericalFailureError",
    "PsdCertificate",
    "RealizationSpec",
    "ValidationError",
    "VerificationReport",
    "glue_tree",
    "make_kernel",
    "markov_product",
    "mirror_upper",
    "normalize_at_basepoint",
    "psd_check_eigen",
    "psd_check_schur",
    "sample_blocks",
    "schur_reduce",
    "verify_realization",
    "__version__",
]
