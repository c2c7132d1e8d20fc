"""Exception taxonomy for kernelglue.

Two branches matter when scripting against the CLI: validation errors
(bad or inconsistent input, exit status 2) and mathematical failures
(a positivity claim or a verification did not hold, exit status 1).
Every concrete class carries a short machine-parsable ``code`` that the
CLI prints as the first token of its single-line error output.
"""


class KernelGlueError(Exception):
    """Base class for every error raised by this package."""

    code = "Error"
    exit_status = 2


class ValidationError(KernelGlueError):
    """Invalid input or a violated precondition (CLI exit status 2)."""


class MathError(KernelGlueError):
    """A mathematical claim failed during computation (CLI exit status 1)."""

    exit_status = 1


class DuplicateLabelError(ValidationError):
    code = "DuplicateLabel"


class DimensionMismatchError(ValidationError):
    code = "DimensionMismatch"


class NotHermitianError(ValidationError):
    code = "NotHermitian"


class NonFiniteError(ValidationError):
    code = "NonFinite"


class IntersectionNotSingletonError(ValidationError):
    code = "IntersectionNotSingleton"


class BasepointNotUnitError(ValidationError):
    code = "BasepointNotUnit"


class LabelNotFoundError(ValidationError):
    code = "LabelNotFound"


class BasepointMismatchError(ValidationError):
    code = "BasepointMismatch"


class LabelCollisionError(ValidationError):
    code = "LabelCollision"


class NotATreeError(ValidationError):
    code = "NotATree"


class InvalidParameterError(ValidationError):
    code = "InvalidParameter"


class FileFormatError(ValidationError):
    """A document does not match the expected schema."""

    code = "FormatError"


class FileParseError(ValidationError):
    """A file is not UTF-8 JSON that this package can read; the message
    starts with the file's path."""

    code = "ParseError"


class NotPsdError(MathError):
    code = "NotPsd"


class NumericalFailureError(MathError):
    code = "NumericalFailure"
