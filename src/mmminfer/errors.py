"""Exception hierarchy shared across the package."""


class MmmInferError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSubset(MmmInferError):
    """A treatment arm is empty (or too small) within the requested subset."""


class ZeroVariance(MmmInferError):
    """All residuals are zero; no variance scale can be estimated."""


class Separation(MmmInferError):
    """A treatment arm has all-zero or all-one responses; the closed-form logit
    MLE, a log cross-product ratio, is infinite."""


class NotPSD(MmmInferError):
    """Matrix is not positive semi-definite within tolerance."""


class MismatchedSubjectAxis(MmmInferError):
    """Models being stacked were not fitted on a common subject axis."""


class DegenerateVariance(MmmInferError):
    """A stacked model has zero empirical score variance."""


class InconsistentTotals(MmmInferError):
    """Count-table rows imply different subject totals across endpoints."""


class IncompatibleMethod(MmmInferError):
    """The requested procedure cannot be applied to this scenario."""


class SchemaError(MmmInferError):
    """An input file references columns or fields that do not exist."""
