"""Exception types shared across the toolkit.

Every error raised on purpose derives from ToolkitError so callers (and the
command line driver) can tell deliberate rejections apart from genuine bugs.
"""


class ToolkitError(Exception):
    """Base class for all deliberate failures."""


class InvalidDimensionError(ToolkitError, ValueError):
    """A dimension or family index is unusable, or a basis label misspelled."""


class DimensionMismatchError(ToolkitError, ValueError):
    """Two objects that must share a dimension do not."""


class UnsupportedDimensionError(ToolkitError, ValueError):
    """Operation requires a prime dimension and got a composite one."""


class NormalizationError(ToolkitError, ValueError):
    """A state, weight vector or table violates its normalization contract."""


class ConditioningError(ToolkitError, ArithmeticError):
    """A matrix or reference column is too close to singular to invert."""


class DegenerateReferenceError(ConditioningError):
    """The phase reference carries (near) zero amplitude."""


class TagConflictError(ToolkitError, ValueError):
    """A transmission matrix is already tagged with a different scan basis."""


class ConfigError(ToolkitError, ValueError):
    """A scenario configuration is malformed or inconsistent."""


class CertificationFailure(ToolkitError, RuntimeError):
    """A required certification threshold was not met (CI gating)."""


class FormatError(ToolkitError, ValueError):
    """An input file does not follow its documented layout."""
