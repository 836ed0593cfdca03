"""Exception types shared across the library."""


class MatproxError(Exception):
    """Base class for all errors raised by this package."""


class InputShapeError(MatproxError):
    """Two operands have incompatible dimensions or lengths."""


class DegenerateSpaceError(MatproxError):
    """An operation needs at least two points but the space has one."""


class MetricAxiomError(MatproxError):
    """A distance matrix violates symmetry, positivity or the triangle inequality."""


class ConfigError(MatproxError):
    """An experiment descriptor or configuration value is invalid."""


class ScaleUnderflowError(ConfigError):
    """A net spacing or tolerance is below the smallest normal float, so the
    quantities divided by it are no longer accurate."""


class ScaleOverflowError(ConfigError):
    """A value overflows.  Raised by ``bridge.estimate_reach_lower``, before
    its descent starts, for a net so wide that the descent's scalar
    minimiser could overflow, and by ``lseminorm.leibniz_suites``, for
    residuals that overflow at an extreme beta/delta ratio (the ``leibniz``
    command then names ``ratios``)."""


class CorollaryModeViolation(MatproxError):
    """A tolerance beta exceeds the minimum separation while the pair is
    flagged for the beta/delta <= 1 regime (the one with Leibniz constant 2)."""
