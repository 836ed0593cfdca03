"""Exception types shared across the library."""


class MatproxError(Exception):
    """Base class for all errors raised by this package."""


class InputShapeError(MatproxError):
    """Two operands have incompatible dimensions or lengths."""


class DegenerateSpaceError(MatproxError):
    """An operation needs at least two points but the space has one."""


class EmptySetError(MatproxError):
    """A subset argument that must be nonempty is empty."""


class MetricAxiomError(MatproxError):
    """A distance matrix violates symmetry, positivity or the triangle inequality."""


class ConfigError(MatproxError):
    """An experiment descriptor or configuration value is invalid."""


class ScaleUnderflowError(ConfigError):
    """A net spacing or tolerance is below the smallest normal float, so the
    quantities divided by it are no longer accurate."""


class ScaleOverflowError(ConfigError):
    """A net is so large that products of its distances in the reach
    descent's scalar minimiser overflow."""


class SelfAdjointnessError(MatproxError):
    """An element expected to be self-adjoint is not."""


class CorollaryModeViolation(MatproxError):
    """A tolerance beta exceeds the minimum separation while the pair is
    flagged for the beta/delta <= 1 regime (the one with Leibniz constant 2)."""


class ActionNotIsometricError(MatproxError):
    """A permutation supplied as a symmetry does not preserve the distance matrix."""
