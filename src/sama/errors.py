"""Exception hierarchy shared by every sama module."""


class SamaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SamaError):
    """Invalid or inconsistent sampler configuration."""


class UnsupportedFormat(SamaError):
    """File is recognised but uses a feature this codec does not handle."""


class CorruptFile(SamaError):
    """File payload is truncated, inconsistent, or fails checksums."""


class MixedDimensions(SamaError):
    """Frames of one clip do not share a single resolution."""


class EmptyClip(SamaError):
    """A clip directory contained no usable frames."""


class InsufficientFrames(SamaError):
    """Clip is too short for the requested snippet split."""


class InputTooSmall(SamaError):
    """Input min-side is below the pyramid target; upscale first."""


class GridTooFine(SamaError):
    """More grid cells than pixels along one axis."""


class CellSmallerThanFragment(SamaError):
    """A grid cell cannot contain one fragment; signals a pipeline bug."""


class IndivisibleDims(SamaError):
    """Mask block size does not tile the output dimensions."""


class BadArity(SamaError):
    """Schedule length, level count, and frame count do not line up."""


class DimMismatch(SamaError):
    """Operands do not share the dimensions an operation requires."""


class NonFiniteInput(SamaError):
    """NaN or infinity in a numeric kernel input."""
