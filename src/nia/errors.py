"""Exception and warning types shared across the package."""


class NiaError(ValueError):
    """Base class for all validation and domain errors raised by nia."""


class CycleDetected(NiaError):
    """The edge relation of an agent graph contains a directed cycle."""


class IndexOutOfRange(NiaError):
    """An agent id or feature index lies outside its declared range."""


class InvalidGraph(NiaError):
    """An agent graph or its file description is malformed."""


class NotAPath(NiaError):
    """An operation restricted to simple paths received a non-path graph."""


class InvalidDimension(NiaError):
    """A size or index parameter violates its validity range."""


class LengthMismatch(NiaError):
    """Two vectors that must have equal length do not."""


class DimensionMismatch(NiaError):
    """Matrix/vector shapes are incompatible."""


class MissingParent(NiaError):
    """A parent logit column required by an agent is not available yet."""


class NonFinite(NiaError):
    """An input array contains NaN or infinity."""


class DomainError(NiaError):
    """A probability argument lies outside [0, 1]."""


class InvalidConfig(NiaError):
    """An experiment configuration is malformed."""


class NotConvergedWarning(UserWarning):
    """A result depends on a fit that did not reach its gradient tolerance."""
