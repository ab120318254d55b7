"""Exception types shared across the library."""


class ClosureError(Exception):
    """Base class for all library errors."""


class MissingPoint(ClosureError):
    """A point id is not part of the space it is used with."""


class NotReflexive(ClosureError):
    """A closure mapping violates x in c(x)."""


class NotContinuous(ClosureError):
    """A candidate map fails the singleton continuity criterion."""


class BadParameter(ClosureError):
    """An argument is outside its documented range."""


class NegativeEpsilon(ClosureError):
    """A scale parameter must be nonnegative."""


class SourceTargetMismatch(ClosureError):
    """Two maps were expected to share source and target."""


class BoundExceeded(ClosureError):
    """A bounded search ran out of budget before deciding the question."""


class DimensionTooLarge(ClosureError):
    """A requested degree exceeds the configured enumeration cap."""


class DegreeOutOfRange(ClosureError):
    """A chain complex does not carry the degrees needed for the request."""


class InfinityMismatch(ClosureError):
    """Two diagrams carry different numbers of infinite bars."""


class NotACorrespondence(ClosureError):
    """A relation is not surjective onto both point sets."""


class CapExceeded(ClosureError):
    """An enumeration would exceed the configured size cap."""


class ShapeMismatch(ClosureError):
    """Matrix shapes do not chain correctly."""


class ParseError(ClosureError):
    """An input file does not conform to its format."""
