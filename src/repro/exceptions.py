"""Exception hierarchy used across the TopRR reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ReproError):
    """Raised when arrays of incompatible dimensionality are combined."""


class EmptyRegionError(ReproError):
    """Raised when an operation requires a non-empty region but got an empty one."""


class DegeneratePolytopeError(ReproError):
    """Raised when a polytope is too degenerate (lower-dimensional) for the operation."""


class InfeasibleProblemError(ReproError):
    """Raised when an optimisation problem (LP/QP) has no feasible point."""


class InvalidParameterError(ReproError):
    """Raised when a user-supplied parameter is out of its valid domain."""


class SerializationError(InvalidParameterError):
    """Raised when a serialised document cannot be (safely) reconstructed.

    Covers every refusal of :mod:`repro.core.serialization`: wrong or
    truncated/corrupt payloads, schema versions newer than this library
    reads, legacy documents that no longer carry enough data for an exact
    reconstruction, and engine snapshots whose recorded dataset does not
    match the dataset the restoring engine is bound to.  Loading never
    silently degrades — it either round-trips byte-exactly or raises this.
    Subclasses :class:`InvalidParameterError` so callers that predate the
    split keep catching load failures under the older type.
    """

