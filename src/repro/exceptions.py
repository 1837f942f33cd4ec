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


class EngineClosedError(ReproError):
    """Raised when a closed :class:`~repro.core.sharded.ShardedPrefilter` is used.

    ``close()`` shuts the worker pool down for good; a later ``filter`` (an
    engine query or ``warm`` that misses the r-skyband cache) or ``health``
    would otherwise silently respawn a pool, leaking workers past the
    caller's lifecycle.  Whatever needs no filter run — cache hits,
    ``cache_info``, snapshots, a second ``close()`` — stays usable.
    """


class ShardExecutionError(ReproError):
    """Raised when a shard task stays unrecoverable and serial fallback is disabled.

    The supervised pool (:class:`repro.core.resilient.SupervisedPool`) only
    raises this after walking the whole degradation ladder — retries, pool
    rebuild — with the in-process serial fallback explicitly turned off
    (``--no-fallback``); with the fallback enabled (the default) shard
    failures degrade instead of raising.
    """
