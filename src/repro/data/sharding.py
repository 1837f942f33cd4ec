"""Option-space sharding: disjoint dataset partitions and shared-memory matrices.

The sharded pre-filter (:class:`repro.core.sharded.ShardedPrefilter`)
partitions the *options* of a dataset into ``n_shards`` disjoint shards,
filters every shard in its own worker process, and reconciles the per-shard
candidates in the calling engine.
This module provides the two building blocks that make that cheap:

* **Shard plans** (:class:`ShardSpec`, :func:`plan_shards`) — pure-metadata
  descriptions of a partition.  A spec stores only integers and the strategy
  name, so shipping one to a worker process pickles a few dozen bytes no
  matter how large the dataset is; the worker re-derives its row indices
  locally.  Two strategies exist:

  - ``"contiguous"`` — balanced row ranges ``[i*n//s, (i+1)*n//s)``; a
    shard's rows of the score matrix are a zero-copy slice.
  - ``"hash"`` — rows are assigned by a splitmix64 hash of their positional
    index, decorrelating shard membership from the row order of the file the
    dataset was loaded from.  The assignment depends only on
    ``(n_options, n_shards)``, so it is stable across processes and sessions.

  Every spec maps *back* to the parent: :meth:`ShardSpec.positions` returns
  the parent positional indices of the shard's rows.  A plan is planned for
  one option count; the sharded pre-filter re-plans from the current ``n``
  on every query, so a mutated dataset never meets a stale plan.

* **Shared-memory matrices** (:class:`SharedMatrix`,
  :func:`attach_shared_matrix`) — a 2-D float array placed in
  :mod:`multiprocessing.shared_memory` by the coordinator and *attached* (not
  copied, not pickled) by worker processes.  The sharded filter publishes the
  query's vertex-score matrix this way: workers slice their shard's rows out
  of the one matrix the coordinator computed, which both avoids pickling
  ``O(n)`` arrays per task and guarantees every process sees bit-identical
  scores (a prerequisite for the sharded path's exact-parity contract).
"""

from __future__ import annotations

import atexit
import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError

#: Shard assignment strategies accepted by :func:`plan_shards`.
SHARD_STRATEGIES = ("contiguous", "hash")

#: Name prefix of every shared-memory segment this package creates.  Naming
#: the segments (instead of letting the stdlib pick ``psm_...``) is what lets
#: tests and CI assert "no toprr segment leaked" by listing ``/dev/shm``.
SEGMENT_PREFIX = "toprr_"


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (uint64 in, well-mixed uint64 out)."""
    x = values.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_assignments(n_options: int, n_shards: int) -> np.ndarray:
    """Shard id of every row under the ``"hash"`` strategy (stable, seedless).

    Rows are assigned by ``splitmix64(position) % n_shards``; the mapping is
    a pure function of ``(n_options, n_shards)``, so coordinator and workers
    derive identical partitions without exchanging index arrays.
    """
    return (_splitmix64(np.arange(n_options, dtype=np.uint64)) % np.uint64(n_shards)).astype(int)


@dataclass(frozen=True)
class ShardSpec:
    """Pure-metadata description of one shard of an ``n_options``-row dataset.

    Attributes
    ----------
    shard_id:
        This shard's index in ``range(n_shards)``.
    n_shards:
        Total number of shards in the plan.
    n_options:
        Number of rows of the *parent* dataset (shards re-derive their row
        sets from it, so a spec never carries index arrays).
    strategy:
        ``"contiguous"`` or ``"hash"``.
    """

    shard_id: int
    n_shards: int
    n_options: int
    strategy: str

    def bounds(self) -> Optional[Tuple[int, int]]:
        """``(start, stop)`` row range for contiguous shards, else ``None``."""
        if self.strategy != "contiguous":
            return None
        start = (self.shard_id * self.n_options) // self.n_shards
        stop = ((self.shard_id + 1) * self.n_options) // self.n_shards
        return start, stop

    def positions(self) -> np.ndarray:
        """Parent positional indices of this shard's rows (ascending)."""
        if self.strategy == "contiguous":
            start, stop = self.bounds()
            return np.arange(start, stop)
        return np.flatnonzero(hash_assignments(self.n_options, self.n_shards) == self.shard_id)

    @property
    def n_rows(self) -> int:
        """Number of rows in this shard (may be zero when ``n_shards > n``)."""
        if self.strategy == "contiguous":
            start, stop = self.bounds()
            return stop - start
        return int(self.positions().shape[0])


def plan_shards(n_options: int, n_shards: int, strategy: str = "contiguous") -> List[ShardSpec]:
    """Plan a disjoint partition of ``n_options`` rows into ``n_shards`` shards.

    The union of the shards' :meth:`~ShardSpec.positions` is exactly
    ``range(n_options)`` and shards are pairwise disjoint.  Shards may be
    empty when ``n_shards > n_options``; the sharded filter handles those
    (an empty shard simply contributes no candidates).
    """
    if n_shards <= 0:
        raise InvalidParameterError(f"n_shards must be positive, got {n_shards}")
    if strategy not in SHARD_STRATEGIES:
        raise InvalidParameterError(
            f"unknown shard strategy {strategy!r}; expected one of {SHARD_STRATEGIES}"
        )
    return [ShardSpec(i, n_shards, n_options, strategy) for i in range(n_shards)]


# ---------------------------------------------------------------------- #
# shared-memory matrices
# ---------------------------------------------------------------------- #
#: Owner-side registry of live segments, by name.  Three independent paths
#: release a segment through :func:`_release_segment` (explicit ``unlink``,
#: the owner's ``weakref.finalize``, and the module ``atexit`` hook below);
#: the registry pop makes whichever runs first win and the rest no-ops, so
#: the coordinator unlinks exactly once on *every* exit path — normal
#: return, exception, GC, or interpreter shutdown.
_OWNED_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def _segment_name() -> str:
    """A fresh :data:`SEGMENT_PREFIX` segment name, unique per process."""
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(4)}"


def _release_segment(name: str) -> None:
    """Close and unlink an owned segment by name (idempotent across all paths)."""
    shm = _OWNED_SEGMENTS.pop(name, None)
    if shm is None:
        return
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - mapping already torn down
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - segment already removed
        pass


@atexit.register
def _cleanup_owned_segments() -> None:
    """Interpreter-exit guard: unlink whatever owned segments remain."""
    for name in list(_OWNED_SEGMENTS):
        _release_segment(name)


def leaked_segments() -> List[str]:
    """Names of this package's shared-memory segments present on the host.

    Lists ``/dev/shm`` for :data:`SEGMENT_PREFIX` entries — an empty list
    after a (possibly crashing) sharded run is the no-leak invariant the
    regression tests and the CI post-suite check assert.  Returns an empty
    list on platforms without a ``/dev/shm`` (the check is advisory there).
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux hosts
        return []
    return sorted(entry for entry in os.listdir(shm_dir) if entry.startswith(SEGMENT_PREFIX))


@dataclass(frozen=True)
class SharedMatrixSpec:
    """Picklable handle of a shared-memory matrix (name + shape + dtype).

    This is all a worker needs to attach: no array data ever crosses the
    process boundary, and the pickled size is constant in ``n``.
    """

    name: str
    shape: Tuple[int, int]
    dtype: str


class SharedMatrix:
    """Owner side of a 2-D float64 matrix living in shared memory.

    Created by the sharded coordinator from an in-process array (one copy
    into the segment); workers attach via :func:`attach_shared_matrix` with
    the :attr:`spec` and read the same pages zero-copy.  The owner should
    call :meth:`unlink` (or use the instance as a context manager) when the
    query is done; if it never gets the chance — an exception, a dropped
    reference, interpreter shutdown — the owned segment is still unlinked by
    the finalizer/atexit registry (:func:`_release_segment`), and both
    :meth:`close` and :meth:`unlink` are idempotent so error-path cleanup
    can run on top of normal cleanup safely.
    """

    def __init__(self, shm: shared_memory.SharedMemory, shape: Tuple[int, int], owner: bool):
        self._shm = shm
        self.shape = tuple(int(s) for s in shape)
        self._owner = owner
        self._mapping_closed = False
        self.array = np.ndarray(self.shape, dtype=np.float64, buffer=shm.buf)
        if owner:
            _OWNED_SEGMENTS[shm.name] = shm
            self._finalizer = weakref.finalize(self, _release_segment, shm.name)
        else:
            self._finalizer = None

    @classmethod
    def create_from(cls, matrix: np.ndarray) -> "SharedMatrix":
        """Copy ``matrix`` into a fresh shared-memory segment and own it."""
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise InvalidParameterError(f"shared matrices must be 2-D, got shape {matrix.shape}")
        shm = None
        for _ in range(8):  # name collisions are ~2^-32; retry regardless
            try:
                shm = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=max(matrix.nbytes, 1)
                )
                break
            except FileExistsError:  # pragma: no cover - astronomically rare
                continue
        if shm is None:  # pragma: no cover - astronomically rare
            raise InvalidParameterError("could not allocate a unique shared-memory segment name")
        shared = cls(shm, matrix.shape, owner=True)
        shared.array[:] = matrix
        return shared

    @property
    def spec(self) -> SharedMatrixSpec:
        """The picklable attachment handle for worker processes."""
        return SharedMatrixSpec(name=self._shm.name, shape=self.shape, dtype="float64")

    @property
    def name(self) -> str:
        """The segment name (a :data:`SEGMENT_PREFIX` entry under ``/dev/shm``)."""
        return self._shm.name

    def close(self) -> None:
        """Release this process's mapping (idempotent; the segment survives)."""
        self.array = None
        if self._mapping_closed:
            return
        self._mapping_closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent; safe on error paths)."""
        self.close()
        if not self._owner:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _release_segment(self._shm.name)

    def __enter__(self) -> "SharedMatrix":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


def attach_shared_matrix(spec: SharedMatrixSpec) -> SharedMatrix:
    """Attach to a coordinator-owned shared matrix (worker side, zero-copy).

    The returned :class:`SharedMatrix` wraps the *same* physical pages the
    coordinator wrote; nothing is copied and nothing larger than ``spec``
    was pickled.  Workers should :meth:`~SharedMatrix.close` (not unlink)
    when switching to a different segment.

    Before Python 3.13 attaching registers the segment with the resource
    tracker just like creating does.  That is benign here: pool workers share
    the coordinator's tracker (the tracker fd is inherited on both fork and
    spawn), whose per-name cache is a set — the worker's extra ``register``
    is an idempotent add, and the coordinator's :meth:`~SharedMatrix.unlink`
    removes the single entry.  Do **not** ``resource_tracker.unregister``
    after attaching: with a shared tracker that deletes the coordinator's
    registration and its later ``unlink`` then trips the tracker.
    """
    if spec.dtype != "float64":
        raise InvalidParameterError(f"shared matrices are float64, got {spec.dtype!r}")
    shm = shared_memory.SharedMemory(name=spec.name)
    return SharedMatrix(shm, spec.shape, owner=False)
