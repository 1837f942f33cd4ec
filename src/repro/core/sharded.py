"""Option-space sharded TopRR solving (the path to 10M+ option catalogues).

The region-parallel scheme of :mod:`repro.core.parallel` chops the
*preference region*; this module chops the *option set*.  The observation
that makes it exact is that the r-skyband — the pre-filter every solver runs
first, and the stage whose cost grows with the catalogue size ``n`` — is
*decomposable over disjoint option shards*:

    For any partition of ``D`` into shards ``D_1, ..., D_s``, the global
    r-skyband of ``D`` equals the r-skyband of the union of the per-shard
    r-skybands (dominator counts taken within the union).

*Proof sketch.*  An option in the global r-skyband has fewer than ``k``
r-dominators in ``D``, hence fewer than ``k`` within its own shard, so it
survives its shard's filter: the candidate union covers the global skyband.
Conversely, take ``p`` with at least ``k`` dominators in ``D`` and consider
the set ``S`` of its dominators.  Any *maximal* element of ``S`` that was
dropped by its shard has at least ``k`` same-shard dominators, which
r-dominate ``p`` transitively and dominate the dropped element —
contradicting maximality — so every maximal dominator survives, and either
way at least ``k`` members of ``S`` are in the union.  Counting within the
union therefore reproduces every keep/drop decision of the global filter.
(The sort-based skyband in :mod:`repro.topk.skyband` relies on the same
transitivity argument; the differential suite in
``tests/test_sharded_differential.py`` checks the equality bit-for-bit.)

Concretely, a sharded pre-filter runs in three stages:

1. the engine computes the query's **vertex-score matrix** (scores of all
   ``n`` options at the region's defining vertices) exactly as
   :func:`repro.pruning.rskyband.r_skyband` would; under the process
   executor it is published through :class:`~repro.data.sharding.SharedMatrix`
   — worker processes attach to the same physical pages instead of receiving
   pickled arrays;
2. each shard's rows are filtered independently (serially in-process, or one
   task per shard on a supervised process pool) — this is the
   ``O(n)``-iteration stage that actually parallelises;
3. the per-shard candidates are merged and the skyband is re-run on the
   merged rows *of the same score matrix* (:func:`reconcile_candidates`),
   which by the decomposition above returns exactly the global r-skyband.

:class:`ShardedPrefilter` packages the three stages as the pre-filter of a
:class:`~repro.engine.engine.TopRREngine` (``TopRREngine(dataset,
prefilter=ShardedPrefilter(...))``).  Because stage 3 hands the engine the
bit-identical filtered dataset it would have computed itself, ``V_all`` and
the output region are bit-identical to the unsharded engine — sharding
changes where the filter runs, never what the solver sees, and every engine
feature (caches, snapshots, mutation maintenance) works unchanged on top.
The one-shot form is ``solve_toprr(..., prefilter=ShardedPrefilter(...))``
inside the pre-filter's ``with`` block.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.faults import fault_point
from repro.core.resilient import ResilienceConfig, ResilienceStats, SupervisedPool, SupervisedTask
from repro.data.dataset import Dataset
from repro.data.sharding import (
    SharedMatrix,
    SharedMatrixSpec,
    ShardSpec,
    attach_shared_matrix,
    plan_shards,
)
from repro.exceptions import EngineClosedError, InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.pruning.rskyband import vertex_score_matrix
from repro.topk.skyband import skyband_of_values
from repro.utils.timer import Timer
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Executor labels accepted by the sharded path.
SHARD_EXECUTORS = ("process", "serial")

#: Worker-side cache of attached shared matrices, keyed by segment name.
#: Each query publishes one segment, so the cache holds (at most) the
#: current query's matrix; attaching a new segment closes the previous ones.
_WORKER_MATRICES: Dict[str, SharedMatrix] = {}


def _worker_matrix(spec: SharedMatrixSpec) -> SharedMatrix:
    """Attach (once per segment) to the coordinator's shared score matrix."""
    matrix = _WORKER_MATRICES.get(spec.name)
    if matrix is None:
        for stale in _WORKER_MATRICES.values():
            stale.close()
        _WORKER_MATRICES.clear()
        matrix = attach_shared_matrix(spec)
        _WORKER_MATRICES[spec.name] = matrix
    return matrix


def shard_skyband(
    scores: np.ndarray, spec: ShardSpec, k: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Per-shard r-skyband over rows of the full vertex-score matrix.

    Returns the surviving options as ascending *parent* positional indices.
    Contiguous shards slice the matrix (zero-copy); hash shards gather their
    rows.  Empty shards (possible when ``n_shards > n``) return an empty
    index array.
    """
    bounds = spec.bounds()
    if bounds is not None:
        start, stop = bounds
        kept_local = skyband_of_values(scores[start:stop], k, tol=tol)
        return kept_local + start
    positions = spec.positions()
    kept_local = skyband_of_values(scores[positions], k, tol=tol)
    return positions[kept_local]


def timed_shard_skyband(
    scores: np.ndarray, spec: ShardSpec, k: int, tol: Tolerance
) -> Tuple[np.ndarray, float]:
    """:func:`shard_skyband` plus its wall-clock seconds.

    The one per-shard body every executor runs: in-process under
    ``executor="serial"``, inside :func:`_shard_filter_task` on a pool
    worker, and as that task's serial fallback when the pool gives up.
    """
    started = time.perf_counter()
    kept = shard_skyband(scores, spec, k, tol=tol)
    return kept, time.perf_counter() - started


def _shard_filter_task(
    matrix_spec: SharedMatrixSpec, spec: ShardSpec, k: int, tol: Tolerance
) -> Tuple[np.ndarray, float]:
    """Process-pool task: filter one shard against the shared score matrix.

    The arguments are metadata only (segment name, shard plan integers);
    the score matrix itself is read through shared memory.  Returns
    ``(kept parent positions, seconds)`` like :func:`timed_shard_skyband`.

    The three :func:`~repro.core.faults.fault_point` calls (``"task"`` at
    entry, ``"attach"`` before the shared-memory attach, ``"kernel"`` before
    the filter kernel) are no-ops unless a fault plan is installed in this
    worker; they exist so the fault-injection suite can crash/hang/fail this
    task at each interesting moment, keyed by shard id.
    """
    fault_point("task", spec.shard_id)
    fault_point("attach", spec.shard_id)
    matrix = _worker_matrix(matrix_spec)
    fault_point("kernel", spec.shard_id)
    return timed_shard_skyband(matrix.array, spec, k, tol)


def reconcile_candidates(
    scores: np.ndarray,
    shard_candidates: Sequence[np.ndarray],
    k: int,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Cross-shard top-k reconciliation: merge per-shard survivors exactly.

    Re-runs the skyband on the candidates' rows of the *same* score matrix
    the shards filtered against.  Per the decomposition argument in the
    module docstring this returns exactly the indices
    :func:`repro.pruning.rskyband.r_skyband` would have returned for the
    whole dataset — the merge is cheap because the r-skyband keeps
    per-shard candidate sets small.
    """
    arrays = [np.asarray(c, dtype=int) for c in shard_candidates]
    candidates = np.sort(np.concatenate(arrays)) if arrays else np.empty(0, dtype=int)
    if candidates.size == 0:
        return candidates
    selected = skyband_of_values(scores[candidates], k, tol=tol)
    return candidates[selected]


def sharded_r_skyband(
    dataset: Dataset,
    k: int,
    region: PreferenceRegion,
    n_shards: int,
    strategy: str = "contiguous",
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """In-process sharded r-skyband (filter per shard, then reconcile).

    Returns indices identical to :func:`repro.pruning.rskyband.r_skyband`;
    exists as the serial reference implementation of the sharded filter and
    for testing the decomposition directly.
    """
    scores = vertex_score_matrix(dataset, region)
    plan = plan_shards(dataset.n_options, n_shards, strategy)
    candidates = [shard_skyband(scores, spec, k, tol=tol) for spec in plan]
    return reconcile_candidates(scores, candidates, k, tol=tol)


class ShardedPrefilter:
    """The r-skyband pre-filter of a :class:`~repro.engine.engine.TopRREngine`, sharded.

    Pass an instance as the engine's ``prefilter`` and every r-skyband the
    engine computes runs through :meth:`filter` instead of the unsharded
    kernel; the engine's caches, snapshots and mutation maintenance are
    untouched, and its answers stay bit-identical.

    Parameters
    ----------
    n_shards:
        Number of disjoint option shards; the plan is re-derived from the
        current ``n`` on every call, so mutated datasets need no re-planning.
    strategy:
        ``"contiguous"`` (zero-copy row ranges) or ``"hash"`` (stable
        splitmix64 assignment), see :mod:`repro.data.sharding`.
    executor:
        ``"process"`` (default): one supervised pool task per non-empty
        shard, workers attach to the query's shared-memory score matrix.
        ``"serial"``: the identical per-shard code, run in-process.
    n_workers:
        Process-pool size; defaults to ``n_shards`` capped at the CPU count.
    timeout:
        Per-batch deadline (seconds) for pool shard tasks; expiry marks
        still-running tasks as hung, abandons the pool and retries them on
        a fresh one.  ``None`` (default) waits indefinitely.
    retries:
        Re-submissions allowed per shard task after its first failure
        (see :class:`~repro.core.resilient.ResilienceConfig`).
    fallback:
        Run unrecoverable shard tasks serially in-process — bit-identical
        results, the query degrades instead of failing (the default).
        ``False`` raises :class:`~repro.exceptions.ShardExecutionError`.

    The pool is built lazily on the first process-executor query and owned
    by this object: :meth:`close` (or the context manager) shuts it down
    for good, after which :meth:`filter` and :meth:`health` raise
    :class:`~repro.exceptions.EngineClosedError`.  An engine whose pre-filter
    is closed still answers every query its caches hold.

    Examples
    --------
    >>> from repro.data.generators import generate_independent
    >>> from repro.engine import TopRREngine
    >>> from repro.preference.region import PreferenceRegion
    >>> region = PreferenceRegion.hyperrectangle([(0.3, 0.35), (0.3, 0.35)])
    >>> with ShardedPrefilter(n_shards=4) as shards:
    ...     engine = TopRREngine(generate_independent(5_000, 3, rng=1), prefilter=shards)
    ...     result = engine.query(5, region)
    """

    def __init__(
        self,
        n_shards: int = 4,
        strategy: str = "contiguous",
        executor: str = "process",
        n_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        fallback: bool = True,
    ):
        if executor not in SHARD_EXECUTORS:
            raise InvalidParameterError(
                f"unknown executor {executor!r}; expected one of {SHARD_EXECUTORS}"
            )
        plan_shards(1, n_shards, strategy)  # validates n_shards and strategy up front
        self.n_shards = int(n_shards)
        self.strategy = strategy
        self.executor = executor
        self.n_workers = int(n_workers or min(self.n_shards, os.cpu_count() or 1))
        if self.n_workers <= 0:
            raise InvalidParameterError(f"n_workers must be positive, got {self.n_workers}")
        self.resilience = ResilienceConfig(timeout=timeout, max_retries=retries, fallback=fallback)
        self._pool: Optional[SupervisedPool] = None
        self._lock = threading.Lock()
        self._closed = False

    def _check_open(self, operation: str) -> None:
        """Raise :class:`EngineClosedError` once :meth:`close` has run."""
        if self._closed:
            raise EngineClosedError(
                f"cannot {operation} on a closed ShardedPrefilter; create a new one "
                "(close() shut its worker pool down for good)"
            )

    def _supervisor(self) -> SupervisedPool:
        """The lazily created supervised pool (``executor="process"`` only)."""
        with self._lock:
            self._check_open("start a worker pool")
            if self._pool is None:
                self._pool = SupervisedPool(self.n_workers, self.resilience)
            return self._pool

    def filter(self, scores: np.ndarray, k: int, tol: Tolerance) -> Tuple[np.ndarray, dict]:
        """Sharded r-skyband of one vertex-score matrix: ``(kept, shard info)``.

        ``kept`` are the ascending positional indices
        :func:`~repro.topk.skyband.skyband_of_values` returns for the whole
        matrix.  ``shard info`` carries the per-query bookkeeping the engine
        folds into :class:`~repro.core.stats.SolverStats`: ``filter_seconds``,
        ``merge_seconds``, per-shard ``shard_seconds`` / ``shard_candidates``,
        ``n_candidates`` and the pool's ``resilience`` stats (``None`` under
        the serial executor).
        """
        self._check_open("filter")
        timer = Timer().start()
        plan = plan_shards(scores.shape[0], self.n_shards, self.strategy)
        busy = [spec for spec in plan if spec.n_rows > 0]
        resilience: Optional[ResilienceStats] = None
        if self.executor == "process" and busy:
            supervisor = self._supervisor()
            with SharedMatrix.create_from(scores) as shared:
                tasks = [
                    SupervisedTask(
                        key=spec.shard_id,
                        fn=_shard_filter_task,
                        args=(shared.spec, spec, k, tol),
                        fallback=functools.partial(timed_shard_skyband, scores, spec, k, tol),
                    )
                    for spec in busy
                ]
                by_shard, resilience = supervisor.run(tasks)
        else:
            by_shard = {spec.shard_id: timed_shard_skyband(scores, spec, k, tol) for spec in busy}
        empty = (np.empty(0, dtype=int), 0.0)
        pieces = [by_shard.get(spec.shard_id, empty) for spec in plan]
        candidates = [kept for kept, _seconds in pieces]
        filter_seconds = timer.stop()

        merge_timer = Timer().start()
        kept = reconcile_candidates(scores, candidates, k, tol=tol)
        return kept, {
            "filter_seconds": filter_seconds,
            "merge_seconds": merge_timer.stop(),
            "shard_seconds": [seconds for _kept, seconds in pieces],
            "shard_candidates": [int(c.shape[0]) for c in candidates],
            "n_candidates": int(sum(c.shape[0] for c in candidates)),
            "resilience": resilience,
        }

    def health(self) -> dict:
        """Live pool state plus lifetime supervision counters.

        ``alive`` reports whether a (presumed healthy) pool currently
        exists; the counters (``n_retries``, ``n_worker_crashes``,
        ``n_pool_rebuilds``, ``n_degraded_tasks``, ``n_batches``, ...) are
        lifetime totals across every query this pre-filter served.  Raises
        :class:`~repro.exceptions.EngineClosedError` after :meth:`close`.
        """
        with self._lock:
            self._check_open("report pool health")
            supervisor = self._pool
        if supervisor is None:
            health = dict(
                {"alive": False, "n_workers": self.n_workers, "n_batches": 0},
                **ResilienceStats().as_dict(),
            )
        else:
            health = supervisor.health()
        health["executor"] = self.executor
        return health

    def close(self) -> None:
        """Shut the worker pool down for good (idempotent)."""
        with self._lock:
            self._closed = True
            supervisor, self._pool = self._pool, None
        if supervisor is not None:
            supervisor.close()

    def __enter__(self) -> "ShardedPrefilter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedPrefilter(n_shards={self.n_shards}, strategy={self.strategy!r}, "
            f"executor={self.executor!r}, closed={self._closed})"
        )
