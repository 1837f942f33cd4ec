"""Supervised process-pool execution: timeouts, retries, rebuilds, degradation.

PR 5's sharded path fans pure filter tasks out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and assumes every worker
lives forever: a crashed worker raises ``BrokenProcessPool`` out of the
query, a hung worker blocks it indefinitely, and either way the whole query
fails even though every shard task is pure and re-runnable.  This module
supervises that fan-out so the parallel path *degrades* instead of failing:

**The degradation ladder.**  Each task batch walks down four rungs, stopping
at the first one that produces a result:

1. **Retry** — a task that raises (or times out) is resubmitted up to
   ``max_retries`` times, with exponential backoff and *deterministic*
   jitter (:func:`backoff_delay`): delays depend only on
   ``(seed, task key, attempt)``, never on a live RNG, so recovery timing is
   reproducible in tests.  Only failures a task itself caused charge its
   retry budget; a future that failed because *another* task crashed the
   shared pool is resubmitted for free (collateral resubmission is bounded
   by the rebuild budget, since every crash retires a pool).
2. **Pool rebuild** — a worker crash (``BrokenProcessPool``) or a hung task
   (per-batch timeout with the future still running) poisons the whole
   pool; the supervisor abandons it (terminating its workers) and builds a
   fresh one, at most ``max_pool_rebuilds`` times per batch.
3. **Serial fallback** — a task with no retries left (or no pool left) runs
   in-process via its ``fallback`` callable.  Shard tasks are pure
   functions of shared inputs, so the fallback result is **bit-identical**
   to the healthy path — degradation trades latency, never correctness.
4. **Hard failure** — only when the caller disabled the fallback
   (``fallback=False``; CLI ``--no-fallback``) does an unrecoverable task
   raise :class:`~repro.exceptions.ShardExecutionError`.

Every rung is counted in :class:`ResilienceStats` (folded into
:class:`~repro.core.stats.SolverStats` by the engine's sharded pre-filter)
so degraded queries are *observable*, and every failure mode is reproducible
through the fault-injection plans of :mod:`repro.core.faults` — pool workers run
:func:`worker_initializer`, which installs the plan exported in the
environment, if any.
"""

from __future__ import annotations

import threading
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import faults
from repro.exceptions import InvalidParameterError, ShardExecutionError

_MASK64 = (1 << 64) - 1


def worker_initializer() -> None:
    """Pool-worker start hook: install the env-exported fault plan, if any.

    A no-op in production (the :data:`~repro.core.faults.FAULT_PLAN_ENV`
    variable is unset); under test it makes every worker — including the
    workers of a rebuilt pool — observe the same deterministic schedule.
    """
    faults.install_from_env()


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs of the supervision layer.

    Attributes
    ----------
    timeout:
        Per-batch task deadline in seconds (``None``: wait forever).  When
        it expires, still-running tasks count as hung: they are retried on a
        fresh pool (the old one is abandoned, since a running pool task
        cannot be cancelled).
    max_retries:
        Re-submissions allowed per task after its first failed attempt.
    backoff_base:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per additional retry (exponential backoff).
    backoff_cap:
        Upper bound on the un-jittered delay.
    jitter:
        Jitter amplitude as a fraction of the delay: the sleep is
        ``delay * (1 + jitter * u)`` with ``u ∈ [0, 1)`` drawn
        *deterministically* from ``(seed, task key, attempt)``.
    seed:
        Jitter seed (reproducible recovery timing).
    max_pool_rebuilds:
        Fresh pools the supervisor may build per batch after the first one
        is poisoned by a crash or hang.
    fallback:
        Run unrecoverable tasks serially in-process (the tasks are pure, so
        results stay bit-identical).  With ``False`` they raise
        :class:`~repro.exceptions.ShardExecutionError` instead.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    max_pool_rebuilds: int = 1
    fallback: bool = True

    def __post_init__(self):
        if self.timeout is not None and self.timeout <= 0:
            raise InvalidParameterError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise InvalidParameterError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_pool_rebuilds < 0:
            raise InvalidParameterError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )


def _splitmix64(x: int) -> int:
    """Scalar splitmix64 finaliser (the array form lives in repro.data.sharding)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def backoff_delay(config: ResilienceConfig, key: Any, retry_index: int) -> float:
    """Deterministic backoff delay before retry ``retry_index`` of task ``key``.

    ``base * factor**retry_index`` capped at ``backoff_cap``, stretched by a
    jitter factor in ``[1, 1 + jitter)`` that is a pure function of
    ``(config.seed, key, retry_index)`` — two runs of the same schedule wait
    the same fractions of a second, and different tasks de-synchronise their
    retries without sharing any mutable RNG state.
    """
    if retry_index < 0:
        return 0.0
    delay = min(config.backoff_cap, config.backoff_base * config.backoff_factor**retry_index)
    key_hash = zlib.crc32(repr(key).encode("utf-8"))
    mixed = _splitmix64((config.seed & _MASK64) ^ (key_hash << 20) ^ retry_index)
    unit = mixed / float(1 << 64)
    return delay * (1.0 + config.jitter * unit)


@dataclass
class ResilienceStats:
    """What the supervisor had to do to finish a batch (all zero when healthy).

    Attributes
    ----------
    n_retries:
        Task re-submissions to a pool (every attempt after a task's first).
    n_task_errors:
        Task attempts that raised inside a worker (the exception came back
        over the future — the worker itself survived).
    n_timeouts:
        Task attempts abandoned because the batch deadline expired while
        they were running.
    n_worker_crashes:
        ``BrokenProcessPool`` events (a worker died mid-batch).
    n_pool_rebuilds:
        Fresh pools built after a poisoned one was abandoned.
    n_degraded_tasks:
        Tasks that exhausted the pool rungs and ran serially in-process.
    events:
        Human-readable audit trail of every non-healthy step, in order.
    """

    n_retries: int = 0
    n_task_errors: int = 0
    n_timeouts: int = 0
    n_worker_crashes: int = 0
    n_pool_rebuilds: int = 0
    n_degraded_tasks: int = 0
    events: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when at least one task fell back to serial in-process execution."""
        return self.n_degraded_tasks > 0

    def note(self, message: str) -> None:
        """Append one audit-trail event."""
        self.events.append(message)

    def merge(self, other: "ResilienceStats") -> None:
        """Fold another batch's counters into this (lifetime) accumulator."""
        self.n_retries += other.n_retries
        self.n_task_errors += other.n_task_errors
        self.n_timeouts += other.n_timeouts
        self.n_worker_crashes += other.n_worker_crashes
        self.n_pool_rebuilds += other.n_pool_rebuilds
        self.n_degraded_tasks += other.n_degraded_tasks
        self.events.extend(other.events)

    def as_dict(self) -> dict:
        """Plain-dict view (for ``SolverStats.extra`` and pool health reports)."""
        return {
            "n_retries": self.n_retries,
            "n_task_errors": self.n_task_errors,
            "n_timeouts": self.n_timeouts,
            "n_worker_crashes": self.n_worker_crashes,
            "n_pool_rebuilds": self.n_pool_rebuilds,
            "n_degraded_tasks": self.n_degraded_tasks,
            "degraded": self.degraded,
        }


@dataclass(frozen=True)
class SupervisedTask:
    """One pure unit of work for :meth:`SupervisedPool.run`.

    Attributes
    ----------
    key:
        Stable identifier (ordering, retry accounting, jitter seed).
    fn, args:
        The pool-side callable and its (picklable) arguments.
    fallback:
        Optional in-process replacement invoked on degradation; defaults to
        calling ``fn(*args)`` in the coordinator.  May be a closure — it
        never crosses a process boundary.
    """

    key: Any
    fn: Callable
    args: Tuple = ()
    fallback: Optional[Callable[[], Any]] = None


class SupervisedPool:
    """A process pool that finishes every batch or says exactly why it could not.

    Owns (and lazily builds) one :class:`ProcessPoolExecutor`; the pool
    survives across :meth:`run` batches so repeated queries amortise worker
    start-up, and is replaced transparently when a batch poisons it.  All
    scheduling state (retry budgets, rebuild budget) is per-batch.

    Parameters
    ----------
    n_workers:
        Pool size.
    config:
        The supervision knobs (:class:`ResilienceConfig`).
    sleep:
        Injectable sleep (tests pass a fake clock so backoff is instant).
    pool_factory:
        Injectable pool constructor (tests only); must accept no arguments
        and return a ``ProcessPoolExecutor``-compatible object.
    """

    def __init__(
        self,
        n_workers: int,
        config: ResilienceConfig = ResilienceConfig(),
        sleep: Callable[[float], None] = time.sleep,
        pool_factory: Optional[Callable[[], ProcessPoolExecutor]] = None,
    ):
        if n_workers <= 0:
            raise InvalidParameterError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = int(n_workers)
        self.config = config
        self._sleep = sleep
        self._pool_factory = pool_factory or (
            lambda: ProcessPoolExecutor(
                max_workers=self.n_workers, initializer=worker_initializer
            )
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self.lifetime = ResilienceStats()
        self.n_batches = 0

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        """True while a (presumed healthy) pool exists."""
        return self._pool is not None

    def _abandon_pool(self) -> None:
        """Drop the current pool without waiting on it (it may hold hung workers).

        ``shutdown(wait=True)`` would block on a hung task forever, so the
        pool is released asynchronously and its worker processes terminated
        best-effort (``_processes`` is CPython's worker registry; when the
        attribute is missing the processes die with their queues instead).
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        pool.shutdown(wait=False, cancel_futures=True)
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except (OSError, ValueError):  # already dead / already closed
                pass

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def health(self) -> dict:
        """Lifetime supervision counters plus the current pool state."""
        info = {"alive": self.alive, "n_workers": self.n_workers, "n_batches": self.n_batches}
        info.update(self.lifetime.as_dict())
        return info

    # ------------------------------------------------------------------ #
    # batch execution
    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence[SupervisedTask]) -> Tuple[Dict[Any, Any], ResilienceStats]:
        """Execute every task to completion, walking the degradation ladder.

        Returns ``(results, stats)`` where ``results`` maps each task key to
        its value.  Either every task has a result or — only with
        ``config.fallback=False`` — a
        :class:`~repro.exceptions.ShardExecutionError` describes the first
        unrecoverable one.

        Batches are serialized: concurrent callers queue on an internal lock
        (the pool, lifetime counters and rebuild budget are shared state, so
        interleaving two batches could abandon a pool out from under the
        other's in-flight submits).
        """
        stats = ResilienceStats()
        with self._lock:
            self.n_batches += 1
            try:
                return self._run(list(tasks), stats), stats
            finally:
                self.lifetime.merge(stats)

    def _run(self, tasks: List[SupervisedTask], stats: ResilienceStats) -> Dict[Any, Any]:
        config = self.config
        results: Dict[Any, Any] = {}
        pending: Dict[Any, SupervisedTask] = {t.key: t for t in tasks}
        order = [t.key for t in tasks]
        # `attempts` charges the per-task retry budget: only failures the task
        # itself caused (raising in the worker, exceeding the deadline) count.
        # A future failed by pool breakage (another task crashed the worker
        # pool) is collateral damage — the task is re-submitted without
        # spending budget; runaway resubmission is bounded by the rebuild
        # budget, since every crash retires a pool.  `submitted` counts actual
        # pool submissions, driving n_retries/backoff and degrade messages.
        attempts = {t.key: 0 for t in tasks}
        submitted = {t.key: 0 for t in tasks}
        last_error: Dict[Any, BaseException] = {}
        rebuilds_used = 0
        pool_retired = False

        def acquire_pool() -> Optional[ProcessPoolExecutor]:
            nonlocal rebuilds_used
            if self._pool is not None:
                return self._pool
            if pool_retired:
                if rebuilds_used >= config.max_pool_rebuilds:
                    return None
                rebuilds_used += 1
                stats.n_pool_rebuilds += 1
                stats.note(f"pool rebuild #{rebuilds_used}")
            try:
                self._pool = self._pool_factory()
            except OSError as exc:  # pragma: no cover - resource exhaustion
                stats.note(f"pool construction failed: {exc}")
                return None
            return self._pool

        while pending:
            runnable = [k for k in order if k in pending and attempts[k] <= config.max_retries]
            for key in [k for k in order if k in pending and k not in runnable]:
                results[key] = self._degrade(pending.pop(key), stats, last_error.get(key), submitted[key])
            if not runnable:
                break

            retrying = [k for k in runnable if submitted[k] > 0]
            if retrying:
                stats.n_retries += len(retrying)
                delay = max(backoff_delay(config, k, submitted[k] - 1) for k in retrying)
                stats.note(f"retrying {len(retrying)} task(s) after {delay * 1000:.0f} ms backoff")
                self._sleep(delay)

            pool = acquire_pool()
            if pool is None:
                stats.note("no pool available; degrading remaining tasks")
                for key in runnable:
                    results[key] = self._degrade(
                        pending.pop(key), stats, last_error.get(key), submitted[key]
                    )
                continue

            futures = {}
            submit_error: Optional[BaseException] = None
            for key in runnable:
                task = pending[key]
                try:
                    futures[pool.submit(task.fn, *task.args)] = key
                    submitted[key] += 1
                except (BrokenProcessPool, RuntimeError) as exc:
                    submit_error = exc
                    break

            pool_broken = saw_crash = submit_error is not None

            def harvest(key: Any, future) -> None:
                nonlocal pool_broken, saw_crash
                try:
                    results[key] = future.result()
                    pending.pop(key)
                except BrokenProcessPool as exc:
                    # Collateral: some task crashed the pool and this future
                    # failed with it.  No budget charge (see `attempts` note).
                    pool_broken = saw_crash = True
                    last_error[key] = exc
                except Exception as exc:  # the task itself raised in the worker
                    stats.n_task_errors += 1
                    attempts[key] += 1
                    last_error[key] = exc
                    stats.note(f"task {key!r} raised {type(exc).__name__}: {exc}")

            done, not_done = (
                wait_futures(futures, timeout=config.timeout) if futures else (set(), set())
            )
            for future in done:
                harvest(futures[future], future)
            for future in not_done:
                key = futures[future]
                if future.cancel():
                    # Never started (queued behind a hung worker): costs no
                    # attempt, simply goes back into the next round.
                    submitted[key] -= 1
                    continue
                if future.done():
                    # Finished in the race window between wait() and cancel():
                    # harvest the result instead of calling the task hung.
                    harvest(key, future)
                    continue
                stats.n_timeouts += 1
                attempts[key] += 1
                last_error[key] = TimeoutError(
                    f"task {key!r} exceeded the {config.timeout}s batch deadline"
                )
                stats.note(f"task {key!r} timed out after {config.timeout}s; abandoning its worker")
                pool_broken = True
            if saw_crash:
                stats.n_worker_crashes += 1
                stats.note("worker crash (BrokenProcessPool); pool poisoned")
            if pool_broken:
                pool_retired = True
                self._abandon_pool()

        return {key: results[key] for key in order}

    def _degrade(
        self,
        task: SupervisedTask,
        stats: ResilienceStats,
        error: Optional[BaseException],
        n_attempts: int,
    ) -> Any:
        """Rung 3/4: run ``task`` serially in-process, or raise if forbidden."""
        if not self.config.fallback:
            raise ShardExecutionError(
                f"task {task.key!r} unrecoverable after {n_attempts} pool attempt(s) "
                f"and serial fallback is disabled (last error: {error!r})"
            ) from error
        stats.n_degraded_tasks += 1
        stats.note(
            f"task {task.key!r} degraded to in-process serial execution "
            f"after {n_attempts} pool attempt(s)"
        )
        if task.fallback is not None:
            return task.fallback()
        return task.fn(*task.args)
