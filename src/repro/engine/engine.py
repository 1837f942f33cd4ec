"""A session-scoped TopRR query engine with cross-query caching.

:func:`repro.core.toprr.solve_toprr` answers one query and throws everything
away.  Interactive and batched preference workloads — an analyst exploring
clientele segments, a recommendation layer probing many ``(k, region)``
combinations against one catalogue — re-pay three costs on every call that
depend only on the dataset (or on the ``(k, region)`` pair, not the call):

1. the affine score form of the dataset over the reduced preference space,
2. the r-skyband pre-filter for the ``(k, region)`` pair,
3. the full solve itself when the exact same query is repeated.

:class:`TopRREngine` binds a dataset once and amortises all three: the
affine form is computed lazily once and sliced per query, r-skyband results
and complete answers are kept in bounded LRU caches keyed by
``(k, region fingerprint)``.  ``query_batch`` runs many queries through one
engine (serially or via worker processes), and ``warm``
precomputes the filter for an anticipated query mix.

**Cache-key semantics.**  A region is keyed by its *fingerprint*
(:func:`~repro.engine.fingerprint.region_fingerprint`): the exact defining
vertices, lexicographically sorted.  Two region objects describing the same
polytope therefore share cache entries even when their halfspace
representations differ (redundant constraints, row order) or when they were
built on different geometry backends (2-D and 3-D vertices are canonical
across backends, see :mod:`repro.geometry.polytope`), while regions whose
vertices differ in any bit never do — a representation whose arithmetic
moves a vertex by one ulp (rows rescaled by 3, say) costs a cache miss,
never a wrong hit.  The r-skyband cache is keyed by ``(k, fingerprint)`` and
shared across solver methods; the result cache adds the method name:
``(k, fingerprint, method)``.
Both are bounded LRUs (:class:`~repro.engine.cache.LRUCache`): inserting
beyond ``skyband_cache_size`` / ``result_cache_size`` evicts the least
recently *used* entry (hits refresh recency), so a long-lived session holds
at most that many intermediates regardless of how many distinct queries it
has seen.  Evicting an r-skyband entry also drops the
:class:`~repro.core.scorecache.VertexScoreMemo` stored alongside it.

Results are exactly those of :func:`~repro.core.toprr.solve_toprr` — the
engine only changes where the intermediates come from, never what they are
(the parity tests in ``tests/test_engine.py`` assert this).  A runnable tour
of the cache behaviour lives in ``examples/quickstart.py``.

**Sharded pre-filter.**  ``prefilter`` may be a
:class:`~repro.core.sharded.ShardedPrefilter`: every r-skyband the engine
computes then runs over disjoint option shards (serially or on a process
pool) and is reconciled to the exact global band, so the engine — caches,
snapshots, mutation maintenance and all — is unchanged on top, and its
answers stay bit-identical.  The per-query shard counters land in the
result's :class:`~repro.core.stats.SolverStats`.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.kipr import WorkingSet
from repro.core.impact import build_impact_region
from repro.core.mutation import (
    MutationDelta,
    MutationReport,
    entry_survival,
    position_column_map,
)
from repro.core.scorecache import VertexScoreMemo
from repro.core.sharded import ShardedPrefilter
from repro.core.stats import SolverStats
from repro.core.toprr import SolverLike, TopRRResult, make_solver
from repro.data.dataset import Dataset
from repro.engine.cache import MISSING, LRUCache
from repro.engine.fingerprint import region_fingerprint
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.preference.space import PreferenceSpace
from repro.pruning.rskyband import r_skyband, vertex_score_matrix
from repro.utils.rng import RngLike
from repro.utils.timer import Timer
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Executor labels accepted by :meth:`TopRREngine.query_batch`.
BATCH_EXECUTORS = ("serial", "process")

#: One query of a batch: ``(k, region)``.
QuerySpec = Tuple[int, PreferenceRegion]


def _record_shards(stats: SolverStats, shards: ShardedPrefilter, info: Optional[dict]) -> None:
    """Fold one query's sharded pre-filter counters into its stats.

    ``info`` is :meth:`ShardedPrefilter.filter`'s bookkeeping, or ``None``
    when the r-skyband came from the cache and no shard ran.
    """
    stats.n_shards = shards.n_shards
    stats.extra["shard_strategy"] = shards.strategy
    stats.extra["shard_executor"] = shards.executor
    if info is None:
        return
    stats.merge_seconds = info["merge_seconds"]
    stats.extra["shard_filter_seconds"] = info["filter_seconds"]
    stats.extra["shard_seconds"] = info["shard_seconds"]
    stats.extra["shard_candidates"] = info["shard_candidates"]
    stats.extra["n_candidates"] = info["n_candidates"]
    resilience = info["resilience"]
    if resilience is not None:
        stats.n_retries = resilience.n_retries
        stats.n_worker_crashes = resilience.n_worker_crashes
        stats.n_pool_rebuilds = resilience.n_pool_rebuilds
        stats.n_degraded_shards = resilience.n_degraded_tasks
        stats.degraded = resilience.degraded
        if resilience.events:
            stats.extra["resilience_events"] = list(resilience.events)


def _solve_query_worker(dataset, k, region, method, rng, tol):
    """Process-pool worker: one independent solve (no shared caches)."""
    from repro.core.toprr import solve_toprr

    return solve_toprr(dataset, k, region, method=method, rng=rng, tol=tol)


class TopRREngine:
    """Bind a dataset once, answer many TopRR queries fast.

    Parameters
    ----------
    dataset:
        The option dataset ``D`` this engine serves.
    method:
        Default solver for queries that do not specify one
        (``"tas*"``, ``"tas"``, ``"pac"``, or a solver instance).
    prefilter:
        ``None`` (default) runs the r-skyband pre-filter in-process; a
        :class:`~repro.core.sharded.ShardedPrefilter` runs it over option
        shards with a bit-identical band.  The caller owns (and closes) a
        sharded pre-filter.  Either way the cached entries are the same, so
        snapshots restore across sharded and unsharded engines.
    rng:
        Seed for each query's solver (a fresh solver is built per query so
        repeated queries are deterministic and match ``solve_toprr``).
    tol:
        Numerical tolerance bundle shared by all queries.
    skyband_cache_size:
        Bound of the r-skyband LRU (entries are keyed by
        ``(k, region fingerprint)`` and carry the filtered dataset, the
        working set sliced from the bound affine form, and the vertex-score
        memo).  Least-recently-used entries are evicted beyond the bound;
        ``0`` disables the cache.
    result_cache_size:
        Bound of the full-result LRU (keyed by ``(k, fingerprint, method)``;
        the method key exists because different solvers may return different
        — equally valid — ``V_all`` partitionings).  ``0`` disables result
        reuse.  Only string methods are cacheable; passing a solver
        *instance* bypasses this cache.

    Examples
    --------
    >>> from repro.data.generators import generate_independent
    >>> from repro.preference.region import PreferenceRegion
    >>> engine = TopRREngine(generate_independent(2_000, 3, rng=1))
    >>> region = PreferenceRegion.hyperrectangle([(0.3, 0.35), (0.3, 0.35)])
    >>> result = engine.query(5, region)
    >>> result is engine.query(5, region)  # served from the result cache
    True
    """

    def __init__(
        self,
        dataset: Dataset,
        method: SolverLike = "tas*",
        prefilter: Optional[ShardedPrefilter] = None,
        rng: RngLike = 0,
        tol: Tolerance = DEFAULT_TOL,
        skyband_cache_size: int = 128,
        result_cache_size: int = 64,
    ):
        if prefilter is not None and not isinstance(prefilter, ShardedPrefilter):
            raise InvalidParameterError(
                f"prefilter must be None or a ShardedPrefilter, got {prefilter!r}; "
                "the r-skyband pre-filter always runs"
            )
        self.dataset = dataset
        self.method = method
        self.prefilter = prefilter
        self.rng = rng
        self.tol = tol
        self._space = PreferenceSpace(dataset.n_attributes)
        self._affine: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._skyband_cache = LRUCache(skyband_cache_size)
        self._result_cache = LRUCache(result_cache_size)
        self._counter_lock = threading.Lock()
        self.n_queries = 0
        # Mutation-maintenance state: memos of entries evicted by a delta,
        # kept around (bounded) so _install_skyband can salvage their score
        # rows when the entry is rebuilt; plus cumulative accounting.
        self._mutation_salvage: dict = {}
        self._mutation_totals = MutationReport()
        self._last_mutation_report: Optional[MutationReport] = None
        self.n_deltas = 0

    # ------------------------------------------------------------------ #
    # bound intermediates
    # ------------------------------------------------------------------ #
    def affine_form(self) -> Tuple[np.ndarray, np.ndarray]:
        """The dataset's affine score form, computed once and reused."""
        if self._affine is None:
            self._affine = self._space.affine_score_form(self.dataset.values)
        return self._affine

    def _validate(self, k: int, region: PreferenceRegion) -> None:
        """Reject out-of-range ``k`` and dataset/region dimension mismatches."""
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        if k > self.dataset.n_options:
            raise InvalidParameterError(
                f"k={k} exceeds the dataset size {self.dataset.n_options}; "
                "every placement would qualify"
            )
        if region.n_attributes != self.dataset.n_attributes:
            raise InvalidParameterError(
                f"region is defined for {region.n_attributes}-attribute options but the dataset "
                f"has {self.dataset.n_attributes} attributes"
            )

    def _skyband(self, k: int, region: PreferenceRegion) -> Tuple[np.ndarray, Optional[dict]]:
        """The r-skyband of ``(k, region)`` plus the sharded pre-filter's info.

        The info is ``None`` on the unsharded path, which calls this module's
        :func:`r_skyband` (the name the stage tracer patches).
        """
        if self.prefilter is None:
            return r_skyband(self.dataset, k, region, tol=self.tol), None
        return self.prefilter.filter(vertex_score_matrix(self.dataset, region), k, self.tol)

    def prefiltered(
        self, k: int, region: PreferenceRegion
    ) -> Tuple[Dataset, WorkingSet, VertexScoreMemo, bool]:
        """``(D', root working set, score memo, cache_hit)`` for one ``(k, region)`` pair.

        ``D'`` is the r-skyband subset (read-only values when it is a cached
        entry, which every later query shares); the working set is sliced from
        the bound affine form, so no per-query score-form computation occurs.
        The vertex-score memo lives alongside the cached r-skyband entry, so
        repeated queries against the same ``(k, region)`` reuse each other's
        split-tree vertex scores even when the full result was not cached.
        """
        return self._prefilter(k, region)[:4]

    def _prefilter(self, k: int, region: PreferenceRegion) -> tuple:
        """:meth:`prefiltered` plus the shard info of a filter run here (else ``None``)."""
        coefficients, constants = self.affine_form()
        if self._skyband_cache.maxsize <= 0:
            # Cache disabled (the experiment runner's timing engines): skip
            # the fingerprint, the salvage lookup and the exact-vertex dump
            # entirely — none of them can pay off, and the fingerprint's
            # vertex enumeration would pollute the measured filter time.
            kept, shard_info = self._skyband(k, region)
            kept = np.asarray(kept, dtype=int)
            filtered = self.dataset.subset(kept, name=f"{self.dataset.name}[r-skyband]")
            working = WorkingSet.from_affine_form(coefficients[kept], constants[kept], k)
            return filtered, working, VertexScoreMemo.for_working(working), False, shard_info

        key = (int(k), region_fingerprint(region))
        cached = self._skyband_cache.get(key)
        if cached is not MISSING:
            return cached[0], cached[1], cached[2], True, None

        kept, shard_info = self._skyband(k, region)
        filtered, working, memo, _vertices = self._install_skyband(k, region, kept)
        return filtered, working, memo, False, shard_info

    def cached_result(self, k: int, region: PreferenceRegion, method) -> Optional[TopRRResult]:
        """The cached :class:`TopRRResult` for ``(k, region, method)``, or ``None``.

        Pure lookup — never solves.  Only string methods are cacheable, as
        in :meth:`query`.
        """
        if not isinstance(method, str) or self._result_cache.maxsize <= 0:
            return None
        cached = self._result_cache.get((int(k), region_fingerprint(region), method.lower()))
        return None if cached is MISSING else cached

    def _install_skyband(self, k: int, region: PreferenceRegion, kept) -> tuple:
        """Cache the r-skyband ``kept`` of ``(k, region)`` and return its entry.

        ``kept`` are ascending positional indices into this engine's dataset
        — exactly what :func:`~repro.pruning.rskyband.r_skyband` returns.
        The entry is ``(filtered dataset, root working set sliced from the
        bound affine form, vertex-score memo, exact region vertices)``; the
        filtered dataset's values are frozen, since every later hit (and
        every result solved from it) shares them.
        """
        coefficients, constants = self.affine_form()
        kept = np.asarray(kept, dtype=int)
        filtered = self.dataset.subset(kept, name=f"{self.dataset.name}[r-skyband]")
        filtered.values.setflags(write=False)
        working = WorkingSet.from_affine_form(coefficients[kept], constants[kept], k)
        key = (int(k), region_fingerprint(region))
        salvaged = self._mutation_salvage.pop(key, None)
        if salvaged is not None:
            # A mutation evicted this (k, region) entry but parked its memo:
            # rebind the memo to the fresh band by copying the columns of
            # options that stayed band members and scoring only the new ones
            # (bit-identical either way, see VertexScoreMemo.remapped).
            old_ids, old_memo = salvaged
            column_map = position_column_map(filtered.option_ids, old_ids)
            memo = old_memo.remapped(working.coefficients, working.constants, column_map)
            with self._counter_lock:
                self._mutation_totals.n_memos_salvaged += 1
                if self._last_mutation_report is not None:
                    self._last_mutation_report.n_memos_salvaged += 1
        else:
            memo = VertexScoreMemo.for_working(working)
        # The entry carries the exact region vertices: the mutation survival
        # test must replicate the filter's score matrix byte-for-byte.
        entry = (filtered, working, memo, region.full_vertices())
        self._skyband_cache.put(key, entry)
        return entry

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        k: int,
        region: PreferenceRegion,
        method: Optional[SolverLike] = None,
        use_cache: bool = True,
    ) -> TopRRResult:
        """Solve one TopRR query against the bound dataset.

        Identical in contract to :func:`repro.core.toprr.solve_toprr`; when
        the same ``(k, region, method)`` was answered recently, the cached
        :class:`TopRRResult` object is returned as-is; its arrays are
        read-only, so no caller can change what later hits see.
        ``method`` may also be any solver object with the
        ``partition(filtered, k, region, stats, working, score_memo)``
        protocol — e.g. a
        :class:`~repro.core.parallel.RegionParallelSolver` runs
        region-parallel TAS* on this engine's cached r-skyband.
        """
        self._validate(k, region)
        with self._counter_lock:  # the HTTP server calls query() from worker threads
            self.n_queries += 1
        method = self.method if method is None else method

        result_key: Optional[tuple] = None
        if use_cache and isinstance(method, str) and self._result_cache.maxsize > 0:
            result_key = (int(k), region_fingerprint(region), method.lower())
            cached = self._result_cache.get(result_key)
            if cached is not MISSING:
                return cached

        solver = make_solver(method, rng=self.rng, tol=self.tol)
        stats = SolverStats()
        stats.n_input_options = self.dataset.n_options

        timer = Timer().start()
        filtered, working, memo, skyband_hit, shard_info = self._prefilter(k, region)
        stats.n_filtered_options = filtered.n_options

        vall = solver.partition(filtered, k, region, stats=stats, working=working, score_memo=memo)
        polytope, full_weights, thresholds = build_impact_region(filtered, vall, k, tol=self.tol)
        stats.seconds = timer.stop()
        stats.n_after_lemma5 = stats.n_after_lemma5 or filtered.n_options
        stats.extra["skyband_cache_hit"] = bool(skyband_hit)
        if self.prefilter is not None:
            _record_shards(stats, self.prefilter, shard_info)

        result = TopRRResult(
            dataset=self.dataset,
            filtered=filtered,
            k=k,
            region=region,
            vertices_reduced=vall,
            full_weights=full_weights,
            thresholds=thresholds,
            polytope=polytope,
            stats=stats,
            method=getattr(solver, "name", str(method)),
            tol=self.tol,
        )
        if result_key is not None:
            self._result_cache.put(result_key, result.make_read_only())
        return result

    def query_batch(
        self,
        queries: Iterable[Union[QuerySpec, Sequence]],
        method: Optional[SolverLike] = None,
        executor: str = "serial",
        n_workers: int = 4,
        use_cache: bool = True,
    ) -> List[TopRRResult]:
        """Answer many ``(k, region)`` queries; results keep the input order.

        Parameters
        ----------
        queries:
            Iterable of ``(k, region)`` pairs.
        executor:
            ``"serial"`` (default) runs in-process and shares all caches;
            ``"process"`` uses worker processes — fully parallel but without
            shared caches, appropriate for batches of mostly-distinct heavy
            queries.  (A thread executor is not offered: the solve is
            CPU-bound Python, so threads cannot scale it.)  Workers run the
            plain r-skyband even when this engine's is sharded.  For
            CPU-bound scaling on one large catalogue, prefer a
            :class:`~repro.core.sharded.ShardedPrefilter` (CLI ``--shards``),
            which parallelises inside each query instead of across queries.
        n_workers:
            Pool size for the ``"process"`` executor.
        """
        specs: List[QuerySpec] = [(int(k), region) for k, region in queries]
        if executor not in BATCH_EXECUTORS:
            raise InvalidParameterError(
                f"unknown executor {executor!r}; expected one of {BATCH_EXECUTORS}"
            )
        if n_workers <= 0:
            raise InvalidParameterError(f"n_workers must be positive, got {n_workers}")

        if executor == "serial" or len(specs) <= 1:
            return [self.query(k, region, method=method, use_cache=use_cache) for k, region in specs]

        resolved = self.method if method is None else method
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_solve_query_worker, self.dataset, k, region, resolved, self.rng, self.tol)
                for k, region in specs
            ]
            return [future.result() for future in futures]

    def warm(self, ks: Iterable[int], regions: Iterable[PreferenceRegion]) -> int:
        """Precompute the r-skyband for every ``(k, region)`` combination.

        Returns the number of entries actually computed (combinations already
        cached are skipped).  Useful before serving an anticipated query mix:
        a warmed ``(k, region)`` pair answers its first :meth:`query` with
        the pre-filter — typically the larger fixed cost on big catalogues —
        already paid, and its vertex-score memo already allocated.  Warming
        more combinations than ``skyband_cache_size`` silently evicts the
        oldest ones, so size the cache to the query mix first.
        """
        regions = list(regions)
        computed = 0
        for k in ks:
            for region in regions:
                self._validate(k, region)
                _filtered, _working, _memo, hit = self.prefiltered(k, region)
                if not hit:
                    computed += 1
        return computed

    # ------------------------------------------------------------------ #
    # mutation maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(self, dataset: Dataset, delta: MutationDelta) -> MutationReport:
        """Rebind the engine to a mutated dataset, keeping provably valid caches.

        ``dataset`` and ``delta`` are what
        :meth:`~repro.data.dataset.Dataset.insert_options` /
        :meth:`~repro.data.dataset.Dataset.delete_options` returned for the
        dataset this engine is currently bound to (the version chain is
        enforced).  Instead of :meth:`clear_caches`, every cached r-skyband
        entry and result is put through the eviction-soundness test
        (:func:`~repro.core.mutation.entry_survival`): an entry survives —
        and is served unchanged to later queries — only when no deleted
        option was a band member and no inserted option can enter the band,
        which makes the survivor byte-identical to a from-scratch rebuild
        (the contract ``tests/test_mutation_differential.py`` fuzzes).
        Evicted entries park their vertex-score memo for column-remap
        salvage on rebuild.  Returns the survivor/eviction accounting.
        """
        delta.check_applies_to(self.dataset, dataset)
        report = MutationReport()
        self.dataset = dataset
        self._affine = None  # recomputed lazily; row-wise, so survivors match

        if delta.n_inserted and self._mutation_salvage:
            # An insert may reuse the id of an option deleted by an *earlier*
            # delta; parked memos still holding a column for that id would
            # salvage stale scores, so they are dropped before any rebuild.
            inserted = set(delta.inserted_ids)
            stale = [
                key
                for key, (old_ids, _memo) in self._mutation_salvage.items()
                if inserted.intersection(old_ids)
            ]
            for key in stale:
                self._mutation_salvage.pop(key, None)

        # One vertex-score product per distinct region: the skyband entry
        # and the per-method results for the same (k, region) share it.
        score_cache: dict = {}

        def region_scores(fingerprint, full_vertices):
            """Memoised ``values @ full_vertices.T`` for one region fingerprint."""
            if fingerprint not in score_cache:
                score_cache[fingerprint] = dataset.values @ full_vertices.T
            return score_cache[fingerprint]

        for key, entry in self._skyband_cache.items():
            filtered, _working, memo, full_vertices = entry
            survives, n_tests = entry_survival(
                dataset,
                delta,
                key[0],
                full_vertices,
                filtered.option_ids,
                tol=self.tol,
                scores=region_scores(key[1], full_vertices) if delta.n_inserted else None,
            )
            report.n_dominance_tests += n_tests
            if survives:
                report.n_entries_survived += 1
            else:
                self._skyband_cache.pop(key)
                report.n_entries_evicted += 1
                self._mutation_salvage[key] = (tuple(filtered.option_ids), memo)
        while len(self._mutation_salvage) > max(1, self._skyband_cache.maxsize):
            self._mutation_salvage.pop(next(iter(self._mutation_salvage)))

        for key, result in self._result_cache.items():
            full_vertices = result.region.full_vertices()
            survives, n_tests = entry_survival(
                dataset,
                delta,
                key[0],
                full_vertices,
                result.filtered.option_ids,
                tol=self.tol,
                scores=region_scores(key[1], full_vertices) if delta.n_inserted else None,
            )
            report.n_dominance_tests += n_tests
            if survives:
                # Everything else the result holds (filtered subset, working
                # set, vertices, impact region) is self-contained; only the
                # full-dataset reference needs rebinding.
                result.dataset = dataset
                report.n_results_survived += 1
            else:
                self._result_cache.pop(key)
                report.n_results_evicted += 1
        return self._record_delta(report)

    def _record_delta(self, report: MutationReport) -> MutationReport:
        """Fold one delta's accounting into the engine-lifetime totals."""
        with self._counter_lock:
            self.n_deltas += 1
            self._mutation_totals.merge(report)
            self._last_mutation_report = report
        return report

    # ------------------------------------------------------------------ #
    # durable warm caches
    # ------------------------------------------------------------------ #
    def save_caches(self, path) -> Path:
        """Persist the warm cache state to ``path`` (versioned JSON snapshot).

        Captures every cached r-skyband entry (band membership, exact region
        vertices, vertex-score memo) and every cached result, array-exact,
        together with a digest of the bound dataset.  A replica restarted on
        the same dataset restores via :meth:`load_caches` and answers the
        snapshotted queries byte-identically, with first-query cache hits —
        see :mod:`repro.core.serialization` for the format.
        """
        from repro.core.serialization import save_engine_snapshot

        return save_engine_snapshot(self, path)

    def load_caches(self, path) -> dict:
        """Restore a :meth:`save_caches` snapshot into this engine's caches.

        The snapshot must have been taken against this engine's exact
        dataset content by an r-skyband-filtered engine; mismatches,
        truncated files and unknown schema versions raise
        :class:`~repro.exceptions.SerializationError`.  Returns the counts
        of restored entries (``skyband_entries``, ``result_entries``,
        ``memo_rows``).  Counters start fresh — only cache *contents* are
        durable.
        """
        from repro.core.serialization import load_engine_snapshot

        return load_engine_snapshot(self, path)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict:
        """Hit/miss/eviction counters of both caches plus the query count.

        ``mutations`` holds the engine-lifetime totals across every
        :meth:`apply_delta` call (``n_deltas``, survivor/eviction counts,
        dominance tests, salvaged memos, and the overall survivor rate).
        """
        with self._counter_lock:
            mutations = dict(self._mutation_totals.as_dict(), n_deltas=self.n_deltas)
        return {
            "n_queries": self.n_queries,
            "skyband": self._skyband_cache.info().as_dict(),
            "results": self._result_cache.info().as_dict(),
            "mutations": mutations,
        }

    def clear_caches(self) -> None:
        """Drop every cached intermediate (the bound affine form is kept).

        This includes the vertex-score memos attached to the r-skyband
        entries.
        """
        self._skyband_cache.clear()
        self._result_cache.clear()
        self._mutation_salvage.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TopRREngine(dataset={self.dataset.name!r}, n={self.dataset.n_options}, "
            f"method={self.method!r}, queries={self.n_queries})"
        )
