"""Pre-computation for repeated TopRR queries (the paper's future-work direction).

The conclusion of the paper names "pre-computation techniques to further
expedite processing" as future work.  The dominant per-query costs amenable
to pre-computation are (i) the dominance-based filtering of the dataset and
(ii) repeated solves against the same dataset with different target regions
(a business owner exploring several clientele types).

:class:`PrecomputedTopRR` addresses both:

* at construction time it computes the ``k_max``-skyband of the dataset
  once; since the r-skyband of *any* region for any ``k <= k_max`` is a
  subset of it, per-query filtering only needs to scan that (much smaller)
  set instead of the full dataset;
* it memoises query results keyed by ``(k, region fingerprint, method)`` in
  a bounded LRU, so interactive workloads that revisit the same clientele
  pay the solver cost once while memory stays constant.

Results are exactly those of :func:`repro.core.toprr.solve_toprr` — the
pre-computation only changes where the candidate options come from, not
which ones survive (the k-skyband is a proven superset of every possible
top-k result, Section 6.3).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.toprr import SolverLike, TopRRResult, solve_toprr
from repro.data.dataset import Dataset
from repro.engine.cache import MISSING, LRUCache
from repro.engine.fingerprint import region_fingerprint  # noqa: F401  (canonical home)
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.topk.skyband import k_skyband
from repro.utils.timer import Timer
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Bound of the result cache: the same as ``TopRREngine``'s default
#: ``result_cache_size``.
RESULT_CACHE_SIZE = 64


class PrecomputedTopRR:
    """Per-dataset pre-computation that accelerates repeated TopRR queries.

    Parameters
    ----------
    dataset:
        The option dataset ``D``.
    k_max:
        Largest ``k`` the index will be asked to serve.  Queries with a
        larger ``k`` fall back to the unindexed path.
    tol:
        Tolerance bundle shared with the solvers.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.generators import generate_independent
    >>> from repro.preference.region import PreferenceRegion
    >>> index = PrecomputedTopRR(generate_independent(2_000, 3, rng=1), k_max=10)
    >>> region = PreferenceRegion.hyperrectangle([(0.3, 0.35), (0.3, 0.35)])
    >>> result = index.solve(5, region)
    >>> bool(result.contains(np.ones(3)))
    True
    """

    def __init__(self, dataset: Dataset, k_max: int, tol: Tolerance = DEFAULT_TOL):
        if k_max <= 0:
            raise InvalidParameterError(f"k_max must be positive, got {k_max}")
        self.dataset = dataset
        self.k_max = int(k_max)
        self.tol = tol

        timer = Timer().start()
        self._skyband_indices = k_skyband(dataset, self.k_max, tol=tol)
        self._skyband = dataset.subset(
            self._skyband_indices, name=f"{dataset.name}[{self.k_max}-skyband]"
        )
        self.precompute_seconds = timer.stop()
        self._cache = LRUCache(RESULT_CACHE_SIZE)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def skyband_size(self) -> int:
        """Number of options in the precomputed ``k_max``-skyband."""
        return self._skyband.n_options

    @property
    def reduction_factor(self) -> float:
        """How many times smaller the precomputed candidate set is than ``D``."""
        return self.dataset.n_options / max(self.skyband_size, 1)

    def cache_info(self) -> dict:
        """Hit/miss counters of the result cache."""
        info = self._cache.info()
        return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def solve(
        self,
        k: int,
        region: PreferenceRegion,
        method: SolverLike = "tas*",
        use_cache: bool = True,
    ) -> TopRRResult:
        """Solve a TopRR query against the precomputed candidate set.

        The solver runs on the ``k_max``-skyband subset, which contains every
        option that can appear in a top-k result for ``k <= k_max`` anywhere
        in the preference space; thresholds and therefore the output region
        are identical to solving against the full dataset.
        """
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        if region.n_attributes != self.dataset.n_attributes:
            raise InvalidParameterError("region and dataset disagree on the number of attributes")
        if k > self.k_max:
            # The precomputed skyband is not a valid superset for larger k.
            return solve_toprr(self.dataset, k, region, method=method, tol=self.tol)

        key: Optional[Tuple] = None
        if use_cache and isinstance(method, str):
            key = (int(k), method, region_fingerprint(region))
            cached = self._cache.get(key)
            if cached is not MISSING:
                return cached

        solved = solve_toprr(self._skyband, k, region, method=method, tol=self.tol)
        # Re-anchor the result on the full dataset so that option-level
        # reports (e.g. existing_top_ranking_options) refer to original
        # positional indices; thresholds and the region are unaffected.
        result = TopRRResult(
            dataset=self.dataset,
            filtered=solved.filtered,
            k=solved.k,
            region=solved.region,
            vertices_reduced=solved.vertices_reduced,
            full_weights=solved.full_weights,
            thresholds=solved.thresholds,
            polytope=solved.polytope,
            stats=solved.stats,
            method=f"{solved.method} (precomputed)",
            tol=self.tol,
        )
        if key is not None:
            self._cache.put(key, result.make_read_only())
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PrecomputedTopRR(n={self.dataset.n_options}, k_max={self.k_max}, "
            f"skyband={self.skyband_size})"
        )
