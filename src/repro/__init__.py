"""TopRR: creating top ranking options in the continuous option and preference space.

This package is a from-scratch reproduction of the VLDB 2019 paper by
Tang, Mouratidis, Yiu and Chen.  It provides:

* the computational-geometry substrate needed by the paper (convex
  polytopes, halfspace intersection, LP/QP helpers),
* the top-k query machinery and the four pruning filters Figure 8 evaluates
  (k-skyband, k-onion layers, r-skyband, UTK),
* the TopRR algorithms themselves: the PAC baseline, TAS, and the optimized
  TAS* with consistent-top pruning (Lemma 5), optimized region testing
  (Lemma 7) and k-switch splitting hyperplane selection,
* cost-optimal option creation / enhancement on top of the TopRR output,
* a session-scoped query engine (:class:`repro.engine.TopRREngine`) that
  binds a dataset once and serves repeated / batched queries with
  cross-query caching; :func:`solve_toprr` is its one-shot form, and the
  parallel variants are objects passed to either (a
  :class:`ShardedPrefilter` as ``prefilter``, a
  :class:`~repro.core.parallel.RegionParallelSolver` as ``method``),
* an experiment harness regenerating every figure and table of the paper's
  evaluation section,
* the monochromatic reverse top-k query, kept as an oracle that shares none
  of TopRR's kernels.

Quickstart
----------
>>> import numpy as np
>>> from repro import Dataset, PreferenceRegion, solve_toprr
>>> data = Dataset(np.random.default_rng(0).random((1000, 3)))
>>> region = PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.3, 0.4)])
>>> result = solve_toprr(data, k=5, region=region)
>>> bool(result.contains(np.array([0.95, 0.95, 0.95])))
True
"""

from repro.data.dataset import Dataset
from repro.data.generators import (
    generate_anticorrelated,
    generate_correlated,
    generate_independent,
)
from repro.preference.region import PreferenceRegion
from repro.preference.space import PreferenceSpace
from repro.core.toprr import TopRRResult, solve_toprr
from repro.core.tas import TASSolver
from repro.core.tas_star import TASStarSolver
from repro.core.pac import PACSolver
from repro.core.placement import (
    cheapest_enhancement,
    cheapest_new_option,
    smallest_k_within_budget,
)
from repro.core.composite import constrain_result, solve_toprr_union
from repro.core.sharded import ShardedPrefilter
from repro.core.precompute import PrecomputedTopRR
from repro.core.sampled import sampled_toprr
from repro.engine import TopRREngine
from repro.topk.query import top_k, top_k_score
from repro.version import __version__

__all__ = [
    "Dataset",
    "PreferenceRegion",
    "PreferenceSpace",
    "TopRRResult",
    "solve_toprr",
    "TASSolver",
    "TASStarSolver",
    "PACSolver",
    "cheapest_new_option",
    "cheapest_enhancement",
    "smallest_k_within_budget",
    "solve_toprr_union",
    "constrain_result",
    "PrecomputedTopRR",
    "TopRREngine",
    "ShardedPrefilter",
    "sampled_toprr",
    "top_k",
    "top_k_score",
    "generate_independent",
    "generate_correlated",
    "generate_anticorrelated",
    "__version__",
]
