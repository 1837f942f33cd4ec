"""TopRR core: the algorithms of Sections 3-5 of the paper.

* :mod:`repro.core.impact` — impact halfspaces and the ``oR`` polytope.
* :mod:`repro.core.kipr` — vertex score profiles, kIPR testing (Lemma 3),
  consistent top-λ detection (Lemma 5), optimized testing (Lemma 7).
* :mod:`repro.core.profiles` — the array-backed :class:`RegionProfiles`
  kernel computing all vertex profiles of a region in one batched operation.
* :mod:`repro.core.scorecache` — the incremental split-tree vertex-score
  memo (per-vertex score rows and top-k orderings reused along the
  recursion, frontier-batched kernel launches).
* :mod:`repro.core.splitting` — splitting-hyperplane selection (random and
  k-switch, Definition 4) and the split operation.
* :mod:`repro.core.tas` — the Test-and-Split algorithm (Algorithm 1).
* :mod:`repro.core.tas_star` — the optimized TAS* (Algorithm 2).
* :mod:`repro.core.utk` — anchor-based UTK partitioner (building block of PAC
  and of the exact UTK pre-filter).
* :mod:`repro.core.pac` — the Partition-and-Convert baseline (Section 3.4).
* :mod:`repro.core.toprr` — the user-facing ``solve_toprr`` front end (a
  one-shot :class:`~repro.engine.TopRREngine`) and the :class:`TopRRResult`
  object.
* :mod:`repro.core.placement` — cost-optimal option creation and enhancement.
* :mod:`repro.core.verify` — sampling-based correctness verifier.
* :mod:`repro.core.composite` — non-convex target regions and constrained
  option domains (Section 3.1 generalisations).
* :mod:`repro.core.sampled` — the inexact sampling baseline of Section 2.1.
* :mod:`repro.core.parallel` — parallel solving over a chopped ``wR``
  (future-work direction of Section 7): a
  :class:`~repro.core.parallel.RegionParallelSolver` passed as ``method``.
* :mod:`repro.core.sharded` — option-space sharded solving: the r-skyband
  pre-filter decomposed over disjoint option shards (process-parallel
  against shared-memory score matrices) with exact cross-shard
  reconciliation, a :class:`~repro.core.sharded.ShardedPrefilter` passed as
  ``prefilter``.
* :mod:`repro.core.precompute` — per-dataset pre-computation for repeated
  queries (future-work direction of Section 7).
"""

from repro.core.toprr import TopRRResult, solve_toprr
from repro.core.tas import TASSolver
from repro.core.tas_star import TASStarSolver
from repro.core.pac import PACSolver
from repro.core.placement import cheapest_enhancement, cheapest_new_option, smallest_k_within_budget
from repro.core.verify import verify_result_by_sampling
from repro.core.composite import constrain_result, solve_toprr_union
from repro.core.sampled import evaluate_sampled_exactness, sampled_toprr
from repro.core.sharded import sharded_r_skyband
from repro.core.precompute import PrecomputedTopRR
from repro.core.serialization import load_result, save_result

__all__ = [
    "TopRRResult",
    "solve_toprr",
    "TASSolver",
    "TASStarSolver",
    "PACSolver",
    "cheapest_new_option",
    "cheapest_enhancement",
    "smallest_k_within_budget",
    "verify_result_by_sampling",
    "solve_toprr_union",
    "constrain_result",
    "sampled_toprr",
    "evaluate_sampled_exactness",
    "sharded_r_skyband",
    "PrecomputedTopRR",
    "save_result",
    "load_result",
]
