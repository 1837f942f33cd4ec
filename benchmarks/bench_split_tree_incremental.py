"""Incremental split-tree scoring versus the PR-1 per-region kernel.

The PR-1 kernel rescored the full ``(n_vertices, n_active)`` matrix of every
popped region, even though a split child shares almost all vertices with its
parent (and the cut vertices with its sibling), and fell back to a full
batched ``lexsort`` over all active options whenever a score tie straddled
the k-boundary — the common case on anti-correlated data.  This benchmark
times a split-heavy TAS* solve (large ``n``, large ``k``, anti-correlated
options, no pre-filter so the kernel dominates) in three configurations:

* ``pr1``      — from-scratch per-region testing with the PR-1 kernel,
  reconstructed exactly (its ``topk_order_matrix`` is monkeypatched in: the
  ``argpartition`` screen that declines whole batches on boundary ties,
  followed by the full-width batched lexsort);
* ``scratch``  — from-scratch per-region testing with the current kernel
  (per-row tie resolution, select-then-sort exact fallback);
* ``incremental`` — the split-tree vertex-score memo with frontier batching
  (``incremental=True``, the default).

``V_all`` must be bit-identical across all three arms — the memo and the
kernel rework are pure reuse, never approximation.  The acceptance bar is
``incremental`` at least ``REPRO_BENCH_MIN_SPEEDUP`` (default 1.8) times
faster than ``pr1``; the ``incremental``-vs-``scratch`` ratio isolates the
memo's own contribution and is reported alongside.  Results, including the
vertex-score cache hit rate from :class:`~repro.core.stats.SolverStats`, are
written to ``BENCH_split_tree.json`` so CI can archive the trajectory.

Run directly (``PYTHONPATH=src python benchmarks/bench_split_tree_incremental.py``) or via
pytest.  ``REPRO_BENCH_SCALE=smoke`` (the default) uses a smaller instance;
any other scale runs the full-size workload.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

import repro.core.profiles as profiles_mod
from repro.core.profiles import _PARTITION_MIN_ACTIVE, _topk_order_partition
from repro.core.stats import SolverStats
from repro.core.tas_star import TASStarSolver
from repro.data.generators import generate_anticorrelated
from repro.preference.region import PreferenceRegion

SEED = 7
RNG = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_split_tree.json"


def _workload():
    """Split-heavy instance: anti-correlated options, large n and k, no filter."""
    smoke = os.environ.get("REPRO_BENCH_SCALE", "smoke") == "smoke"
    n_options = 8_000 if smoke else 60_000
    k = 10 if smoke else 12
    dataset = generate_anticorrelated(n_options, 3, rng=SEED)
    region = PreferenceRegion.hyperrectangle([(0.31, 0.38), (0.31, 0.38)])
    return dataset, k, region, ("smoke" if smoke else "full")


def _min_speedup() -> float:
    """Acceptance bar versus the PR-1 kernel (relaxed in CI via env)."""
    return float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "1.8"))


def _pr1_topk_order_matrix(scores, ids, k):
    """The PR-1 kernel's top-k ordering, reconstructed exactly.

    ``argpartition`` screen that declines the *whole batch* when any row has
    a tie straddling the k-boundary, then the full-width batched lexsort.
    """
    n = scores.shape[1]
    k = min(k, n)
    if k == 0 or scores.shape[0] == 0:
        return np.empty((scores.shape[0], k), dtype=ids.dtype)
    if n >= _PARTITION_MIN_ACTIVE and n > 4 * k:
        ordered = _topk_order_partition(scores, ids, k)
        if ordered is not None:
            return ordered
    keys = np.broadcast_to(ids, scores.shape)
    order = np.lexsort((keys, -scores), axis=-1)[:, :k]
    return ids[order]


def _solve(dataset, k, region, incremental, pr1_kernel=False):
    """One timed solve; returns ``(V_all, stats, seconds)``."""
    saved = profiles_mod.topk_order_matrix
    if pr1_kernel:
        profiles_mod.topk_order_matrix = _pr1_topk_order_matrix
    try:
        solver = TASStarSolver(rng=RNG, incremental=incremental)
        stats = SolverStats()
        start = time.perf_counter()
        vall = solver.partition(dataset, k, region, stats=stats)
        return vall, stats, time.perf_counter() - start
    finally:
        profiles_mod.topk_order_matrix = saved


def run_comparison():
    """Time the three arms and return the result record (asserting parity)."""
    dataset, k, region, scale = _workload()

    vall_pr1, _stats_pr1, seconds_pr1 = _solve(dataset, k, region, False, pr1_kernel=True)
    vall_scratch, _stats_scratch, seconds_scratch = _solve(dataset, k, region, False)
    vall_inc, stats_inc, seconds_inc = _solve(dataset, k, region, True)

    assert np.array_equal(vall_pr1, vall_scratch), "kernel rework changed V_all"
    assert np.array_equal(vall_scratch, vall_inc), "incremental path changed V_all"

    record = {
        "scale": scale,
        "n_options": dataset.n_options,
        "k": k,
        "n_regions_tested": stats_inc.n_regions_tested,
        "n_splits": stats_inc.n_splits,
        "n_vertices": int(vall_inc.shape[0]),
        "seconds_pr1_kernel": seconds_pr1,
        "seconds_from_scratch": seconds_scratch,
        "seconds_incremental": seconds_inc,
        "speedup_vs_pr1": seconds_pr1 / max(seconds_inc, 1e-9),
        "speedup_vs_scratch": seconds_scratch / max(seconds_inc, 1e-9),
        "vertex_cache_hit_rate": stats_inc.vertex_cache_hit_rate,
        "n_score_batches": stats_inc.n_score_batches,
        "n_score_rows_computed": stats_inc.n_score_rows_computed,
        "n_score_rows_reused": stats_inc.n_score_rows_reused,
        "n_order_rows_computed": stats_inc.n_order_rows_computed,
        "n_order_rows_reused": stats_inc.n_order_rows_reused,
    }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_split_tree_incremental_speedup_and_parity():
    record = run_comparison()
    print(
        f"\n[{record['scale']}] n={record['n_options']} k={record['k']} "
        f"regions={record['n_regions_tested']}: "
        f"pr1 {record['seconds_pr1_kernel']:.2f}s, "
        f"scratch {record['seconds_from_scratch']:.2f}s, "
        f"incremental {record['seconds_incremental']:.2f}s"
    )
    print(
        f"speedup vs pr1 kernel: {record['speedup_vs_pr1']:.2f}x "
        f"(memo alone vs current scratch: {record['speedup_vs_scratch']:.2f}x); "
        f"vertex-score cache hit rate {record['vertex_cache_hit_rate']:.3f}, "
        f"{record['n_score_batches']} kernel launches for "
        f"{record['n_regions_tested']} regions"
    )
    assert record["vertex_cache_hit_rate"] > 0.4, "memo is not being hit"
    minimum = _min_speedup()
    assert record["speedup_vs_pr1"] >= minimum, (
        f"incremental path only {record['speedup_vs_pr1']:.2f}x faster than the "
        f"PR-1 kernel (required {minimum:.2f}x)"
    )


if __name__ == "__main__":
    test_split_tree_incremental_speedup_and_parity()
