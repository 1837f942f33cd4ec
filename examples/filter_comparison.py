"""Compare the pre-filters of Section 6.3 on a synthetic market (Figure 8 in miniature).

TopRR never needs the whole dataset: options that cannot reach the top-k for
any preference in the target region are irrelevant.  The paper compares four
ways of finding a small superset of the relevant options — the k-skyband,
k-onion layers, the region-aware r-skyband, and the exact (but expensive)
UTK filter — and picks the r-skyband.  This script reproduces that
comparison and then shows that the final TopRR answer is identical no matter
which (correct) filter is used.

Run with::

    python examples/filter_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro import solve_toprr
from repro.core.impact import build_impact_region
from repro.core.tas_star import TASStarSolver
from repro.data.generators import generate_anticorrelated
from repro.preference.random_regions import random_hypercube_region
from repro.pruning.comparison import compare_filters
from repro.utils.tolerance import DEFAULT_TOL


def main() -> None:
    dataset = generate_anticorrelated(8_000, 4, rng=11)
    region = random_hypercube_region(4, 0.03, rng=12)
    k = 10

    print(f"dataset: {dataset.name}, k={k}")
    comparison = compare_filters(dataset, k, region)
    print(f"{'filter':12s} {'retained':>9s} {'seconds':>9s} {'retained/max':>13s} {'time/max':>9s}")
    for row in comparison.rows():
        print(
            f"{row['filter']:12s} {row['retained']:9d} {row['seconds']:9.3f} "
            f"{row['retained_norm']:13.3f} {row['seconds_norm']:9.3f}"
        )

    # Whatever the filter, the TopRR region itself is the same: the filters
    # only discard options that can never matter.  The unfiltered answer runs
    # the solver directly on the whole dataset, then Theorem 1.
    print("\ncross-checking that the final TopRR region is filter-independent ...")
    baseline = solve_toprr(dataset, k, region)
    vall = TASStarSolver().partition(dataset, k, region)
    _polytope, full_weights, thresholds = build_impact_region(dataset, vall, k)
    probes = np.random.default_rng(0).random((2_000, dataset.n_attributes))
    unfiltered = np.all(probes @ full_weights.T >= thresholds - DEFAULT_TOL.score, axis=1)
    agree = np.array_equal(baseline.contains_many(probes), unfiltered)
    print("membership decisions identical with and without pre-filtering:", agree)


if __name__ == "__main__":
    main()
