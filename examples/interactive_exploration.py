"""Interactive clientele exploration with pre-computation and parallel solving.

Note: the parallel section only pays off on multi-core machines — on a
single-core box the process pool adds overhead without any speed-up (the
answers remain identical either way, which is what the script checks).

The scenario: an analyst explores several candidate clientele segments for
the same product catalogue, asking for the top-ranking region and the
cheapest placement in each.  Two of the library's scalability extensions
(both named as future work in the paper's conclusion) make this interactive:

* :class:`repro.core.precompute.PrecomputedTopRR` computes the dataset's
  k-skyband once and memoises repeated queries;
* :class:`repro.core.parallel.RegionParallelSolver`, passed to
  ``solve_toprr`` as the method, chops the preference region across worker
  processes for the occasional large segment.

Run with::

    python examples/interactive_exploration.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Dataset, PreferenceRegion, TopRREngine, solve_toprr
from repro.core.parallel import RegionParallelSolver
from repro.core.placement import cheapest_new_option
from repro.core.precompute import PrecomputedTopRR


def main() -> None:
    rng = np.random.default_rng(7)
    catalogue = Dataset(
        rng.random((20_000, 3)),
        attribute_names=["performance", "battery", "portability"],
        name="catalogue",
    )
    k = 10

    segments = {
        "performance professionals": [(0.55, 0.62), (0.18, 0.24)],
        "road warriors": [(0.20, 0.27), (0.20, 0.27)],
        "balanced buyers": [(0.30, 0.37), (0.30, 0.37)],
    }

    # --- one-off pre-computation -------------------------------------------------
    start = time.perf_counter()
    index = PrecomputedTopRR(catalogue, k_max=k)
    build_seconds = time.perf_counter() - start
    print(f"pre-computation: {catalogue.n_options} options reduced to "
          f"{index.skyband_size} candidates in {build_seconds:.2f}s "
          f"({index.reduction_factor:.1f}x smaller)")

    # --- interactive exploration -------------------------------------------------
    for name, bounds in segments.items():
        region = PreferenceRegion.hyperrectangle(bounds)
        start = time.perf_counter()
        result = index.solve(k, region)
        seconds = time.perf_counter() - start
        placement = cheapest_new_option(result)
        print(f"\nsegment '{name}': solved in {seconds:.2f}s")
        print(f"  region volume of oR      : {result.volume():.5f}")
        print(f"  cost-optimal new product : {np.round(placement.option, 3)} "
              f"(cost {placement.cost:.3f})")

    # Revisiting a segment hits the result cache and is effectively free.
    start = time.perf_counter()
    index.solve(k, PreferenceRegion.hyperrectangle(segments["balanced buyers"]))
    print(f"\nrevisiting 'balanced buyers': {time.perf_counter() - start:.4f}s "
          f"(cache {index.cache_info()})")

    # --- the same session through the TopRREngine --------------------------------
    # TopRREngine generalises the memo above: bounded LRU caches, batch
    # execution, and cache warming.  query_batch answers the whole segment
    # mix in one call.
    engine = TopRREngine(catalogue)
    engine.warm([k], [PreferenceRegion.hyperrectangle(b) for b in segments.values()])
    start = time.perf_counter()
    batch = engine.query_batch(
        [(k, PreferenceRegion.hyperrectangle(b)) for b in segments.values()] * 2
    )
    print(f"\nengine batch: {len(batch)} queries in {time.perf_counter() - start:.2f}s, "
          f"caches {engine.cache_info()}")

    # --- a large segment, solved in parallel -------------------------------------
    wide = PreferenceRegion.hyperrectangle([(0.2, 0.5), (0.2, 0.5)])
    start = time.perf_counter()
    sequential = solve_toprr(catalogue, k, wide)
    sequential_seconds = time.perf_counter() - start

    start = time.perf_counter()
    solver = RegionParallelSolver(n_workers=4, executor="process")
    parallel = solve_toprr(catalogue, k, wide, method=solver)
    parallel_seconds = time.perf_counter() - start

    probes = rng.random((500, 3))
    identical = bool(
        np.array_equal(sequential.contains_many(probes), parallel.contains_many(probes))
    )
    print(f"\nwide segment: sequential {sequential_seconds:.2f}s, "
          f"parallel {parallel_seconds:.2f}s, answers identical: {identical}")


if __name__ == "__main__":
    main()
