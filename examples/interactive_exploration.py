"""Interactive clientele exploration on one engine, with parallel solving.

Note: the parallel section only pays off on multi-core machines — on a
single-core box the process pool adds overhead without any speed-up (the
answers remain identical either way, which is what the script checks).

The scenario: an analyst explores several candidate clientele segments for
the same product catalogue, asking for the top-ranking region and the
cheapest placement in each.  Two of the library's tools make this
interactive:

* :class:`repro.engine.TopRREngine` bound to the catalogue's k-skyband.
  The k-skyband holds every option that can be in a top-k anywhere in the
  preference space (Section 6.3), so this engine answers every query with
  that ``k`` or less exactly as an engine on the whole catalogue would,
  while each query filters a much smaller set.  Its result cache makes a
  revisited segment free;
* :class:`repro.core.parallel.RegionParallelSolver`, passed to the engine
  as the method, chops the preference region across worker processes for
  the occasional large segment.

Run with::

    PYTHONPATH=src python examples/interactive_exploration.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Dataset, PreferenceRegion, TopRREngine, solve_toprr
from repro.core.parallel import RegionParallelSolver
from repro.core.placement import cheapest_new_option
from repro.topk.skyband import k_skyband


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

    # --- one-off pre-computation: the k-skyband ---------------------------------
    start = time.perf_counter()
    candidates = catalogue.subset(k_skyband(catalogue, k), name="catalogue[k-skyband]")
    engine = TopRREngine(candidates)
    build_seconds = time.perf_counter() - start
    print(f"pre-computation: {catalogue.n_options} options reduced to "
          f"{candidates.n_options} candidates in {build_seconds:.2f}s "
          f"({catalogue.n_options / candidates.n_options:.1f}x smaller)")

    # --- interactive exploration -------------------------------------------------
    for name, bounds in segments.items():
        region = PreferenceRegion.hyperrectangle(bounds)
        start = time.perf_counter()
        result = engine.query(k, region)
        seconds = time.perf_counter() - start
        placement = cheapest_new_option(result)
        print(f"\nsegment '{name}': solved in {seconds:.2f}s")
        print(f"  region volume of oR      : {result.volume():.5f}")
        print(f"  cost-optimal new product : {np.round(placement.option, 3)} "
              f"(cost {placement.cost:.3f})")

    # Revisiting a segment hits the result cache and is effectively free.
    start = time.perf_counter()
    engine.query(k, PreferenceRegion.hyperrectangle(segments["balanced buyers"]))
    print(f"\nrevisiting 'balanced buyers': {time.perf_counter() - start:.4f}s "
          f"(result cache {engine.cache_info()['results']})")

    # query_batch answers the whole segment mix in one call, from the caches.
    start = time.perf_counter()
    batch = engine.query_batch(
        [(k, PreferenceRegion.hyperrectangle(b)) for b in segments.values()] * 2
    )
    print(f"engine batch: {len(batch)} queries in {time.perf_counter() - start:.4f}s")

    # --- a large segment, solved in parallel -------------------------------------
    wide = PreferenceRegion.hyperrectangle([(0.2, 0.5), (0.2, 0.5)])
    start = time.perf_counter()
    sequential = solve_toprr(catalogue, k, wide)
    sequential_seconds = time.perf_counter() - start

    start = time.perf_counter()
    solver = RegionParallelSolver(n_workers=4, executor="process")
    parallel = engine.query(k, wide, method=solver)
    parallel_seconds = time.perf_counter() - start

    probes = rng.random((500, 3))
    identical = bool(
        np.array_equal(sequential.contains_many(probes), parallel.contains_many(probes))
    )
    print(f"\nwide segment: whole catalogue {sequential_seconds:.2f}s, "
          f"k-skyband engine in parallel {parallel_seconds:.2f}s, "
          f"answers identical: {identical}")


if __name__ == "__main__":
    main()
