"""Quickstart: compute a top-ranking region and the cheapest option to place in it.

The scenario: a market of 10,000 products with 4 quality attributes, a
business owner targeting customers whose preferences lie in a small box of
the preference spectrum, and the requirement that the new product ranks in
the top-10 for every such customer.

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import Dataset, PreferenceRegion, TopRREngine, solve_toprr
from repro.core.placement import cheapest_new_option
from repro.core.verify import verify_result_by_sampling


def main() -> None:
    rng = np.random.default_rng(2019)

    # 1. The market: 10,000 existing options with 4 attributes in [0, 1].
    market = Dataset(
        rng.random((10_000, 4)),
        attribute_names=["quality", "durability", "efficiency", "service"],
        name="quickstart-market",
    )

    # 2. The target clientele: a box in the reduced preference space.  With 4
    #    attributes the preference space is 3-dimensional (the 4th weight is
    #    implied by normalisation).
    clientele = PreferenceRegion.hyperrectangle([(0.30, 0.36), (0.22, 0.28), (0.18, 0.24)])

    # 3. Solve TopRR: where can a new option be placed so that it is in the
    #    top-10 for *every* preference vector in the target box?
    result = solve_toprr(market, k=10, region=clientele, method="tas*")
    print("TopRR solved:", result.summary())
    print(f"  options surviving the r-skyband filter : {result.filtered.n_options}")
    print(f"  vertices in V_all                      : {result.n_vertices}")
    print(f"  volume of the top-ranking region oR    : {result.volume():.5f}")

    # 4. Check a few candidate placements.
    premium = np.array([0.95, 0.95, 0.95, 0.95])
    mediocre = np.array([0.6, 0.6, 0.6, 0.6])
    print(f"  premium candidate  {premium} top-ranking? {bool(result.contains(premium))}")
    print(f"  mediocre candidate {mediocre} top-ranking? {bool(result.contains(mediocre))}")

    # 5. The cheapest placement under the summed-squares manufacturing cost.
    placement = cheapest_new_option(result)
    print("  cost-optimal new option:", np.round(placement.option, 4))
    print(f"  manufacturing cost      : {placement.cost:.4f}")

    # 6. Independent sanity check by sampling.
    report = verify_result_by_sampling(result, rng=0)
    print("  sampling verification passed:", report.passed)

    # 7. Serving many queries?  Bind the market once in a TopRREngine: the
    #    scoring form is computed once and repeated (k, clientele) queries
    #    are answered from a bounded cross-query cache.
    engine = TopRREngine(market)
    for k in (5, 10, 10, 5):  # a session revisiting its settings
        engine.query(k, clientele)
    info = engine.cache_info()
    print(f"  engine session: {info['n_queries']} queries, "
          f"{info['results']['hits']} served from cache")

    # 8. How the caches are keyed: by (k, region *fingerprint*) — the
    #    region's exact, sorted vertices — so a *different object*
    #    describing the same region hits the same entries.  Both caches are
    #    bounded LRUs; the least recently used entry is evicted when full.
    same_clientele = PreferenceRegion.hyperrectangle(
        [(0.30, 0.36), (0.22, 0.28), (0.18, 0.24)]
    )
    assert engine.query(10, same_clientele) is engine.query(10, clientele)
    print("  cache keys are region fingerprints, not object identities")

    # 9. Anticipating a query mix?  `warm` precomputes the r-skyband
    #    pre-filter (the expensive per-(k, region) intermediate) up front,
    #    and `query_batch` answers many queries in one call — serially by
    #    default (sharing the caches), or over worker processes with
    #    executor="process".
    wider = PreferenceRegion.hyperrectangle(
        [(0.28, 0.38), (0.20, 0.30), (0.16, 0.26)]
    )
    computed = engine.warm(ks=[5, 10], regions=[clientele, wider])
    batch = engine.query_batch([(10, clientele), (5, wider), (10, wider)])
    print(f"  warmed {computed} new (k, region) pre-filters; "
          f"batch of {len(batch)} queries answered")

    # 10. Everything above ran the solver on the exact 2-D polygon geometry
    #    backend whenever the preference space is two-dimensional (d = 3
    #    attributes); this 4-attribute market uses the general LP/qhull
    #    path.  The per-solve geometry bill is visible in the stats (use the
    #    last batch entry: it is the one freshly solved in the batch, the
    #    first is a result-cache hit carrying its original solve's stats):
    stats = batch[-1].stats
    print(f"  geometry calls of the last solve: {stats.n_lp_calls} LP, "
          f"{stats.n_qhull_calls} qhull, {stats.n_clip_calls} polygon clips")


if __name__ == "__main__":
    main()
