"""Competitive analysis of an existing product, end to end.

The scenario: a manufacturer wants to understand how one of its existing
products stands in a target customer segment before deciding on a redesign.
The script combines the reverse top-k query with TopRR:

1. *Reverse top-k* — for which share of the targeted clientele the product is
   already among the top-k (its current coverage of the target segment).
2. *TopRR + enhancement* — the cheapest redesign that guarantees a top-k
   ranking for the entire target segment.
3. *Reverse top-k again* — the coverage of the redesigned product, which the
   TopRR guarantee says must be the whole segment.

Run with::

    python examples/competitive_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import PreferenceRegion, solve_toprr
from repro.core.placement import cheapest_enhancement
from repro.data.surrogates import hotel_surrogate
from repro.related import monochromatic_reverse_top_k


def main() -> None:
    # The market: hotel-style options with 4 quality attributes.  We take the
    # viewpoint of "product" number 42 — a mid-table option.
    market = hotel_surrogate(n_options=1_000)
    product_index = 42
    product = market.values[product_index]
    k = 20
    print(f"market: {market.n_options} options, {market.n_attributes} attributes")
    print(f"analysed option #{product_index}: {np.round(product, 3)}")

    # The target clientele: customers who weigh the first two attributes
    # highly and the remaining ones little.
    bounds = [(0.30, 0.38), (0.30, 0.38)] + [(0.10, 0.16)] * (market.n_attributes - 3)
    clientele = PreferenceRegion.hyperrectangle(bounds)

    # 1. Coverage today: in which share of the clientele is the product
    #    already among the top-k?
    coverage = monochromatic_reverse_top_k(
        market, product, k, region=clientele, exclude_index=product_index
    )
    print(f"\n1. share of the target clientele already served (top-{k}): "
          f"{100 * coverage.coverage():.1f}%")

    # 2. The exact fix for the whole segment: TopRR + cheapest enhancement.
    result = solve_toprr(market, k=k, region=clientele)
    enhancement = cheapest_enhancement(result, product)
    print(f"\n2. cheapest redesign with a segment-wide top-{k} guarantee:")
    print(f"   new attribute vector : {np.round(enhancement.option, 3)}")
    print(f"   modification cost    : {enhancement.cost:.4f} (Euclidean)")

    # 3. Coverage after the redesign, checked independently of TopRR.
    redesigned = monochromatic_reverse_top_k(
        market, enhancement.option, k, region=clientele, exclude_index=product_index
    )
    print(f"\n3. share of the target clientele served after the redesign: "
          f"{100 * redesigned.coverage():.1f}%")


if __name__ == "__main__":
    main()
