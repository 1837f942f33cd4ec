"""Exact 3-D polyhedron backend versus the LP/qhull geometry path.

The d=4 sibling of ``bench_geometry_backend.py``: in 3-D preference space —
the paper's second headline setting (``d = 4`` attributes) — the polyhedron
backend answers the per-region Chebyshev/feasibility question and the
vertex enumeration in closed form, where the reference path pays a scipy
``linprog`` round trip plus a qhull halfspace intersection per region.

Two arms, both asserting **bit-identical** results:

* ``per_region`` — a split cascade microbenchmark isolating the geometry
  cost: starting from the unit cube, regions are repeatedly split by
  hyperplanes and every child pays one full geometry round
  (full-dimensionality verdict + vertex enumeration).  The per-region time
  ratio is the headline number and must reach
  ``REPRO_BENCH_MIN_GEOM3D_SPEEDUP`` (default 1.5; in practice much more).
* ``end_to_end`` — a complete TAS* solve on an anti-correlated ``d = 4``
  instance per backend, asserting bit-identical ``V_all``, zero
  ``linprog``/qhull calls on the polyhedron arm, and reporting the
  whole-solve speedup.

Results are written to ``BENCH_geometry3d.json`` (schema documented in
``benchmarks/README.md``) so CI can archive the trajectory; CI additionally
trips on any non-zero ``n_lp_calls`` / ``n_qhull_calls`` recorded in it
(backend-dispatch regression tripwire).  Run directly
(``PYTHONPATH=src python benchmarks/bench_geometry_polyhedron.py``) or via pytest;
``REPRO_BENCH_SCALE=smoke`` (the default) shrinks both arms.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.stats import SolverStats
from repro.core.tas_star import TASStarSolver
from repro.data.generators import generate_anticorrelated
from repro.geometry.counters import geometry_counters
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polytope import use_backend
from repro.preference.region import PreferenceRegion

SEED = 17
RNG = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_geometry3d.json"


def _scale() -> str:
    return "smoke" if os.environ.get("REPRO_BENCH_SCALE", "smoke") == "smoke" else "full"


def _min_speedup() -> float:
    """Per-region geometry acceptance bar (relaxable in CI via env)."""
    return float(os.environ.get("REPRO_BENCH_MIN_GEOM3D_SPEEDUP", "1.5"))


def _cascade_hyperplanes(n_cuts: int) -> list:
    """A reproducible set of cutting hyperplanes through the unit cube."""
    rng = np.random.default_rng(SEED)
    hyperplanes = []
    for _ in range(n_cuts):
        normal = rng.normal(size=3)
        offset = float(normal @ rng.uniform(0.2, 0.8, size=3))
        hyperplanes.append(Hyperplane(normal, offset))
    return hyperplanes


def _run_cascade(backend: str, hyperplanes) -> tuple:
    """Split-cascade microbenchmark on one backend.

    Every produced child pays the full per-region geometry bill the solvers
    pay: an emptiness / full-dimensionality verdict and (for surviving
    children) vertex enumeration.  Returns the region count, the
    accumulated vertex bytes (for the parity assert) and the elapsed
    seconds.
    """
    from repro.geometry.polytope import ConvexPolytope

    digests = []
    n_regions = 0
    start = time.perf_counter()
    frontier = [ConvexPolytope.from_box([0.0] * 3, [1.0] * 3, backend=backend)]
    for hyperplane in hyperplanes:
        next_frontier = []
        for polytope in frontier:
            for child in polytope.split(hyperplane):
                n_regions += 1
                if child.is_empty() or not child.is_full_dimensional():
                    continue
                digests.append(child.vertices.tobytes())
                next_frontier.append(child)
        # Keep the frontier bounded so the cascade stays geometry-shaped
        # (deep, narrow) rather than exploding exponentially.
        next_frontier.sort(key=lambda p: -p.chebyshev_radius)
        frontier = next_frontier[:8]
    elapsed = time.perf_counter() - start
    return n_regions, digests, elapsed


def _run_solve(backend: str, dataset, k, intervals) -> tuple:
    """One full TAS* solve with the region built on ``backend``."""
    if backend == "qhull":
        with use_backend("qhull"):
            region = PreferenceRegion.hyperrectangle(intervals)
    else:
        region = PreferenceRegion.hyperrectangle(intervals)
    solver = TASStarSolver(rng=RNG)
    stats = SolverStats()
    start = time.perf_counter()
    vall = solver.partition(dataset, k, region, stats=stats)
    return vall, stats, time.perf_counter() - start


def run_comparison():
    """Time both arms on both backends and return the result record."""
    scale = _scale()
    n_cuts = 30 if scale == "smoke" else 90
    n_options = 2_000 if scale == "smoke" else 20_000
    k = 5 if scale == "smoke" else 8

    hyperplanes = _cascade_hyperplanes(n_cuts)
    geometry_counters.reset()
    regions_poly, digests_poly, seconds_poly = _run_cascade("polyhedron", hyperplanes)
    cascade_counters = geometry_counters.snapshot()
    regions_qhull, digests_qhull, seconds_qhull = _run_cascade("qhull", hyperplanes)

    assert regions_poly == regions_qhull, "backends explored different cascades"
    assert digests_poly == digests_qhull, "cascade vertices are not bit-identical"
    assert cascade_counters.n_lp_calls == 0, "polyhedron cascade performed LP calls"
    assert cascade_counters.n_qhull_calls == 0, "polyhedron cascade performed qhull calls"

    per_region_poly = seconds_poly / max(regions_poly, 1)
    per_region_qhull = seconds_qhull / max(regions_qhull, 1)

    dataset = generate_anticorrelated(n_options, 4, rng=SEED)
    intervals = [(0.24, 0.28), (0.24, 0.28), (0.24, 0.28)]
    vall_poly, stats_poly, solve_poly = _run_solve("polyhedron", dataset, k, intervals)
    vall_qhull, stats_qhull, solve_qhull = _run_solve("qhull", dataset, k, intervals)

    assert np.array_equal(vall_poly, vall_qhull), "solver V_all differs across backends"
    assert stats_poly.n_lp_calls == 0, "polyhedron solve performed LP calls"
    assert stats_poly.n_qhull_calls == 0, "polyhedron solve performed qhull calls"

    record = {
        "scale": scale,
        "per_region": {
            "n_regions": regions_poly,
            "seconds_polyhedron": seconds_poly,
            "seconds_qhull": seconds_qhull,
            "us_per_region_polyhedron": per_region_poly * 1e6,
            "us_per_region_qhull": per_region_qhull * 1e6,
            "speedup": per_region_qhull / max(per_region_poly, 1e-12),
            "n_lp_calls": cascade_counters.n_lp_calls,
            "n_qhull_calls": cascade_counters.n_qhull_calls,
            "n_clip_calls": cascade_counters.n_clip_calls,
        },
        "end_to_end": {
            "n_options": dataset.n_options,
            "k": k,
            "n_regions_tested": stats_poly.n_regions_tested,
            "n_splits": stats_poly.n_splits,
            "n_vertices": int(vall_poly.shape[0]),
            "vertex_cache_hit_rate": stats_poly.vertex_cache_hit_rate,
            "seconds_polyhedron": solve_poly,
            "seconds_qhull": solve_qhull,
            "speedup": solve_qhull / max(solve_poly, 1e-9),
            "n_lp_calls": stats_poly.n_lp_calls,
            "n_qhull_calls": stats_poly.n_qhull_calls,
            "n_lp_calls_qhull": stats_qhull.n_lp_calls,
            "n_qhull_calls_qhull": stats_qhull.n_qhull_calls,
            "n_clip_calls_polyhedron": stats_poly.n_clip_calls,
        },
    }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_polyhedron_backend_speedup_and_parity():
    record = run_comparison()
    per_region = record["per_region"]
    end_to_end = record["end_to_end"]
    print(
        f"\n[{record['scale']}] cascade: {per_region['n_regions']} regions, "
        f"polyhedron {per_region['us_per_region_polyhedron']:.0f}us/region vs "
        f"qhull {per_region['us_per_region_qhull']:.0f}us/region "
        f"({per_region['speedup']:.1f}x)"
    )
    print(
        f"end-to-end TAS* (n={end_to_end['n_options']}, k={end_to_end['k']}, "
        f"{end_to_end['n_regions_tested']} regions): "
        f"polyhedron {end_to_end['seconds_polyhedron']:.2f}s vs "
        f"qhull {end_to_end['seconds_qhull']:.2f}s ({end_to_end['speedup']:.2f}x); "
        f"lp calls {end_to_end['n_lp_calls']} vs {end_to_end['n_lp_calls_qhull']}"
    )
    minimum = _min_speedup()
    assert per_region["speedup"] >= minimum, (
        f"polyhedron backend only {per_region['speedup']:.2f}x faster per region "
        f"(required {minimum:.2f}x)"
    )


if __name__ == "__main__":
    test_polyhedron_backend_speedup_and_parity()
