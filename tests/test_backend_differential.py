"""Cross-backend differential property-test harness.

The closed-form geometry backends (2-D polygon, 3-D polyhedron) promise to
be **bit-identical** to the LP/qhull reference path — which makes the
reference path a perfect *oracle* for property-based testing, in the spirit
of the metamorphic/differential testing used for comparison-based choice
models.  A lightweight seeded fuzzer (no external dependency) generates
random split trees over random datasets at ``d = 3`` *and* ``d = 4`` and
drives every region operation through both backends:

* **cut** (``ConvexPolytope.split`` by a scoring hyperplane of a random
  option pair, exactly the hyperplanes the solvers cut on),
* **clip** (``intersect_halfspace``),
* **emptiness** and **full-dimensionality** verdicts,
* **Chebyshev centre / radius**,
* **vertex enumeration** (canonical bytes compared with ``tobytes()`` —
  stricter than ``array_equal``, which treats ``-0.0 == 0.0``).

A second layer runs whole TAS* solves on both backends and asserts
identical solver-level ``V_all`` bytes with zero LP/qhull calls on the
closed-form arm.  Both layers also assert zero backend fallbacks: no
closed-form body may fail its consistency check and demote to LP/qhull.
Each dimension runs >= 200 seeded cases (the acceptance bar of the PR that
introduced the polyhedron backend); cases are chunked so pytest/xdist can
spread them over workers.
"""

import numpy as np
import pytest

from repro.core.stats import SolverStats
from repro.core.tas_star import TASStarSolver
from repro.data.generators import generate_anticorrelated, generate_independent
from repro.exceptions import InvalidParameterError
from repro.geometry.counters import geometry_counters
from repro.geometry.halfspace import Halfspace
from repro.geometry.polytope import use_backend
from repro.preference.region import PreferenceRegion

#: Fuzz cases per (dimension, chunk): 8 chunks x 25 cases = 200 per dimension.
CASES_PER_CHUNK = 25
N_CHUNKS = 8

#: Reduced-space dimensions under test and the backend each must select.
DIMENSIONS = {2: "polygon", 3: "polyhedron"}


def _random_region(rng, dim):
    """A random axis-aligned box region inside the weight simplex."""
    lower = rng.uniform(0.02, 0.28, size=dim)
    width = rng.uniform(0.04, 0.3, size=dim)
    upper = np.minimum(lower + width, 0.97)
    intervals = list(zip(lower.tolist(), upper.tolist()))
    region = PreferenceRegion.hyperrectangle(intervals)
    with use_backend("qhull"):
        reference = PreferenceRegion.hyperrectangle(intervals)
    return region, reference


def _random_options(rng, dim, n_options):
    """Random option values; anti-correlated-ish to make rank swaps common."""
    values = rng.random((n_options, dim + 1))
    return values


def _compare_pair(closed, reference, counts):
    """Assert one closed-form/qhull polytope pair agrees on every operation."""
    assert closed.is_empty() == reference.is_empty()
    assert closed.is_full_dimensional() == reference.is_full_dimensional()
    counts["verdicts"] += 1
    if closed.is_empty():
        return False
    radius = closed.chebyshev_radius
    assert radius == pytest.approx(reference.chebyshev_radius, rel=1e-6, abs=1e-8)
    if not closed.is_full_dimensional():
        return False
    # Canonical vertex enumeration must agree to the byte.
    assert closed.vertices.tobytes() == reference.vertices.tobytes()
    counts["vertex_sets"] += 1
    # The Chebyshev centre of a full-dimensional body is strictly interior
    # on both backends (the centres themselves may differ when the optimum
    # is degenerate — only the radius is unique).
    assert closed.contains(closed.chebyshev_center)
    assert reference.contains(reference.chebyshev_center)
    return True


def _run_split_tree_case(rng, dim, counts):
    """One fuzz case: a random split tree compared operation-by-operation."""
    region, reference = _random_region(rng, dim)
    assert region.polytope.backend == DIMENSIONS[dim]
    assert reference.polytope.backend == "qhull"
    options = _random_options(rng, dim, n_options=int(rng.integers(8, 40)))
    before = geometry_counters.snapshot()

    frontier = [(region, reference)]
    for _step in range(int(rng.integers(3, 8))):
        if not frontier:
            break
        node, ref_node = frontier.pop(int(rng.integers(len(frontier))))
        pair = rng.choice(options.shape[0], size=2, replace=False)
        try:
            hyperplane = node.scoring_hyperplane(options[pair[0]], options[pair[1]])
        except InvalidParameterError:
            continue  # numerically identical options: no scoring hyperplane
        if int(rng.integers(4)) == 0:
            # Occasionally exercise the one-sided clip path instead of a cut.
            child = node.polytope.intersect_halfspace(Halfspace.from_hyperplane(hyperplane))
            ref_child = ref_node.polytope.intersect_halfspace(
                Halfspace.from_hyperplane(hyperplane)
            )
            counts["clips"] += 1
            if _compare_pair(child, ref_child, counts):
                frontier.append(
                    (
                        PreferenceRegion(child, n_attributes=dim + 1),
                        PreferenceRegion(ref_child, n_attributes=dim + 1),
                    )
                )
            continue
        below, above = node.split(hyperplane)
        ref_below, ref_above = ref_node.split(hyperplane)
        counts["cuts"] += 1
        for child, ref_child in ((below, ref_below), (above, ref_above)):
            if _compare_pair(child.polytope, ref_child.polytope, counts):
                frontier.append((child, ref_child))
    assert geometry_counters.delta(before).n_backend_fallbacks == 0


@pytest.mark.parametrize("dim", sorted(DIMENSIONS))
@pytest.mark.parametrize("chunk", range(N_CHUNKS))
def test_region_operations_differential(dim, chunk):
    """>= 200 seeded random split trees per dimension, all ops bit-compared."""
    counts = {"verdicts": 0, "vertex_sets": 0, "cuts": 0, "clips": 0}
    for case in range(CASES_PER_CHUNK):
        seed = 10_000 * dim + 100 * chunk + case
        _run_split_tree_case(np.random.default_rng(seed), dim, counts)
    # The harness must not pass vacuously: every chunk exercises real work.
    assert counts["cuts"] + counts["clips"] >= CASES_PER_CHUNK
    assert counts["vertex_sets"] >= CASES_PER_CHUNK


@pytest.mark.parametrize("dim", sorted(DIMENSIONS))
@pytest.mark.parametrize("seed", range(4))
def test_solver_level_differential(dim, seed):
    """Whole TAS* solves: identical `V_all` bytes, zero LP/qhull closed-form."""
    rng = np.random.default_rng(7_000 + 97 * dim + seed)
    generator = generate_anticorrelated if seed % 2 else generate_independent
    dataset = generator(int(rng.integers(150, 400)), dim + 1, rng=int(rng.integers(1 << 16)))
    k = int(rng.integers(2, 6))
    region, reference = _random_region(rng, dim)

    geometry_counters.reset()
    stats = SolverStats()
    vall = TASStarSolver(rng=3).partition(dataset, k, region, stats=stats)
    ref_stats = SolverStats()
    ref_vall = TASStarSolver(rng=3).partition(dataset, k, reference, stats=ref_stats)

    assert vall.tobytes() == ref_vall.tobytes()
    assert stats.n_lp_calls == 0
    assert stats.n_qhull_calls == 0
    assert stats.n_backend_fallbacks == ref_stats.n_backend_fallbacks == 0
    assert stats.n_regions_tested == ref_stats.n_regions_tested
    assert stats.n_splits == ref_stats.n_splits
