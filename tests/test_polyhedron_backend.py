"""Solver-level parity of the polyhedron geometry backend.

The exact 3-D backend replaces the solvers' innermost geometric primitive
(split / emptiness / vertex enumeration) for ``d = 4`` datasets (3-D
preference space) — the paper's second headline setting.  Mirroring
``tests/test_polygon_backend.py``, the guarantee is end-to-end: every solver
run on the polyhedron backend must produce **bit-identical** ``V_all`` —
and identical split/region/vertex counters — to the LP/qhull path, while
reporting **zero** LP and qhull calls in :class:`~repro.core.stats.SolverStats`,
and without a single backend fallback (a body demoted to LP/qhull).
"""

import numpy as np
import pytest

from repro.core.pac import PACSolver
from repro.core.stats import SolverStats
from repro.core.tas import TASSolver
from repro.core.tas_star import TASStarSolver
from repro.data.generators import generate_anticorrelated, generate_independent
from repro.engine import TopRREngine
from repro.engine.fingerprint import region_fingerprint
from repro.geometry.polytope import use_backend
from repro.preference.region import PreferenceRegion

#: Stats fields that legitimately differ between backends (the geometry
#: call mix and timing), plus the incremental-path cache counters.
BACKEND_FIELDS = {"n_lp_calls", "n_qhull_calls", "n_clip_calls", "seconds"}

INTERVALS = [(0.22, 0.27), (0.22, 0.27), (0.22, 0.27)]


def _regions():
    """The same d=4 region built on the polyhedron (auto) and the qhull backend."""
    polyhedron_region = PreferenceRegion.hyperrectangle(INTERVALS)
    with use_backend("qhull"):
        qhull_region = PreferenceRegion.hyperrectangle(INTERVALS)
    assert polyhedron_region.polytope.backend == "polyhedron"
    assert qhull_region.polytope.backend == "qhull"
    return polyhedron_region, qhull_region


def _solve(solver_cls, dataset, k, region, **kwargs):
    solver = solver_cls(rng=5, **kwargs)
    stats = SolverStats()
    vall = solver.partition(dataset, k, region, stats=stats)
    assert stats.n_backend_fallbacks == 0
    return vall, stats


def _comparable(stats: SolverStats) -> dict:
    return {
        key: value
        for key, value in stats.as_dict().items()
        if key not in BACKEND_FIELDS
    }


class TestSolverParity:
    """`V_all` and solve statistics must not depend on the geometry backend."""

    @pytest.mark.parametrize("solver_cls", [TASStarSolver, TASSolver, PACSolver])
    @pytest.mark.parametrize("generator", [generate_independent, generate_anticorrelated])
    def test_vall_bit_identical_and_zero_lp(self, solver_cls, generator):
        dataset = generator(1200, 4, rng=1)
        polyhedron_region, qhull_region = _regions()
        vall_polyhedron, stats_polyhedron = _solve(solver_cls, dataset, 5, polyhedron_region)
        vall_qhull, stats_qhull = _solve(solver_cls, dataset, 5, qhull_region)

        assert np.array_equal(vall_polyhedron, vall_qhull)
        assert _comparable(stats_polyhedron) == _comparable(stats_qhull)

        # The tentpole claim: d=4 geometry without a single LP or qhull call.
        assert stats_polyhedron.n_lp_calls == 0
        assert stats_polyhedron.n_qhull_calls == 0
        assert stats_polyhedron.n_clip_calls > 0
        # ... which the reference arm pays per region.
        assert stats_qhull.n_lp_calls >= stats_qhull.n_regions_tested

    @pytest.mark.slow
    @pytest.mark.parametrize("use_k_switch", [False, True])
    def test_strategies_and_ablations(self, use_k_switch):
        dataset = generate_anticorrelated(500, 4, rng=3)
        for use_lemma7 in (False, True):
            polyhedron_region, qhull_region = _regions()
            vall_polyhedron, _ = _solve(
                TASStarSolver,
                dataset,
                4,
                polyhedron_region,
                use_k_switch=use_k_switch,
                use_lemma7=use_lemma7,
            )
            vall_qhull, _ = _solve(
                TASStarSolver,
                dataset,
                4,
                qhull_region,
                use_k_switch=use_k_switch,
                use_lemma7=use_lemma7,
            )
            assert np.array_equal(vall_polyhedron, vall_qhull)

    def test_incremental_off_also_matches(self):
        dataset = generate_independent(1000, 4, rng=7)
        polyhedron_region, qhull_region = _regions()
        vall_polyhedron, _ = _solve(
            TASStarSolver, dataset, 5, polyhedron_region, incremental=False
        )
        vall_qhull, _ = _solve(TASStarSolver, dataset, 5, qhull_region, incremental=False)
        assert np.array_equal(vall_polyhedron, vall_qhull)

    def test_memo_hit_rate_carries_over(self):
        # Canonical vertex bytes are shared across split siblings, so the
        # vertex-score memo keeps its hit rate on the polyhedron backend.
        dataset = generate_independent(1200, 4, rng=9)
        polyhedron_region, qhull_region = _regions()
        _vall_p, stats_p = _solve(TASStarSolver, dataset, 6, polyhedron_region)
        _vall_q, stats_q = _solve(TASStarSolver, dataset, 6, qhull_region)
        assert stats_p.vertex_cache_hit_rate == pytest.approx(stats_q.vertex_cache_hit_rate)
        if stats_p.n_splits >= 5:
            assert stats_p.vertex_cache_hit_rate > 0.5


class TestEngineIntegration:
    """The query engine is backend-transparent at d=4, including cache keys."""

    def test_fingerprints_are_backend_independent(self):
        polyhedron_region, qhull_region = _regions()
        assert region_fingerprint(polyhedron_region) == region_fingerprint(qhull_region)

    def test_engine_results_match_across_backends(self):
        dataset = generate_independent(1200, 4, rng=2)
        polyhedron_region, qhull_region = _regions()
        engine = TopRREngine(dataset)
        result_polyhedron = engine.query(5, polyhedron_region)
        # Same fingerprint: the qhull-built region must hit the result cache.
        result_again = engine.query(5, qhull_region)
        assert result_again is result_polyhedron

        with use_backend("qhull"):
            reference_engine = TopRREngine(dataset)
            result_qhull = reference_engine.query(5, qhull_region)
        assert np.array_equal(
            result_polyhedron.vertices_reduced, result_qhull.vertices_reduced
        )
        assert result_polyhedron.stats.n_lp_calls == 0
        assert result_polyhedron.stats.n_qhull_calls == 0
        assert result_qhull.stats.n_lp_calls > 0
