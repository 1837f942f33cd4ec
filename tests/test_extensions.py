"""Tests for the core extensions: sampled baseline, parallel solving, pre-computation."""

import hashlib
import inspect

import numpy as np
import pytest

from repro.core.parallel import RegionParallelSolver, split_region_into_boxes
from repro.core.precompute import RESULT_CACHE_SIZE, PrecomputedTopRR, region_fingerprint
from repro.core.sampled import evaluate_sampled_exactness, sampled_toprr
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_independent
from repro.engine import TopRREngine
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion

#: SHA-256 of ``V_all``, ``thresholds`` and the ``oR`` vertices of the
#: region-parallel answer on the ``market`` / ``region`` fixtures (k=8,
#: 4 pieces), recorded before the solver was folded into the query engine.
PARALLEL_ANSWER_SHA256 = (
    "9fc37c97b7a06c0e30c454ba9ebffa16c3143edf2b5922f172353d5695ac0e02",
    "3568a7b7b350504ac3c882aed121c6e80c41418131aff4c3b11387054f437fa6",
    "e88c60057fbe36e2bbbfe4405db4f25f02008961cadd040733c92b09c26068d1",
)


def answer_sha256(result):
    """SHA-256 of the answer arrays, in the order of :data:`PARALLEL_ANSWER_SHA256`."""
    arrays = (result.vertices_reduced, result.thresholds, result.polytope.vertices)
    return tuple(hashlib.sha256(array.tobytes()).hexdigest() for array in arrays)


@pytest.fixture(scope="module")
def market():
    return generate_independent(2_000, 3, rng=101)


@pytest.fixture(scope="module")
def region():
    return PreferenceRegion.hyperrectangle([(0.3, 0.38), (0.28, 0.36)])


@pytest.fixture(scope="module")
def exact_result(market, region):
    return solve_toprr(market, 8, region)


class TestSampledBaseline:
    def test_sampled_region_is_a_superset_of_the_exact_one(self, market, region, exact_result):
        sampled = sampled_toprr(market, 8, region, n_samples=16, rng=3)
        probes = np.random.default_rng(0).random((600, 3))
        exact_accept = exact_result.contains_many(probes)
        sampled_accept = sampled.contains_many(probes)
        # Everything the exact region accepts must also be accepted by the
        # sampled one (fewer halfspaces are intersected).
        assert np.all(sampled_accept[exact_accept])

    def test_exactness_report_structure(self, market, region, exact_result):
        sampled = sampled_toprr(market, 8, region, n_samples=8, rng=5)
        report = evaluate_sampled_exactness(exact_result, sampled, n_probes=400, rng=7)
        assert report.n_probes == 400
        assert 0.0 <= report.false_accept_rate <= 1.0
        assert 0.0 <= report.worst_uncovered_fraction <= 1.0
        assert report.is_exact == (report.n_false_accepts == 0)

    def test_more_samples_do_not_increase_false_accepts(self, market, region, exact_result):
        few = sampled_toprr(market, 8, region, n_samples=4, include_vertices=False, rng=11)
        many = sampled_toprr(market, 8, region, n_samples=256, include_vertices=False, rng=11)
        report_few = evaluate_sampled_exactness(exact_result, few, n_probes=500, rng=13)
        report_many = evaluate_sampled_exactness(exact_result, many, n_probes=500, rng=13)
        assert report_many.n_false_accepts <= report_few.n_false_accepts

    def test_method_label_and_stats(self, market, region):
        sampled = sampled_toprr(market, 8, region, n_samples=12, rng=1)
        assert "sampled" in sampled.method
        assert sampled.stats.extra["n_samples"] == 12

    def test_invalid_parameters(self, market, region):
        with pytest.raises(InvalidParameterError):
            sampled_toprr(market, 0, region)
        with pytest.raises(InvalidParameterError):
            sampled_toprr(market, 5, region, n_samples=0)
        with pytest.raises(InvalidParameterError):
            sampled_toprr(market, 5, PreferenceRegion.interval(0.2, 0.4))

    def test_mismatched_instances_rejected(self, market, region, exact_result):
        other = solve_toprr(market, 3, region)
        sampled = sampled_toprr(market, 8, region, n_samples=8)
        with pytest.raises(InvalidParameterError):
            evaluate_sampled_exactness(other, sampled)


class TestRegionChopping:
    def test_pieces_cover_the_region(self, region):
        pieces = split_region_into_boxes(region, 4)
        assert len(pieces) >= 2
        total = sum(piece.volume() for piece in pieces)
        assert total == pytest.approx(region.volume(), rel=1e-6)

    def test_single_piece_request(self, region):
        pieces = split_region_into_boxes(region, 1)
        assert len(pieces) == 1
        assert pieces[0].volume() == pytest.approx(region.volume())

    def test_invalid_piece_count(self, region):
        with pytest.raises(InvalidParameterError):
            split_region_into_boxes(region, 0)


class TestParallelSolving:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_matches_sequential_answer(self, market, region, exact_result, executor):
        solver = RegionParallelSolver(n_workers=2, n_pieces=4, executor=executor)
        parallel = solve_toprr(market, 8, region, method=solver)
        probes = np.random.default_rng(17).random((500, 3))
        assert np.array_equal(
            parallel.contains_many(probes), exact_result.contains_many(probes)
        )
        assert parallel.stats.extra["n_pieces"] >= 2

    def test_process_executor_smoke(self, region):
        # Keep the instance small: process start-up dominates at this scale,
        # the point is only that the pool path works end to end.
        small = generate_independent(400, 3, rng=3)
        sequential = solve_toprr(small, 5, region)
        solver = RegionParallelSolver(n_workers=2, n_pieces=2, executor="process")
        parallel = solve_toprr(small, 5, region, method=solver)
        probes = np.random.default_rng(19).random((300, 3))
        assert np.array_equal(
            parallel.contains_many(probes), sequential.contains_many(probes)
        )

    def test_invalid_parameters(self, market, region):
        with pytest.raises(InvalidParameterError):
            solve_toprr(market, 0, region, method=RegionParallelSolver())
        with pytest.raises(InvalidParameterError):
            RegionParallelSolver(n_workers=0)
        with pytest.raises(InvalidParameterError):
            RegionParallelSolver(executor="gpu")
        with pytest.raises(InvalidParameterError):
            RegionParallelSolver(executor="thread")

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_k_beyond_dataset_size_rejected(self, region, executor):
        # Same validation as solve_toprr: the parallel path runs the engine's.
        tiny = generate_independent(30, 3, rng=31)
        with pytest.raises(InvalidParameterError):
            solve_toprr(tiny, 31, region, method=RegionParallelSolver(n_workers=2, executor=executor))

    def test_reports_the_engine_pipeline_counters(self, market, region):
        result = solve_toprr(
            market, 8, region, method=RegionParallelSolver(n_pieces=4, executor="serial")
        )
        stats = result.stats
        assert stats.n_after_lemma5 > 0
        assert stats.n_vertices == result.n_vertices
        assert stats.n_clip_calls > 0  # geometry counters summed over pieces
        assert stats.extra["skyband_cache_hit"] is False

    def test_engine_runs_the_solver_on_its_cached_skyband(self, market, region):
        engine = TopRREngine(market)
        engine.warm([8], [region])
        solver = RegionParallelSolver(n_workers=2, n_pieces=4, executor="serial")
        result = engine.query(8, region, method=solver)
        assert result.stats.extra["skyband_cache_hit"] is True
        assert answer_sha256(result) == PARALLEL_ANSWER_SHA256


class TestPrecomputedTopRR:
    def test_matches_unindexed_answer(self, market, region):
        index = PrecomputedTopRR(market, k_max=10)
        direct = solve_toprr(market, 8, region)
        indexed = index.solve(8, region)
        probes = np.random.default_rng(23).random((500, 3))
        assert np.array_equal(indexed.contains_many(probes), direct.contains_many(probes))
        assert np.allclose(np.sort(indexed.thresholds), np.sort(direct.thresholds))

    def test_candidate_set_is_much_smaller(self, market):
        index = PrecomputedTopRR(market, k_max=10)
        assert index.skyband_size < market.n_options
        assert index.reduction_factor > 2

    def test_cache_hits_on_repeated_queries(self, market, region):
        index = PrecomputedTopRR(market, k_max=10)
        first = index.solve(5, region)
        second = index.solve(5, region)
        assert second is first
        assert index.cache_info()["hits"] == 1
        # A different k is a different cache entry.
        index.solve(6, region)
        assert index.cache_info()["entries"] == 2

    def test_result_cache_is_bounded(self):
        bound = inspect.signature(TopRREngine).parameters["result_cache_size"].default
        assert RESULT_CACHE_SIZE == bound
        index = PrecomputedTopRR(generate_independent(60, 3, rng=5), k_max=2)
        for i in range(RESULT_CACHE_SIZE + 6):
            low = 0.2 + 0.002 * i
            index.solve(1, PreferenceRegion.hyperrectangle([(low, low + 0.05), (0.3, 0.35)]))
        info = index.cache_info()
        assert info["entries"] == RESULT_CACHE_SIZE
        assert info["misses"] == RESULT_CACHE_SIZE + 6
        result = index.solve(1, PreferenceRegion.hyperrectangle([(0.2, 0.25), (0.3, 0.35)]))
        with pytest.raises(ValueError):
            result.thresholds[0] = 0

    def test_existing_options_reported_in_original_indices(self, market, region):
        index = PrecomputedTopRR(market, k_max=10)
        indexed = index.solve(8, region)
        direct = solve_toprr(market, 8, region)
        assert set(indexed.existing_top_ranking_options().tolist()) == set(
            direct.existing_top_ranking_options().tolist()
        )

    def test_k_beyond_kmax_falls_back(self, market, region):
        index = PrecomputedTopRR(market, k_max=3)
        result = index.solve(6, region)
        direct = solve_toprr(market, 6, region)
        probes = np.random.default_rng(29).random((300, 3))
        assert np.array_equal(result.contains_many(probes), direct.contains_many(probes))

    def test_fingerprint_distinguishes_regions(self, region):
        other = PreferenceRegion.hyperrectangle([(0.31, 0.38), (0.28, 0.36)])
        assert region_fingerprint(region) != region_fingerprint(other)
        assert region_fingerprint(region) == region_fingerprint(region)

    def test_invalid_parameters(self, market, region):
        with pytest.raises(InvalidParameterError):
            PrecomputedTopRR(market, k_max=0)
        index = PrecomputedTopRR(market, k_max=5)
        with pytest.raises(InvalidParameterError):
            index.solve(0, region)
        with pytest.raises(InvalidParameterError):
            index.solve(3, PreferenceRegion.interval(0.2, 0.4))


class TestParallelIncrementalRouting:
    """The chopped-region path routes through the shared split-tree memo."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_incremental_matches_from_scratch(self, market, region, executor):
        incremental = solve_toprr(
            market,
            8,
            region,
            method=RegionParallelSolver(
                n_workers=2, n_pieces=4, executor=executor, incremental=True
            ),
        )
        scratch = solve_toprr(
            market,
            8,
            region,
            method=RegionParallelSolver(
                n_workers=2, n_pieces=4, executor=executor, incremental=False
            ),
        )
        assert answer_sha256(incremental) == PARALLEL_ANSWER_SHA256
        assert answer_sha256(scratch) == PARALLEL_ANSWER_SHA256
        # memo counters are live on the incremental path and silent otherwise
        stats = incremental.stats
        assert stats.n_score_rows_computed > 0
        assert stats.n_score_rows_reused > 0
        assert stats.n_score_batches > 0
        assert scratch.stats.n_score_rows_computed == 0
        assert scratch.stats.n_score_batches == 0

    def test_shared_memo_reuses_rows_across_pieces(self, market, region):
        # Piece-boundary vertices are shared between adjacent pieces; with the
        # serial executor all pieces feed one memo, so reuse must exceed what
        # any single piece's split tree could produce alone.
        result = solve_toprr(
            market,
            8,
            region,
            method=RegionParallelSolver(n_workers=1, n_pieces=4, executor="serial"),
        )
        stats = result.stats
        assert stats.n_score_rows_reused > 0
        assert stats.extra["n_pieces"] == stats.extra["n_pieces_requested"] == 4


class TestDegenerateChopping:
    def test_thin_region_warns_once_and_reports_shortfall(self):
        import warnings

        import repro.core.parallel as parallel_mod

        thin = PreferenceRegion.hyperrectangle(
            [(0.3, 0.3 + 1e-12), (0.3, 0.3 + 1e-12)]
        )
        parallel_mod._degenerate_split_warned = False
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = split_region_into_boxes(thin, 4)
                second = split_region_into_boxes(thin, 4)
            assert len(first) == 1 and len(second) == 1
            runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert len(runtime) == 1  # warn once per process, not per call
            assert "4" in str(runtime[0].message)
        finally:
            parallel_mod._degenerate_split_warned = False

    def test_requested_piece_count_lands_in_stats(self):
        small = generate_independent(300, 3, rng=23)
        region = PreferenceRegion.hyperrectangle([(0.3, 0.36), (0.3, 0.36)])
        result = solve_toprr(
            small, 4, region, method=RegionParallelSolver(n_pieces=3, executor="serial")
        )
        assert result.stats.extra["n_pieces_requested"] == 3
        assert result.stats.extra["n_pieces"] <= 3
