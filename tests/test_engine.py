"""Tests for the session-scoped :class:`repro.engine.TopRREngine`.

Covers: result parity with sequential :func:`solve_toprr`, cache hits and
LRU eviction, batch execution (serial and process), cache warming, the
engine-aware sampled baseline, and the CLI ``batch`` command.
"""

import pickle

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro.cli import main as cli_main
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_independent
from repro.engine import LRUCache, TopRREngine, region_fingerprint
from repro.engine.cache import MISSING
from repro.exceptions import InvalidParameterError
from repro.geometry.polytope import ConvexPolytope
from repro.preference.region import PreferenceRegion


@pytest.fixture(scope="module")
def catalogue():
    return generate_independent(1_500, 3, rng=17)


@pytest.fixture(scope="module")
def regions():
    return [
        PreferenceRegion.hyperrectangle([(0.30, 0.36), (0.30, 0.36)]),
        PreferenceRegion.hyperrectangle([(0.20, 0.26), (0.40, 0.46)]),
        PreferenceRegion.hyperrectangle([(0.45, 0.50), (0.15, 0.20)]),
    ]


class TestLRUCache:
    def test_get_put_and_counters(self):
        cache = LRUCache(2)
        assert cache.get("a") is MISSING
        cache.put("a", 1)
        assert cache.get("a") == 1
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_eviction_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.info().evictions == 1

    def test_zero_size_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is MISSING
        assert len(cache) == 0

    def test_disabled_cache_reports_distinctly_and_counts_nothing(self):
        # Regression: a maxsize<=0 cache used to count a miss on every get,
        # polluting hit-rate stats with lookups that could never hit.
        cache = LRUCache(0)
        for _ in range(5):
            assert cache.get("a") is MISSING
        info = cache.info()
        assert info.disabled is True
        assert (info.hits, info.misses, info.evictions) == (0, 0, 0)
        assert info.as_dict()["disabled"] is True

    def test_enabled_cache_is_not_reported_disabled(self):
        cache = LRUCache(2)
        cache.get("a")
        info = cache.info()
        assert info.disabled is False
        assert info.as_dict()["disabled"] is False
        assert info.misses == 1


class TestDisabledEngineCaches:
    def test_zero_cache_engine_solves_with_clean_stats(self, catalogue, regions):
        baseline = TopRREngine(catalogue)
        disabled = TopRREngine(catalogue, result_cache_size=0, skyband_cache_size=0)
        for region in regions[:2]:
            expected = baseline.query(4, region)
            for _ in range(2):  # repeated queries can't hit anything
                answer = disabled.query(4, region)
                assert answer.vertices_reduced.tobytes() == expected.vertices_reduced.tobytes()
        info = disabled.cache_info()
        assert info["results"]["disabled"] is True
        assert info["skyband"]["disabled"] is True
        assert info["results"]["hits"] == 0 and info["results"]["misses"] == 0
        assert info["skyband"]["hits"] == 0 and info["skyband"]["misses"] == 0

    def test_cached_peeks_short_circuit_when_disabled(self, catalogue, regions):
        engine = TopRREngine(catalogue, result_cache_size=0, skyband_cache_size=0)
        engine.query(4, regions[0])
        assert engine.cached_result(4, regions[0], "tas*") is None
        assert engine.cache_info()["skyband"]["currsize"] == 0


class TestMutationCountersFromConstruction:
    def test_cache_info_carries_zeroed_mutation_block(self, catalogue):
        # The serving /metrics route reads these keys on a replica that has
        # never seen a mutation; they must exist (zeroed) from construction.
        info = TopRREngine(catalogue).cache_info()
        mutations = info["mutations"]
        assert mutations["n_deltas"] == 0
        assert mutations["n_entries_survived"] == 0
        assert mutations["n_results_survived"] == 0
        assert mutations["n_memos_salvaged"] == 0
        # vacuous survival: nothing was ever at risk, so the rate reads 1.0
        assert mutations["survivor_rate"] == 1.0

    def test_solver_stats_mutation_counters_zeroed(self, catalogue, regions):
        result = TopRREngine(catalogue).query(3, regions[0])
        stats = result.stats.as_dict()
        for key in ("n_mutation_deltas", "n_entries_survived", "n_entries_evicted"):
            assert stats.get(key, 0) == 0

    def test_mutation_report_stays_off_later_solves(self, catalogue, regions):
        # The last apply_delta's accounting belongs to cache_info(), not to
        # the stats of whichever unrelated query is solved next.
        engine = TopRREngine(catalogue)
        engine.query(3, regions[0])
        mutated, delta = catalogue.delete_options(positions=[0, 1, 2])
        engine.apply_delta(mutated, delta)
        assert engine.cache_info()["mutations"]["n_deltas"] == 1
        stats = engine.query(4, regions[1]).stats.as_dict()
        for key in ("n_entries_survived", "n_entries_evicted", "n_dominance_tests"):
            assert key not in stats


class TestRegionFingerprint:
    def test_equal_regions_share_fingerprints(self):
        a = PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.1, 0.2)])
        b = PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.1, 0.2)])
        assert region_fingerprint(a) == region_fingerprint(b)

    def test_distinct_regions_differ(self):
        a = PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.1, 0.2)])
        b = PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.1, 0.21)])
        assert region_fingerprint(a) != region_fingerprint(b)

    def test_equivalent_halfspace_forms_share_fingerprints(self):
        box = PreferenceRegion.hyperrectangle([(0.3, 0.35), (0.3, 0.35), (0.1, 0.15)])
        A, b = box.polytope.halfspaces
        order = np.random.default_rng(5).permutation(A.shape[0])
        variants = [
            (A[order], b[order]),  # row permutation
            (A * 2.0, b * 2.0),  # row scaling (exact in binary)
            (np.vstack([A, [[1.0, 1.0, 1.0]]]), np.append(b, 2.0)),  # slack redundant row
            (np.vstack([A, A[:1]]), np.append(b, b[:1])),  # tight (duplicate) row
        ]
        for A_variant, b_variant in variants:
            variant = PreferenceRegion(ConvexPolytope(A_variant, b_variant), n_attributes=4)
            assert region_fingerprint(variant) == region_fingerprint(box)

    def test_nearby_regions_do_not_collide(self):
        # Two boxes 3e-11 apart are different queries: neither may be served
        # the other's cached answer.
        dataset = generate_independent(300, 3, rng=1)
        a = PreferenceRegion.hyperrectangle([(0.3, 0.35), (0.3, 0.35)])
        b = PreferenceRegion.hyperrectangle([(0.3 + 3e-11, 0.35 + 3e-11), (0.3, 0.35)])
        assert region_fingerprint(a) != region_fingerprint(b)
        engine = TopRREngine(dataset)
        engine.query(5, a)
        answer = engine.query(5, b)
        assert answer.region is b
        fresh = solve_toprr(dataset, 5, b)
        assert answer.vertices_reduced.tobytes() == fresh.vertices_reduced.tobytes()
        assert answer.thresholds.tobytes() == fresh.thresholds.tobytes()
        assert engine.cache_info()["results"]["hits"] == 0


class TestEngineQuery:
    def test_parity_with_solve_toprr(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        for k, region in [(5, regions[0]), (3, regions[1]), (8, regions[2])]:
            from_engine = engine.query(k, region)
            standalone = solve_toprr(catalogue, k, region)
            assert from_engine.n_vertices == standalone.n_vertices
            assert np.array_equal(
                np.sort(from_engine.thresholds), np.sort(standalone.thresholds)
            )
            assert from_engine.filtered.n_options == standalone.filtered.n_options
            probes = np.random.default_rng(k).random((200, 3))
            assert np.array_equal(
                from_engine.contains_many(probes), standalone.contains_many(probes)
            )

    def test_repeated_query_served_from_result_cache(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        first = engine.query(5, regions[0])
        second = engine.query(5, regions[0])
        assert first is second
        info = engine.cache_info()
        assert info["results"]["hits"] == 1
        assert info["n_queries"] == 2

    def test_skyband_cache_shared_across_methods(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        engine.query(5, regions[0], method="tas*")
        result = engine.query(5, regions[0], method="tas")
        # Different method: full solve, but the r-skyband comes from cache.
        assert result.stats.extra["skyband_cache_hit"] is True
        assert engine.cache_info()["skyband"]["hits"] == 1

    def test_result_cache_eviction(self, catalogue, regions):
        engine = TopRREngine(catalogue, result_cache_size=2, skyband_cache_size=2)
        for region in regions:  # 3 distinct queries through a size-2 LRU
            engine.query(5, region)
        info = engine.cache_info()
        assert info["results"]["evictions"] == 1
        assert info["skyband"]["evictions"] == 1
        # The first region was evicted: querying it again is a miss.
        engine.query(5, regions[0])
        assert engine.cache_info()["results"]["hits"] == 0

    def test_use_cache_false_bypasses(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        first = engine.query(5, regions[0])
        second = engine.query(5, regions[0], use_cache=False)
        assert first is not second
        assert first.n_vertices == second.n_vertices

    @pytest.mark.parametrize("restored", [False, True], ids=["solved", "snapshot"])
    def test_cached_result_cannot_be_poisoned(self, catalogue, regions, restored, tmp_path):
        engine = TopRREngine(catalogue)
        first = engine.query(5, regions[0])
        fresh = engine.query(5, regions[0], use_cache=False)
        if restored:
            path = engine.save_caches(tmp_path / "caches.json")
            engine = TopRREngine(catalogue)
            engine.load_caches(path)
            first = engine.query(5, regions[0])
        assert first.contains([0.95, 0.95, 0.95])
        for array in (
            first.thresholds,
            first.vertices_reduced,
            first.full_weights,
            first.option_region_vertices,
        ):
            with pytest.raises(ValueError):
                array[:] = 99.0
        hit = engine.query(5, regions[0])
        assert hit is first
        for name in ("thresholds", "vertices_reduced", "full_weights", "option_region_vertices"):
            assert getattr(hit, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert hit.contains([0.95, 0.95, 0.95])

    def test_validation_matches_solve_toprr(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        with pytest.raises(InvalidParameterError):
            engine.query(0, regions[0])
        with pytest.raises(InvalidParameterError):
            engine.query(catalogue.n_options + 1, regions[0])
        with pytest.raises(InvalidParameterError):
            engine.query(5, PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.2, 0.3), (0.1, 0.2)]))

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"], ids=["fraction", "float", "bool", "str"])
    def test_non_integer_k_is_rejected_before_any_work(self, catalogue, regions, k):
        # A fractional k once filtered with 2.5 but answered and cached as
        # k=2, and query_batch truncated it silently; every entry point now
        # refuses it with the typed error and caches nothing.
        engine = TopRREngine(catalogue)
        with pytest.raises(InvalidParameterError, match="k must be an integer"):
            solve_toprr(catalogue, k, regions[0])
        with pytest.raises(InvalidParameterError, match="k must be an integer"):
            engine.query(k, regions[0])
        with pytest.raises(InvalidParameterError, match="k must be an integer"):
            engine.query_batch([(k, regions[0])])
        with pytest.raises(InvalidParameterError, match="k must be an integer"):
            engine.warm([k], regions[:1])
        assert engine.cache_info()["skyband"]["currsize"] == 0
        assert engine.cache_info()["results"]["currsize"] == 0

    def test_numpy_integer_k_shares_the_cache_of_int_k(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        first = engine.query(np.int64(3), regions[0])
        assert engine.query(3, regions[0]) is first
        assert engine.query_batch([(np.int32(3), regions[0])])[0] is first
        reference = solve_toprr(catalogue, 3, regions[0])
        assert first.thresholds.tobytes() == reference.thresholds.tobytes()

    @pytest.mark.parametrize("restored", [False, True], ids=["solved", "snapshot"])
    def test_filtered_subset_cannot_poison_the_skyband_cache(self, restored, tmp_path):
        # The result's D' is the cached r-skyband entry's dataset: writing
        # into it must fail instead of changing what a later query of the
        # same (k, region) under another method is solved on.
        dataset = generate_independent(300, 3, rng=1)
        region = PreferenceRegion.hyperrectangle([(0.3, 0.35), (0.3, 0.35)])
        fresh = solve_toprr(dataset, 5, region, method="tas")
        engine = TopRREngine(dataset)
        first = engine.query(5, region)
        if restored:
            path = engine.save_caches(tmp_path / "caches.json")
            engine = TopRREngine(dataset)
            engine.load_caches(path)
            first = engine.query(5, region)
        with pytest.raises(ValueError):
            first.filtered.values[:] = 0.0
        other = engine.query(5, region, method="tas")
        assert other.stats.extra["skyband_cache_hit"] is True
        assert other.thresholds.tobytes() == fresh.thresholds.tobytes()
        assert other.vertices_reduced.tobytes() == fresh.vertices_reduced.tobytes()

    @pytest.mark.parametrize("restored", [False, True], ids=["solved", "snapshot"])
    def test_cached_stats_cannot_be_poisoned(self, restored, tmp_path):
        dataset = generate_independent(300, 3, rng=1)
        region = PreferenceRegion.hyperrectangle([(0.3, 0.35), (0.3, 0.35)])
        engine = TopRREngine(dataset)
        first = engine.query(5, region)
        if restored:
            path = engine.save_caches(tmp_path / "caches.json")
            engine = TopRREngine(dataset)
            engine.load_caches(path)
            first = engine.query(5, region)
        before = first.stats.as_dict()
        with pytest.raises(AttributeError):
            first.stats.seconds = 999
        with pytest.raises(AttributeError):
            first.stats.n_regions_tested = -1
        with pytest.raises(TypeError):
            first.stats.extra["skyband_cache_hit"] = "poisoned"
        with pytest.raises(TypeError):
            first.stats.extra.update(poisoned=True)
        hit = engine.query(5, region)
        assert hit is first
        assert hit.stats.as_dict() == before
        # Frozen stats still pickle, e.g. into a worker process.
        assert pickle.loads(pickle.dumps(hit.stats)).as_dict() == before

    def test_caller_dataset_stays_writable(self, regions):
        dataset = generate_independent(200, 3, rng=4)
        engine = TopRREngine(dataset)
        result = engine.query(4, regions[0])
        assert result.dataset is dataset
        assert dataset.values.flags.writeable


class TestEngineBatch:
    def batch_specs(self, regions):
        return [(5, regions[0]), (3, regions[1]), (5, regions[0]), (8, regions[2])]

    def test_batch_parity_with_sequential(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        specs = self.batch_specs(regions)
        batch = engine.query_batch(specs)
        assert len(batch) == len(specs)
        for (k, region), result in zip(specs, batch):
            reference = solve_toprr(catalogue, k, region)
            assert result.k == k
            assert result.n_vertices == reference.n_vertices
            assert np.array_equal(np.sort(result.thresholds), np.sort(reference.thresholds))

    def test_batch_process_executor(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        specs = self.batch_specs(regions)
        batch = engine.query_batch(specs, executor="process", n_workers=2)
        serial = engine.query_batch(specs)
        for pooled, reference in zip(batch, serial):
            assert pooled.vertices_reduced.tobytes() == reference.vertices_reduced.tobytes()
            assert pooled.thresholds.tobytes() == reference.thresholds.tobytes()

    def test_batch_rejects_unknown_executor(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        for executor in ("gpu", "thread"):
            with pytest.raises(InvalidParameterError):
                engine.query_batch([(5, regions[0]), (3, regions[1])], executor=executor)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_batch_validates_every_query_first(self, catalogue, regions, monkeypatch, executor):
        # One bad k anywhere in the batch refuses the whole batch before the
        # good queries are solved (or cached) and before a pool starts.
        def no_pool(*_args, **_kwargs):
            raise AssertionError("query_batch started a process pool")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", no_pool)
        engine = TopRREngine(catalogue)
        before = engine.cache_info()["results"]
        with pytest.raises(InvalidParameterError):
            engine.query_batch([(3, regions[0]), (2.5, regions[0])], executor=executor)
        assert engine.cache_info()["results"] == before
        assert engine.n_queries == 0

    def test_one_fingerprint_per_query(self, catalogue, regions, monkeypatch):
        # A miss keys the result LRU and the r-skyband LRU with one fingerprint.
        calls = []

        def counted(region):
            calls.append(region)
            return region_fingerprint(region)

        monkeypatch.setattr(engine_module, "region_fingerprint", counted)
        engine = TopRREngine(catalogue)
        engine.query(4, regions[0])
        assert len(calls) == 1
        engine.query(4, regions[0])  # a result hit
        assert len(calls) == 2
        engine.query(4, regions[0], use_cache=False)  # a skyband hit
        assert len(calls) == 3

    def test_warm_precomputes_skyband(self, catalogue, regions):
        engine = TopRREngine(catalogue)
        computed = engine.warm([4, 6], regions[:2])
        assert computed == 4
        assert engine.warm([4], regions[:1]) == 0  # already cached
        engine.query(4, regions[0])
        assert engine.cache_info()["skyband"]["hits"] >= 1


class TestCLIBatch:
    def test_batch_command_smoke(self, capsys):
        code = cli_main(
            [
                "batch",
                "--n", "400",
                "--d", "3",
                "--k", "4",
                "--queries", "6",
                "--distinct", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine batch" in out
        assert "result cache" in out
