"""Differential suite: the sharded path is *bit-identical* to the unsharded one.

The sharded solver's contract is not "approximately the same answer" but
byte-equality of every output array: the sharded stages reproduce the exact
global r-skyband (decomposition theorem in :mod:`repro.core.sharded`), after
which the unmodified solve runs on bit-identical inputs.  These tests compare
``V_all``, the lifted weights, the thresholds, the output polytope and the
filtered option ids between :func:`repro.core.toprr.solve_toprr` (or a plain
:class:`~repro.engine.TopRREngine`) and the sharded pre-filter across seeded
random instances, shard counts (including more shards than options), both
strategies and both executors.  The engine's cache counters must not notice
the sharding either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sharded import ShardedPrefilter, sharded_r_skyband, solve_toprr_sharded
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_anticorrelated, generate_independent
from repro.engine import TopRREngine
from repro.exceptions import InvalidParameterError
from repro.preference.random_regions import random_hypercube_region
from repro.pruning.rskyband import r_skyband


def assert_bit_identical(sharded, reference):
    """Byte-compare every output array of two TopRR results."""
    assert sharded.vertices_reduced.tobytes() == reference.vertices_reduced.tobytes()
    assert sharded.full_weights.tobytes() == reference.full_weights.tobytes()
    assert sharded.thresholds.tobytes() == reference.thresholds.tobytes()
    assert np.array_equal(sharded.polytope.vertices, reference.polytope.vertices)
    assert sharded.filtered.option_ids == reference.filtered.option_ids
    assert sharded.filtered.values.tobytes() == reference.filtered.values.tobytes()


class TestShardedSkybandEqualsGlobal:
    """Stage-level differential: the sharded filter IS the global r-skyband."""

    @pytest.mark.parametrize("strategy", ["contiguous", "hash"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_fuzz_d3(self, n_shards, strategy):
        rng = np.random.default_rng(100 * n_shards + len(strategy))
        for trial in range(6):
            n = int(rng.integers(5, 900))
            k = int(rng.integers(1, min(n, 15) + 1))
            dataset = generate_independent(n, 3, rng=int(rng.integers(0, 2**31)))
            region = random_hypercube_region(3, 0.08, rng=int(rng.integers(0, 2**31)))
            expected = r_skyband(dataset, k, region)
            actual = sharded_r_skyband(dataset, k, region, n_shards, strategy)
            assert np.array_equal(actual, expected), (trial, n, k)

    @pytest.mark.parametrize("strategy", ["contiguous", "hash"])
    def test_fuzz_d4_anticorrelated(self, strategy):
        rng = np.random.default_rng(7 if strategy == "hash" else 11)
        for trial in range(4):
            n = int(rng.integers(50, 600))
            k = int(rng.integers(1, 12))
            dataset = generate_anticorrelated(n, 4, rng=int(rng.integers(0, 2**31)))
            region = random_hypercube_region(4, 0.06, rng=int(rng.integers(0, 2**31)))
            expected = r_skyband(dataset, k, region)
            for n_shards in (2, 7):
                actual = sharded_r_skyband(dataset, k, region, n_shards, strategy)
                assert np.array_equal(actual, expected), (trial, n_shards)


class TestShardedSolveParity:
    """End-to-end differential: full results byte-compared."""

    @pytest.mark.parametrize("strategy", ["contiguous", "hash"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_fuzz_d3_serial(self, n_shards, strategy):
        rng = np.random.default_rng(1000 * n_shards + len(strategy))
        for trial in range(3):
            n = int(rng.integers(20, 1200))
            k = int(rng.integers(1, min(n, 12) + 1))
            seed = int(rng.integers(0, 2**31))
            dataset = generate_independent(n, 3, rng=seed)
            region = random_hypercube_region(3, 0.07, rng=seed + 1)
            reference = solve_toprr(dataset, k, region)
            sharded = solve_toprr_sharded(
                dataset, k, region, n_shards=n_shards, strategy=strategy, executor="serial"
            )
            assert_bit_identical(sharded, reference)
            assert sharded.stats.n_shards == n_shards
            assert sharded.stats.n_filtered_options == reference.stats.n_filtered_options

    @pytest.mark.parametrize("strategy", ["contiguous", "hash"])
    def test_d3_process_executor(self, strategy):
        dataset = generate_independent(2_000, 3, rng=21)
        region = random_hypercube_region(3, 0.06, rng=22)
        reference = solve_toprr(dataset, 8, region)
        sharded = solve_toprr_sharded(
            dataset, 8, region, n_shards=4, strategy=strategy, executor="process"
        )
        assert_bit_identical(sharded, reference)
        assert sharded.stats.extra["shard_executor"] == "process"
        assert len(sharded.stats.extra["shard_seconds"]) == 4
        assert sum(sharded.stats.extra["shard_candidates"]) == sharded.stats.extra["n_candidates"]

    @pytest.mark.slow
    def test_d4_serial_and_process(self):
        dataset = generate_anticorrelated(800, 4, rng=31)
        region = random_hypercube_region(4, 0.05, rng=32)
        reference = solve_toprr(dataset, 6, region)
        for strategy, executor in [("contiguous", "serial"), ("hash", "serial"), ("contiguous", "process")]:
            sharded = solve_toprr_sharded(
                dataset, 6, region, n_shards=4, strategy=strategy, executor=executor
            )
            assert_bit_identical(sharded, reference)

    def test_more_shards_than_options(self):
        """Empty shards (n_shards > n) contribute nothing and break nothing."""
        dataset = generate_independent(5, 3, rng=41)
        region = random_hypercube_region(3, 0.1, rng=42)
        reference = solve_toprr(dataset, 2, region)
        for strategy in ("contiguous", "hash"):
            sharded = solve_toprr_sharded(
                dataset, 2, region, n_shards=7, strategy=strategy, executor="serial"
            )
            assert_bit_identical(sharded, reference)

    def test_solve_toprr_shards_dispatch(self):
        # Sharding has one one-shot entry point; solve_toprr does not dispatch to it.
        dataset = generate_independent(600, 3, rng=51)
        region = random_hypercube_region(3, 0.08, rng=52)
        reference = solve_toprr(dataset, 5, region)
        sharded = solve_toprr_sharded(dataset, 5, region, n_shards=3, executor="serial")
        assert_bit_identical(sharded, reference)
        with pytest.raises(TypeError):
            solve_toprr(dataset, 5, region, shards=3)


class TestShardedEngineParity:
    """The sharded engine — a ``TopRREngine`` whose pre-filter is a
    :class:`ShardedPrefilter` — against a plain engine."""

    def test_session_queries_match_unsharded_engine(self):
        dataset = generate_independent(1_500, 3, rng=61)
        regions = [random_hypercube_region(3, 0.07, rng=62 + i) for i in range(3)]
        reference = TopRREngine(dataset)
        with ShardedPrefilter(4, executor="serial") as shards:
            engine = TopRREngine(dataset, prefilter=shards)
            for k in (4, 9):
                for region in regions:
                    assert_bit_identical(engine.query(k, region), reference.query(k, region))
            # repeat queries hit the skyband / result caches, same answers
            again = engine.query(4, regions[0])
            assert_bit_identical(again, reference.query(4, regions[0]))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("strategy", ["contiguous", "hash"])
    @pytest.mark.parametrize("n", [7, 900])
    def test_engine_parity_across_executors_and_strategies(self, executor, strategy, n):
        """Cold queries through both filter branches (cached and cache-disabled)."""
        dataset = generate_independent(n, 3, rng=n)
        region = random_hypercube_region(3, 0.08, rng=n + 1)
        reference = TopRREngine(dataset).query(3, region)
        with ShardedPrefilter(9, strategy=strategy, executor=executor) as shards:
            for size in (128, 0):
                engine = TopRREngine(dataset, prefilter=shards, skyband_cache_size=size)
                result = engine.query(3, region)
                assert_bit_identical(result, reference)
                assert result.stats.n_shards == 9
                assert result.stats.extra["shard_executor"] == executor
                assert len(result.stats.extra["shard_candidates"]) == 9
        if n < 9:
            assert 0 in result.stats.extra["shard_candidates"]  # empty shards

    def test_cache_counters_match_unsharded_engine(self):
        """Sharding changes no cache counter: cold, repeated and post-delta queries."""
        dataset = generate_independent(400, 3, rng=81)
        regions = [random_hypercube_region(3, 0.08, rng=82 + i) for i in range(3)]
        stream = [(k, region) for region in regions for k in (3, 5)]
        plain = TopRREngine(dataset, rng=0)
        with ShardedPrefilter(2, executor="serial") as shards:
            sharded = TopRREngine(dataset, prefilter=shards, rng=0)
            mutated, delta = dataset.insert_options(
                np.random.default_rng(83).random((12, 3)) * 0.2 + 0.8
            )
            for engine in (plain, sharded):
                for k, region in stream + stream:  # cold, then repeated
                    engine.query(k, region)
                engine.warm([3], regions)
                engine.apply_delta(mutated, delta)
                for k, region in stream:  # survivors hit, evicted entries rebuild
                    engine.query(k, region)
            for key in ("skyband", "results", "mutations"):
                assert sharded.cache_info()[key] == plain.cache_info()[key], key
            assert sharded.cache_info()["n_queries"] == plain.cache_info()["n_queries"]
            assert plain.cache_info()["results"]["misses"] > len(stream)  # deltas evicted some
            for k, region in stream:
                assert_bit_identical(sharded.query(k, region), plain.query(k, region))

    def test_engine_rejects_unknown_executor(self):
        dataset = generate_independent(50, 3, rng=71)
        with pytest.raises(InvalidParameterError):
            TopRREngine(dataset, prefilter=ShardedPrefilter(2, executor="threads"))
