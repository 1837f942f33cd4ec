"""Differential suite: the sharded path is *bit-identical* to the unsharded one.

The sharded solver's contract is not "approximately the same answer" but
byte-equality of every output array: the sharded stages reproduce the exact
global r-skyband (decomposition theorem in :mod:`repro.core.sharded`), after
which the unmodified solve runs on bit-identical inputs.  These tests compare
``V_all``, the lifted weights, the thresholds, the output polytope and the
filtered option ids between :func:`repro.core.toprr.solve_toprr` and the
sharded path across seeded random instances, shard counts (including more
shards than options), both strategies and both executors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sharded import sharded_r_skyband, solve_toprr_sharded
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_anticorrelated, generate_independent
from repro.engine import ShardedEngine, TopRREngine
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
    def test_session_queries_match_unsharded_engine(self):
        dataset = generate_independent(1_500, 3, rng=61)
        regions = [random_hypercube_region(3, 0.07, rng=62 + i) for i in range(3)]
        reference = TopRREngine(dataset)
        with ShardedEngine(dataset, n_shards=4, executor="serial") as engine:
            for k in (4, 9):
                for region in regions:
                    assert_bit_identical(engine.query(k, region), reference.query(k, region))
            # repeat queries hit the merged skyband / result caches, same answers
            again = engine.query(4, regions[0])
            assert_bit_identical(again, reference.query(4, regions[0]))

    def test_engine_rejects_unknown_executor(self):
        dataset = generate_independent(50, 3, rng=71)
        with pytest.raises(InvalidParameterError):
            ShardedEngine(dataset, executor="threads")
