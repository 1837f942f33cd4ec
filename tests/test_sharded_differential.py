"""Differential suite: the sharded r-skyband *is* the global r-skyband.

:func:`~repro.core.sharded.sharded_r_skyband` filters every option shard on
its own and reconciles the candidates (decomposition theorem in
:mod:`repro.core.sharded`).  These tests byte-compare its indices with
:func:`repro.pruning.rskyband.r_skyband` across seeded random instances,
shard counts (including more shards than options) and both strategies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sharded import sharded_r_skyband
from repro.data.generators import generate_anticorrelated, generate_independent
from repro.preference.random_regions import random_hypercube_region
from repro.pruning.rskyband import r_skyband


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
    def test_more_shards_than_options(self):
        """Empty shards (n_shards > n) contribute nothing and break nothing."""
        dataset = generate_independent(5, 3, rng=41)
        region = random_hypercube_region(3, 0.1, rng=42)
        expected = r_skyband(dataset, 2, region)
        for strategy in ("contiguous", "hash"):
            actual = sharded_r_skyband(dataset, 2, region, 7, strategy)
            assert actual.dtype == expected.dtype
            assert actual.tobytes() == expected.tobytes(), strategy
