"""Unit tests for the option-shard plans of :mod:`repro.core.sharded`.

Covers the shard plans (disjoint union, balance, stable hash assignment,
empty shards, validation) and the per-shard filter's mapping back to parent
positions.  The sharded-equals-global r-skyband equivalences live in
``tests/test_sharded_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sharded import SHARD_STRATEGIES, hash_assignments, plan_shards, shard_skyband
from repro.data.generators import generate_independent
from repro.exceptions import InvalidParameterError


class TestShardPlans:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    @pytest.mark.parametrize("n_options,n_shards", [(1, 1), (10, 3), (100, 7), (5, 7), (64, 4)])
    def test_plan_is_a_disjoint_cover(self, n_options, n_shards, strategy):
        plan = plan_shards(n_options, n_shards, strategy)
        assert len(plan) == n_shards
        union = np.concatenate(plan)
        assert sorted(union.tolist()) == list(range(n_options))

    def test_contiguous_bounds_are_balanced(self):
        plan = plan_shards(10, 3, "contiguous")
        assert [positions.tolist() for positions in plan] == [
            [0, 1, 2],
            [3, 4, 5],
            [6, 7, 8, 9],
        ]
        assert [positions.shape[0] for positions in plan] == [3, 3, 4]

    def test_positions_are_ascending(self):
        plan = plan_shards(200, 5, "hash")
        for shard_id, positions in enumerate(plan):
            assert np.all(np.diff(positions) > 0)
            assert np.array_equal(positions, np.flatnonzero(hash_assignments(200, 5) == shard_id))

    def test_hash_assignment_is_stable_and_seedless(self):
        first = hash_assignments(1000, 4)
        second = hash_assignments(1000, 4)
        assert np.array_equal(first, second)
        assert first.min() >= 0 and first.max() < 4
        # splitmix64 mixes well enough that no shard is starved
        counts = np.bincount(first, minlength=4)
        assert counts.min() > 150

    def test_empty_shards_when_more_shards_than_rows(self):
        plan = plan_shards(3, 7, "contiguous")
        sizes = [positions.shape[0] for positions in plan]
        assert sum(sizes) == 3
        assert 0 in sizes

    def test_plan_validation(self):
        with pytest.raises(InvalidParameterError):
            plan_shards(10, 0)
        with pytest.raises(InvalidParameterError):
            plan_shards(10, 2, "roundrobin")


class TestShardSkyband:
    def test_empty_shard_contributes_no_candidates(self):
        scores = np.random.default_rng(0).random((3, 2))
        empty = plan_shards(3, 7, "contiguous")[0]
        assert empty.shape[0] == 0
        assert shard_skyband(scores, empty, 2).size == 0

    def test_hash_shard_returns_parent_positions(self):
        dataset = generate_independent(60, 3, rng=1)
        scores = dataset.values @ np.array([[0.3, 0.3, 0.4], [0.35, 0.3, 0.35]]).T
        positions = plan_shards(60, 3, "hash")[2]
        kept = shard_skyband(scores, positions, 4)
        assert set(kept.tolist()) <= set(positions.tolist())
        local = shard_skyband(scores[positions], plan_shards(positions.shape[0], 1)[0], 4)
        assert np.array_equal(kept, positions[local])
