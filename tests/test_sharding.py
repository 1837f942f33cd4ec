"""Unit tests for the option-space sharding substrate.

Covers the shard plans (disjoint union, stability, empty shards), the
shared-memory matrices (attach really maps the same pages), the zero-pickle
contract of the process-pool task payloads and the lifecycle of the
:class:`~repro.core.sharded.ShardedPrefilter` an engine runs.  The
end-to-end sharded-vs-unsharded equivalences live in
``tests/test_sharded_differential.py``.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.sharded import ShardedPrefilter, _shard_filter_task, shard_skyband
from repro.data.generators import generate_independent
from repro.data.sharding import (
    SHARD_STRATEGIES,
    SharedMatrix,
    ShardSpec,
    attach_shared_matrix,
    hash_assignments,
    plan_shards,
)
from repro.engine import TopRREngine
from repro.exceptions import EngineClosedError, InvalidParameterError, ReproError
from repro.preference.region import PreferenceRegion
from repro.pruning.rskyband import r_skyband, vertex_score_matrix
from repro.utils.tolerance import DEFAULT_TOL


class TestShardPlans:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    @pytest.mark.parametrize("n_options,n_shards", [(1, 1), (10, 3), (100, 7), (5, 7), (64, 4)])
    def test_plan_is_a_disjoint_cover(self, n_options, n_shards, strategy):
        plan = plan_shards(n_options, n_shards, strategy)
        assert len(plan) == n_shards
        union = np.concatenate([spec.positions() for spec in plan])
        assert sorted(union.tolist()) == list(range(n_options))

    def test_contiguous_bounds_are_balanced(self):
        plan = plan_shards(10, 3, "contiguous")
        assert [spec.bounds() for spec in plan] == [(0, 3), (3, 6), (6, 10)]
        assert [spec.n_rows for spec in plan] == [3, 3, 4]

    def test_positions_are_ascending(self):
        for spec in plan_shards(200, 5, "hash"):
            positions = spec.positions()
            assert np.all(np.diff(positions) > 0)
            assert spec.n_rows == positions.shape[0]

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
        sizes = [spec.n_rows for spec in plan]
        assert sum(sizes) == 3
        assert 0 in sizes

    def test_plan_validation(self):
        with pytest.raises(InvalidParameterError):
            plan_shards(10, 0)
        with pytest.raises(InvalidParameterError):
            plan_shards(10, 2, "roundrobin")


class TestSharedMatrix:
    def test_attach_maps_the_same_pages(self):
        matrix = np.arange(12, dtype=float).reshape(4, 3)
        with SharedMatrix.create_from(matrix) as owner:
            attached = attach_shared_matrix(owner.spec)
            assert np.array_equal(attached.array, matrix)
            # write-through: owner mutations are visible without any transfer
            owner.array[2, 1] = -5.0
            assert attached.array[2, 1] == -5.0
            attached.close()

    def test_spec_round_trips_and_validates_dtype(self):
        with SharedMatrix.create_from(np.ones((2, 2))) as owner:
            spec = pickle.loads(pickle.dumps(owner.spec))
            bad = type(spec)(name=spec.name, shape=spec.shape, dtype="float32")
            with pytest.raises(InvalidParameterError):
                attach_shared_matrix(bad)
            attached = attach_shared_matrix(spec)
            assert attached.array.shape == (2, 2)
            attached.close()

    def test_create_rejects_non_2d(self):
        with pytest.raises(InvalidParameterError):
            SharedMatrix.create_from(np.ones(5))


class TestZeroPickleContract:
    def test_task_payload_size_is_independent_of_n(self):
        """The process-pool task ships metadata only — never score arrays."""
        sizes = {}
        for n in (1_000, 1_000_000):
            with SharedMatrix.create_from(np.ones((4, 3))) as shared:
                spec = plan_shards(n, 8, "contiguous")[3]
                payload = pickle.dumps((shared.spec, spec, 10, DEFAULT_TOL))
                sizes[n] = len(payload)
        # constant up to integer-width wobble in the pickled n_options
        assert abs(sizes[1_000] - sizes[1_000_000]) <= 8
        assert max(sizes.values()) < 2048

    def test_worker_task_reads_through_shared_memory(self):
        """A real pool worker attaches to the segment and filters its shard."""
        dataset = generate_independent(400, 3, rng=3)
        vertices = np.array([[0.3, 0.3, 0.4], [0.35, 0.3, 0.35], [0.3, 0.35, 0.35]])
        scores = dataset.values @ vertices.T
        spec = plan_shards(400, 4, "contiguous")[1]
        expected = shard_skyband(scores, spec, 5)
        with ProcessPoolExecutor(max_workers=1) as pool:
            with SharedMatrix.create_from(scores) as shared:
                kept, seconds = pool.submit(
                    _shard_filter_task, shared.spec, spec, 5, DEFAULT_TOL
                ).result()
        assert np.array_equal(kept, expected)
        assert seconds >= 0.0


class TestShardSkyband:
    def test_empty_shard_contributes_no_candidates(self):
        scores = np.random.default_rng(0).random((3, 2))
        empty = ShardSpec(shard_id=0, n_shards=7, n_options=3, strategy="contiguous")
        assert empty.n_rows == 0
        assert shard_skyband(scores, empty, 2).size == 0

    def test_hash_shard_returns_parent_positions(self):
        dataset = generate_independent(60, 3, rng=1)
        scores = dataset.values @ np.array([[0.3, 0.3, 0.4], [0.35, 0.3, 0.35]]).T
        spec = plan_shards(60, 3, "hash")[2]
        kept = shard_skyband(scores, spec, 4)
        assert set(kept.tolist()) <= set(spec.positions().tolist())
        local = shard_skyband(scores[spec.positions()], plan_shards(spec.n_rows, 1)[0], 4)
        assert np.array_equal(kept, spec.positions()[local])


class TestStaleSpecGuard:
    """Shard specs are planned for one option count; mutation re-plans."""

    def test_sharded_engine_replans_after_delta(self):
        """The plan is re-derived per query, so a mutated dataset is covered whole."""
        dataset = generate_independent(24, 3, rng=7)
        region = PreferenceRegion.hyperrectangle([(0.3, 0.4), (0.3, 0.4)])
        with ShardedPrefilter(4, executor="serial") as shards:
            engine = TopRREngine(dataset, prefilter=shards)
            engine.query(3, region)
            mutated, delta = dataset.insert_options(np.random.default_rng(8).random((16, 3)))
            engine.apply_delta(mutated, delta)
            kept, info = shards.filter(vertex_score_matrix(mutated, region), 3, DEFAULT_TOL)
        assert np.array_equal(kept, r_skyband(mutated, 3, region))
        assert len(info["shard_candidates"]) == 4
        assert info["n_candidates"] == sum(info["shard_candidates"]) >= kept.size


class TestShardedPrefilter:
    def test_rejects_bad_configuration(self):
        with pytest.raises(InvalidParameterError):
            ShardedPrefilter(0)
        with pytest.raises(InvalidParameterError):
            ShardedPrefilter(2, strategy="roundrobin")
        with pytest.raises(InvalidParameterError):
            ShardedPrefilter(2, n_workers=-1)

    def test_process_pool_is_lazy_and_closed_for_good(self):
        region = PreferenceRegion.hyperrectangle([(0.3, 0.4), (0.3, 0.4)])
        shards = ShardedPrefilter(2, executor="process")
        assert shards.health()["alive"] is False  # nothing started yet
        engine = TopRREngine(generate_independent(300, 3, rng=10), prefilter=shards)
        engine.query(3, region)
        health = shards.health()
        assert health["alive"] is True and health["n_batches"] == 1
        assert health["executor"] == "process"
        shards.close()
        with pytest.raises(EngineClosedError):
            shards.health()
        with pytest.raises(EngineClosedError):
            engine.query(4, region)  # a cold filter would need the pool
        assert engine.query(3, region).n_vertices >= 0  # cache hits need none


class TestClosedEngineSurface:
    """An engine whose sharded pre-filter is closed: every call either stays
    safe (cache hits, cache reads, snapshots) or raises the typed
    :class:`EngineClosedError` — never a hang, a respawned pool, or a silent
    wrong answer.
    """

    REGION = PreferenceRegion.hyperrectangle([(0.3, 0.4), (0.3, 0.4)])
    COLD = PreferenceRegion.hyperrectangle([(0.2, 0.3), (0.2, 0.3)])

    @pytest.fixture
    def closed_engine(self):
        dataset = generate_independent(40, 3, rng=11)
        shards = ShardedPrefilter(2, executor="serial")
        engine = TopRREngine(dataset, prefilter=shards, rng=11)
        engine.query(3, self.REGION)
        shards.close()
        return engine, shards, dataset

    def test_query_raises_engine_closed(self, closed_engine):
        engine, _shards, _dataset = closed_engine
        with pytest.raises(EngineClosedError, match="closed ShardedPrefilter"):
            engine.query(3, self.COLD)

    def test_query_batch_raises_engine_closed(self, closed_engine):
        engine, _shards, _dataset = closed_engine
        with pytest.raises(EngineClosedError):
            engine.query_batch([(3, self.COLD)])

    def test_warm_raises_engine_closed(self, closed_engine):
        engine, _shards, _dataset = closed_engine
        with pytest.raises(EngineClosedError):
            engine.warm([3], [self.COLD])

    def test_cold_query_after_apply_delta_raises_engine_closed(self, closed_engine):
        engine, _shards, dataset = closed_engine
        # Near-corner inserts enter the band, so the cached entry is evicted
        # and the re-query needs a filter run.
        mutated, delta = dataset.insert_options(np.full((2, 3), 0.99))
        engine.apply_delta(mutated, delta)
        with pytest.raises(EngineClosedError):
            engine.query(3, self.REGION)

    def test_pool_health_raises_engine_closed(self, closed_engine):
        _engine, shards, _dataset = closed_engine
        with pytest.raises(EngineClosedError):
            shards.health()

    def test_load_caches_serves_hits_without_the_pool(self, closed_engine, tmp_path):
        engine, shards, dataset = closed_engine
        path = engine.save_caches(tmp_path / "caches.json")
        restored = TopRREngine(dataset, prefilter=shards, rng=11)
        restored.load_caches(path)
        expected = engine.query(3, self.REGION)
        answer = restored.query(3, self.REGION)
        assert answer.vertices_reduced.tobytes() == expected.vertices_reduced.tobytes()
        assert restored.cache_info()["results"]["hits"] == 1

    def test_cache_reads_stay_usable_after_close(self, closed_engine, tmp_path):
        engine, _shards, _dataset = closed_engine
        info = engine.cache_info()
        assert info["results"]["currsize"] >= 1
        assert engine.cached_result(3, self.REGION, engine.method) is not None
        assert engine.query(3, self.REGION) is engine.cached_result(3, self.REGION, "tas*")
        path = engine.save_caches(tmp_path / "caches.json")
        assert path.exists()
        engine.clear_caches()
        assert engine.cached_result(3, self.REGION, engine.method) is None

    def test_close_is_idempotent(self, closed_engine):
        engine, shards, _dataset = closed_engine
        shards.close()  # second close must not raise
        with pytest.raises(EngineClosedError):
            engine.query(3, self.COLD)

    def test_error_type_is_catchable_as_repro_error(self, closed_engine):
        _engine, shards, _dataset = closed_engine
        with pytest.raises(ReproError):
            shards.health()
