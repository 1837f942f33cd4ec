"""Round-trip and refusal tests for the engine cache snapshot format.

Covers the durable warm-cache contract end to end:

* **restore-then-query parity** — a fresh engine restored from a snapshot
  answers its recorded query mix byte-identically, with first-query cache
  hits, at d=3 and d=4;
* **state coverage** — empty caches, post-mutation caches, skyband-only
  restores, and cross-loads between sharded-prefilter and plain engines;
* **refusals** — truncated and corrupt files, base64/array rot, newer
  snapshot versions, mismatched datasets and unfiltered snapshots all raise the
  typed :class:`~repro.exceptions.SerializationError` instead of restoring
  something subtly wrong.
"""

import copy
import json

import numpy as np
import pytest

from repro.core.serialization import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    dataset_digest,
    load_engine_snapshot,
    restore_engine,
    save_engine_snapshot,
    snapshot_engine,
)
from repro.core.sharded import ShardedPrefilter
from repro.data.generators import generate_synthetic
from repro.engine import TopRREngine
from repro.exceptions import InvalidParameterError, SerializationError
from repro.preference.random_regions import random_hypercube_region


def _workload(d, seed=7, n_pairs=3, k_max=5):
    """A deterministic (k, region) mix for a ``d``-attribute dataset."""
    return [
        (1 + (seed + i) % k_max, random_hypercube_region(d, 0.3, rng=seed + 1 + i))
        for i in range(n_pairs)
    ]


def _warm_engine(n=90, d=3, seed=7, **engine_kwargs):
    dataset = generate_synthetic("IND", n, d, rng=seed)
    engine = TopRREngine(dataset, rng=seed, **engine_kwargs)
    pairs = _workload(d, seed=seed)
    results = [engine.query(k, region) for k, region in pairs]
    return dataset, engine, pairs, results


def _assert_parity(engine, restored, pairs, results):
    """``restored`` must answer ``pairs`` byte-identically, from cache."""
    for (k, region), expected in zip(pairs, results):
        before = restored.cache_info()["results"]["hits"]
        answer = restored.query(k, region)
        assert restored.cache_info()["results"]["hits"] == before + 1, (
            "restored engine must answer its recorded mix from the result cache"
        )
        assert answer.vertices_reduced.tobytes() == expected.vertices_reduced.tobytes()
        assert answer.thresholds.tobytes() == expected.thresholds.tobytes()
        assert answer.full_weights.tobytes() == expected.full_weights.tobytes()
        assert list(answer.filtered.option_ids) == list(expected.filtered.option_ids)


class TestRoundTrip:
    @pytest.mark.parametrize("d", [3, 4])
    def test_restore_then_query_parity(self, d):
        dataset, engine, pairs, results = _warm_engine(d=d)
        payload = snapshot_engine(engine)
        restored = TopRREngine(dataset, rng=7)
        counts = restore_engine(restored, payload)
        assert counts["skyband_entries"] == len(pairs)
        assert counts["result_entries"] == len(pairs)
        assert counts["memo_rows"] > 0
        _assert_parity(engine, restored, pairs, results)

    def test_skyband_only_restore_still_solves_identically(self):
        dataset, engine, pairs, results = _warm_engine()
        payload = snapshot_engine(engine)
        payload["result_entries"] = []
        restored = TopRREngine(dataset, rng=7)
        counts = restore_engine(restored, payload)
        assert counts["result_entries"] == 0
        for (k, region), expected in zip(pairs, results):
            before = restored.cache_info()["skyband"]["hits"]
            answer = restored.query(k, region)
            assert restored.cache_info()["skyband"]["hits"] == before + 1
            assert answer.vertices_reduced.tobytes() == expected.vertices_reduced.tobytes()

    def test_empty_cache_snapshot_round_trips(self):
        dataset = generate_synthetic("IND", 40, 3, rng=5)
        engine = TopRREngine(dataset, rng=5)
        payload = snapshot_engine(engine)
        assert payload["skyband_entries"] == []
        assert payload["result_entries"] == []
        restored = TopRREngine(dataset, rng=5)
        counts = restore_engine(restored, payload)
        assert counts == {"skyband_entries": 0, "result_entries": 0, "memo_rows": 0}
        # and the restored engine still solves normally afterwards
        k, region = _workload(3, seed=5, n_pairs=1)[0]
        assert restored.query(k, region).n_vertices >= 0

    def test_post_mutation_snapshot_binds_to_the_mutated_dataset(self):
        dataset, engine, pairs, _results = _warm_engine()
        rng = np.random.default_rng(11)
        inserted, delta = engine.dataset.insert_options(rng.random((3, 3)))
        engine.apply_delta(inserted, delta)
        mutated, delta = inserted.delete_options(positions=[0, 1])
        engine.apply_delta(mutated, delta)
        post = [engine.query(k, region) for k, region in pairs]

        payload = snapshot_engine(engine)
        assert payload["dataset"]["digest"] == dataset_digest(mutated)
        # the pre-mutation dataset is refused...
        with pytest.raises(SerializationError):
            restore_engine(TopRREngine(dataset, rng=7), payload)
        # ...the mutated one restores with full parity
        restored = TopRREngine(mutated, rng=7)
        restore_engine(restored, payload)
        _assert_parity(engine, restored, pairs, post)

    def test_save_load_caches_file_round_trip(self, tmp_path):
        dataset, engine, pairs, results = _warm_engine()
        path = engine.save_caches(tmp_path / "caches.json")
        assert path.exists()
        restored = TopRREngine(dataset, rng=7)
        counts = restored.load_caches(path)
        assert counts["result_entries"] == len(pairs)
        _assert_parity(engine, restored, pairs, results)

    def test_snapshot_does_not_capture_query_counters(self):
        dataset, engine, pairs, _results = _warm_engine()
        restored = TopRREngine(dataset, rng=7)
        restore_engine(restored, snapshot_engine(engine))
        assert restored.n_queries == 0


class TestShardedDelegation:
    """A sharded pre-filter changes no snapshot byte: replicas of either kind
    restore each other's snapshots and answer them from cache."""

    @staticmethod
    def _roundtrip(tmp_path, shards, save_sharded):
        dataset = generate_synthetic("IND", 80, 3, rng=9)
        pairs = _workload(3, seed=9, n_pairs=3)
        saver = TopRREngine(dataset, rng=9, prefilter=shards if save_sharded else None)
        results = [saver.query(k, region) for k, region in pairs]
        path = saver.save_caches(tmp_path / "caches.json")
        restored = TopRREngine(dataset, rng=9, prefilter=None if save_sharded else shards)
        counts = restored.load_caches(path)
        assert counts["result_entries"] == counts["skyband_entries"] == len(pairs)
        _assert_parity(saver, restored, pairs, results)
        assert restored.cache_info()["skyband"]["misses"] == 0

    def test_sharded_save_then_unsharded_restore(self, tmp_path):
        with ShardedPrefilter(2, executor="serial") as shards:
            self._roundtrip(tmp_path, shards, save_sharded=True)

    def test_sharded_restore_short_circuits_the_fanout(self, tmp_path):
        # A plain replica's snapshot restores into a sharded one, which then
        # answers the recorded mix without ever starting its worker pool.
        with ShardedPrefilter(2, executor="process") as shards:
            self._roundtrip(tmp_path, shards, save_sharded=False)
            assert shards.health()["alive"] is False
            assert shards.health()["n_batches"] == 0


class TestRefusals:
    def test_truncated_file_raises_typed_error(self, tmp_path):
        dataset, engine, _pairs, _results = _warm_engine()
        path = engine.save_caches(tmp_path / "caches.json")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SerializationError):
            TopRREngine(dataset, rng=7).load_caches(path)

    def test_non_json_file_raises_typed_error(self, tmp_path):
        dataset = generate_synthetic("IND", 40, 3, rng=5)
        path = tmp_path / "garbage.json"
        path.write_bytes(b"\x00\x01 not json at all")
        with pytest.raises(SerializationError):
            TopRREngine(dataset, rng=5).load_caches(path)

    def test_missing_file_raises_typed_error(self, tmp_path):
        dataset = generate_synthetic("IND", 40, 3, rng=5)
        with pytest.raises(SerializationError):
            TopRREngine(dataset, rng=5).load_caches(tmp_path / "absent.json")

    def test_wrong_format_marker_is_refused(self):
        dataset, engine, _pairs, _results = _warm_engine()
        payload = snapshot_engine(engine)
        payload["format"] = "something-else"
        with pytest.raises(SerializationError):
            restore_engine(TopRREngine(dataset, rng=7), payload)

    def test_newer_snapshot_version_is_refused(self):
        dataset, engine, _pairs, _results = _warm_engine()
        payload = snapshot_engine(engine)
        assert payload["format"] == SNAPSHOT_FORMAT
        payload["schema_version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SerializationError, match="snapshot schema version"):
            restore_engine(TopRREngine(dataset, rng=7), payload)

    def test_mismatched_dataset_is_refused(self):
        _dataset, engine, _pairs, _results = _warm_engine()
        other = generate_synthetic("IND", 90, 3, rng=8)
        with pytest.raises(SerializationError, match="does not match"):
            restore_engine(TopRREngine(other, rng=7), snapshot_engine(engine))

    def test_prefilter_mode_mismatch_is_refused(self):
        # Snapshots of engines that ran without the r-skyband pre-filter
        # cached entries no filtered engine would hold.
        dataset, engine, _pairs, _results = _warm_engine()
        payload = copy.deepcopy(snapshot_engine(engine))
        assert payload["engine"]["prefilter"] is True
        assert "full_memo" not in payload
        payload["engine"]["prefilter"] = False
        with pytest.raises(SerializationError, match="prefilter"):
            restore_engine(TopRREngine(dataset, rng=7), payload)

    def test_corrupt_base64_payload_is_refused(self):
        dataset, engine, _pairs, _results = _warm_engine()
        payload = copy.deepcopy(snapshot_engine(engine))
        payload["skyband_entries"][0]["full_vertices"]["data"] = "%%%not-base64%%%"
        with pytest.raises(SerializationError):
            restore_engine(TopRREngine(dataset, rng=7), payload)

    def test_mismatched_memo_key_count_is_refused(self):
        dataset, engine, _pairs, _results = _warm_engine()
        payload = copy.deepcopy(snapshot_engine(engine))
        memo_doc = payload["skyband_entries"][0]["memo"]
        assert memo_doc["row_keys"], "warm engine must have memo rows to corrupt"
        memo_doc["row_keys"] = memo_doc["row_keys"][:-1]
        with pytest.raises(SerializationError):
            restore_engine(TopRREngine(dataset, rng=7), payload)

    def test_typed_error_is_catchable_as_invalid_parameter(self, tmp_path):
        # Backwards compatibility: callers that predate the dedicated
        # SerializationError still catch load failures.
        dataset = generate_synthetic("IND", 40, 3, rng=5)
        path = tmp_path / "garbage.json"
        path.write_text("{}")
        with pytest.raises(InvalidParameterError):
            TopRREngine(dataset, rng=5).load_caches(path)

    def test_snapshot_json_is_pure_json(self, tmp_path):
        # The on-disk format must survive a plain json round trip (no
        # numpy scalars or other non-JSON leakage).
        _dataset, engine, _pairs, _results = _warm_engine()
        path = save_engine_snapshot(engine, tmp_path / "caches.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == SNAPSHOT_FORMAT

    def test_load_engine_snapshot_matches_restore_engine(self, tmp_path):
        dataset, engine, pairs, results = _warm_engine()
        path = save_engine_snapshot(engine, tmp_path / "caches.json")
        restored = TopRREngine(dataset, rng=7)
        counts = load_engine_snapshot(restored, path)
        assert counts["result_entries"] == len(pairs)
        _assert_parity(engine, restored, pairs, results)
