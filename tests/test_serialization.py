"""Tests for saving and loading TopRR results."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.placement import cheapest_new_option
from repro.core.serialization import (
    SCHEMA_VERSION,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.core.stats import SolverStats
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_independent
from repro.exceptions import InvalidParameterError, SerializationError
from repro.preference.region import PreferenceRegion


@pytest.fixture(scope="module")
def market():
    return generate_independent(1_200, 3, rng=113)


@pytest.fixture(scope="module")
def result(market):
    region = PreferenceRegion.hyperrectangle([(0.32, 0.38), (0.3, 0.36)])
    return solve_toprr(market, 6, region)


class TestRoundTrip:
    def test_membership_predicate_survives_the_round_trip(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        loaded = load_result(path)
        probes = np.random.default_rng(1).random((400, 3))
        assert np.array_equal(loaded.contains_many(probes), result.contains_many(probes))

    def test_geometry_survives_the_round_trip(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        loaded = load_result(path)
        assert loaded.k == result.k
        assert loaded.n_vertices == result.n_vertices
        assert loaded.volume() == pytest.approx(result.volume(), rel=1e-6)
        assert np.allclose(np.sort(loaded.thresholds), np.sort(result.thresholds))

    def test_placement_on_the_loaded_result(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        loaded = load_result(path)
        original = cheapest_new_option(result)
        reloaded = cheapest_new_option(loaded)
        assert np.allclose(reloaded.option, original.option, atol=1e-6)

    def test_loading_with_the_original_dataset(self, market, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        loaded = load_result(path, dataset=market)
        assert set(loaded.existing_top_ranking_options().tolist()) == set(
            result.existing_top_ranking_options().tolist()
        )

    def test_file_is_human_readable_json(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == "toprr-result"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["k"] == result.k
        assert len(payload["thresholds"]) == result.n_vertices


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(InvalidParameterError):
            result_from_dict({"format": "something-else"})

    def test_newer_schema_rejected(self, result):
        payload = result_to_dict(result)
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(InvalidParameterError):
            result_from_dict(payload)

    def test_mismatched_dataset_rejected(self, result):
        payload = result_to_dict(result)
        wrong = generate_independent(50, 4, rng=0)
        with pytest.raises(InvalidParameterError):
            result_from_dict(payload, dataset=wrong)

    def test_schema_stub_keeps_attribute_names(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        loaded = load_result(path)
        assert loaded.dataset.attribute_names == result.dataset.attribute_names


class TestByteExactRoundTrip:
    """Regression: loading without a dataset used to rebuild the result on a
    synthetic schema stub, silently replacing the real option ids and values
    (and dropping the tolerance).  Schema v2 embeds the dataset, so the
    round trip is exact — and documents predating v2 fail loudly instead.
    """

    def test_dataset_payload_is_byte_exact(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        loaded = load_result(path)
        assert loaded.dataset.values.tobytes() == result.dataset.values.tobytes()
        assert list(loaded.dataset.option_ids) == list(result.dataset.option_ids)
        assert loaded.dataset.name == result.dataset.name

    def test_filtered_subset_keeps_real_option_ids(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        loaded = load_result(path)
        assert list(loaded.filtered.option_ids) == list(result.filtered.option_ids)
        assert loaded.filtered.values.tobytes() == result.filtered.values.tobytes()

    def test_geometry_is_byte_exact(self, result, tmp_path):
        # JSON float serialisation is repr-based, hence exact for float64:
        # the loaded arrays must be bit-identical, not merely close.
        loaded = load_result(save_result(result, tmp_path / "result.json"))
        assert loaded.vertices_reduced.tobytes() == result.vertices_reduced.tobytes()
        assert loaded.thresholds.tobytes() == result.thresholds.tobytes()
        assert loaded.full_weights.tobytes() == result.full_weights.tobytes()

    def test_tolerance_survives_the_round_trip(self, result, tmp_path):
        loaded = load_result(save_result(result, tmp_path / "result.json"))
        assert loaded._tol == result._tol

    def test_pre_v2_document_without_dataset_fails_loudly(self, result):
        payload = result_to_dict(result)
        del payload["dataset"]  # what a schema-v1 writer produced
        payload["schema_version"] = 1
        with pytest.raises(SerializationError, match="does not embed its dataset"):
            result_from_dict(payload)

    def test_pre_v2_document_loads_with_an_explicit_dataset(self, market, result):
        payload = result_to_dict(result)
        del payload["dataset"]
        payload["schema_version"] = 1
        loaded = result_from_dict(payload, dataset=market)
        assert list(loaded.filtered.option_ids) == list(result.filtered.option_ids)

    def test_load_errors_carry_the_typed_exception(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ this is not json")
        with pytest.raises(SerializationError):
            load_result(path)
        with pytest.raises(SerializationError):
            load_result(tmp_path / "missing.json")


class TestSolverStatsDict:
    def test_every_field_survives_the_dict_round_trip(self):
        stats = SolverStats(extra={"executor": "serial"})
        for index, f in enumerate(dataclasses.fields(SolverStats)):
            if f.name == "extra":
                continue
            default = getattr(stats, f.name)
            value = type(default)(index + 1.5)
            setattr(stats, f.name, value)
            assert value != default
        payload = stats.as_dict()
        assert payload["vertex_cache_hit_rate"] == stats.vertex_cache_hit_rate
        assert SolverStats.from_dict(payload) == stats

    def test_retired_stats_keys_load_into_extra(self, result):
        # Result documents written before the per-solve mutation counters
        # and the option-shard / worker-pool counters were retired still
        # carry them; they load as free-form extras.
        document = result_to_dict(result)
        retired = {
            "n_entries_survived": 2,
            "n_entries_evicted": 1,
            "n_dominance_tests": 7,
            "n_shards": 4,
            "n_retries": 1,
            "n_worker_crashes": 1,
            "n_pool_rebuilds": 1,
            "n_degraded_shards": 2,
            "degraded": True,
            "merge_seconds": 0.0125,
        }
        document["stats"].update(retired)
        loaded = result_from_dict(document, dataset=result.dataset)
        for key, value in retired.items():
            assert loaded.stats.extra[key] == value
        assert loaded.vertices_reduced.tobytes() == result.vertices_reduced.tobytes()
