"""Unit tests for the dataset container, generators, surrogates, examples and I/O."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.examples import figure1_dataset, table2_dataset
from repro.data.generators import (
    generate_anticorrelated,
    generate_correlated,
    generate_independent,
    generate_synthetic,
)
from repro.data.io import load_csv, save_csv
from repro.data.surrogates import (
    CNET_LANDMARKS,
    cnet_laptops,
    hotel_surrogate,
    house_surrogate,
    nba_surrogate,
    real_dataset,
)
from repro.exceptions import DimensionMismatchError, InvalidParameterError


class TestDataset:
    def test_shape_accessors(self, unit_square_dataset):
        assert unit_square_dataset.n_options == 6
        assert unit_square_dataset.n_attributes == 2
        assert len(unit_square_dataset) == 6

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            Dataset(np.zeros((0, 2)))

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            Dataset([[0.1, float("nan")]])

    def test_attribute_names_default_and_custom(self):
        data = Dataset([[1.0, 2.0]])
        assert data.attribute_names == ["attr_0", "attr_1"]
        named = Dataset([[1.0, 2.0]], attribute_names=["speed", "battery"])
        assert named.attribute_names == ["speed", "battery"]
        with pytest.raises(DimensionMismatchError):
            Dataset([[1.0, 2.0]], attribute_names=["only-one"])

    def test_subset_preserves_ids(self, figure1):
        subset = figure1.subset([1, 3])
        assert subset.option_ids == ["p2", "p4"]
        assert np.allclose(subset.values[0], figure1.values[1])

    def test_id_index_roundtrip(self, figure1):
        assert figure1.id_of(2) == "p3"
        assert figure1.index_of("p3") == 2

    def test_scores(self, figure1):
        scores = figure1.scores([0.5, 0.5])
        assert scores[0] == pytest.approx(0.65)  # p1 = (0.9, 0.4)

    def test_scores_dimension_mismatch(self, figure1):
        with pytest.raises(DimensionMismatchError):
            figure1.scores([0.5, 0.3, 0.2])

    def test_normalized(self):
        data = Dataset([[0.0, 5.0], [10.0, 5.0]])
        normalized = data.normalized()
        assert normalized.values[:, 0].tolist() == [0.0, 1.0]
        # Constant column maps to 0.5.
        assert normalized.values[:, 1].tolist() == [0.5, 0.5]

    def test_describe(self, figure1):
        info = figure1.describe()
        assert info["n_options"] == 6
        assert info["attribute_names"] == ["speed", "battery"]


class TestGenerators:
    @pytest.mark.parametrize("generator", [generate_independent, generate_correlated, generate_anticorrelated])
    def test_shapes_and_range(self, generator):
        data = generator(200, 4, rng=0)
        assert data.values.shape == (200, 4)
        assert np.all(data.values >= 0.0) and np.all(data.values <= 1.0)

    def test_determinism(self):
        a = generate_independent(100, 3, rng=5)
        b = generate_independent(100, 3, rng=5)
        assert np.allclose(a.values, b.values)

    def test_correlation_structure(self):
        correlated = generate_correlated(3_000, 2, rng=1)
        anticorrelated = generate_anticorrelated(3_000, 2, rng=1)
        corr_cor = np.corrcoef(correlated.values.T)[0, 1]
        corr_anti = np.corrcoef(anticorrelated.values.T)[0, 1]
        assert corr_cor > 0.5
        assert corr_anti < -0.2

    def test_dispatch(self):
        assert generate_synthetic("ind", 10, 2, rng=0).n_options == 10
        assert generate_synthetic("COR", 10, 2, rng=0).n_options == 10
        with pytest.raises(InvalidParameterError):
            generate_synthetic("weird", 10, 2)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidParameterError):
            generate_independent(0, 3)
        with pytest.raises(InvalidParameterError):
            generate_correlated(10, 2, spread=-1.0)


class TestPaperExampleData:
    def test_figure1_values(self):
        data = figure1_dataset()
        assert data.n_options == 6 and data.n_attributes == 2
        assert data.option_ids == ["p1", "p2", "p3", "p4", "p5", "p6"]
        assert np.allclose(data.values[0], [0.9, 0.4])

    def test_table2_values(self):
        data = table2_dataset()
        assert data.n_options == 5 and data.n_attributes == 3
        assert np.allclose(data.values[4], [0.92, 0.98, 0.99])


class TestSurrogates:
    def test_cardinalities_and_dimensions(self):
        assert hotel_surrogate(n_options=1_000).n_attributes == 4
        assert house_surrogate(n_options=1_000).n_attributes == 6
        assert nba_surrogate(n_options=1_000).n_attributes == 8
        assert cnet_laptops().n_options == 149

    def test_cnet_contains_landmarks(self):
        laptops = cnet_laptops()
        for name, _perf, _batt in CNET_LANDMARKS:
            assert name in laptops.option_ids

    def test_values_in_unit_range(self):
        for data in (hotel_surrogate(n_options=500), nba_surrogate(n_options=500)):
            assert np.all(data.values >= 0.0) and np.all(data.values <= 1.0)

    def test_determinism(self):
        assert np.allclose(hotel_surrogate(n_options=200).values, hotel_surrogate(n_options=200).values)

    def test_dispatch(self):
        assert real_dataset("nba", n_options=100).n_attributes == 8
        with pytest.raises(InvalidParameterError):
            real_dataset("unknown")

    def test_nba_more_correlated_than_house(self):
        nba = nba_surrogate(n_options=3_000)
        house = house_surrogate(n_options=3_000)
        mean_corr = lambda values: np.mean(  # noqa: E731 - concise test helper
            np.corrcoef(values.T)[np.triu_indices(values.shape[1], k=1)]
        )
        assert mean_corr(nba.values) > mean_corr(house.values)


class TestCsvIO:
    def test_roundtrip_with_ids(self, tmp_path, figure1):
        path = save_csv(figure1, tmp_path / "figure1.csv")
        loaded = load_csv(path)
        assert loaded.n_options == figure1.n_options
        assert loaded.attribute_names == figure1.attribute_names
        assert loaded.option_ids == figure1.option_ids
        assert np.allclose(loaded.values, figure1.values)

    def test_roundtrip_without_ids(self, tmp_path, unit_square_dataset):
        path = save_csv(unit_square_dataset, tmp_path / "plain.csv", include_ids=False)
        loaded = load_csv(path)
        assert loaded.n_options == unit_square_dataset.n_options
        assert np.allclose(loaded.values, unit_square_dataset.values)

    def test_empty_file_raises(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(InvalidParameterError):
            load_csv(empty)

    def test_header_only_raises(self, tmp_path):
        header_only = tmp_path / "header.csv"
        header_only.write_text("a,b\n")
        with pytest.raises(InvalidParameterError):
            load_csv(header_only)


class TestMutableDatasets:
    """Versioned insert/delete and the staleness of derived lookup tables."""

    @pytest.fixture()
    def catalogue(self):
        return generate_independent(20, 3, rng=77)

    def test_insert_appends_and_versions(self, catalogue):
        mutated, delta = catalogue.insert_options([[0.5, 0.5, 0.5], [0.1, 0.9, 0.2]])
        assert catalogue.version == 0 and mutated.version == 1
        assert mutated.n_options == 22
        assert mutated.option_ids[:20] == catalogue.option_ids
        assert delta.inserted_ids == tuple(mutated.option_ids[20:])
        assert delta.n_inserted == 2 and delta.n_deleted == 0
        # The parent is untouched (mutation is functional).
        assert catalogue.n_options == 20

    def test_delete_keeps_survivor_ids_and_order(self, catalogue):
        victims = [catalogue.option_ids[i] for i in (0, 5, 19)]
        mutated, delta = catalogue.delete_options(option_ids=victims)
        assert mutated.version == 1 and mutated.n_options == 17
        assert delta.deleted_ids == tuple(victims)
        assert list(delta.deleted_positions) == [0, 5, 19]
        survivors = [i for i in catalogue.option_ids if i not in victims]
        assert mutated.option_ids == survivors

    def test_index_of_table_not_inherited_stale(self, catalogue):
        """The O(1) id->index table is version-tagged: a mutated dataset must
        never serve positions computed for its parent."""
        assert catalogue.index_of(catalogue.option_ids[7]) == 7  # builds table
        mutated, _delta = catalogue.delete_options(positions=[0, 1, 2])
        # Every survivor shifted by three; a stale table would be off by 3.
        for position, option_id in enumerate(mutated.option_ids):
            assert mutated.index_of(option_id) == position
        # The parent's table still answers for the parent.
        assert catalogue.index_of(catalogue.option_ids[7]) == 7

    def test_insert_fast_path_seeds_child_table(self, catalogue):
        catalogue.index_of(catalogue.option_ids[0])  # build the parent table
        mutated, delta = catalogue.insert_options([[0.3, 0.3, 0.3]])
        # Seeded table is stamped with the child version, so it is used as-is.
        assert mutated._id_to_index_version == mutated.version
        assert mutated.index_of(delta.inserted_ids[0]) == 20
        assert mutated.index_of(catalogue.option_ids[13]) == 13

    def test_auto_ids_continue_from_current_max(self, catalogue):
        mutated, _delta = catalogue.insert_options([[0.2, 0.2, 0.2]])
        mutated, delta = mutated.insert_options([[0.3, 0.3, 0.3]])
        assert delta.inserted_ids[0] == max(catalogue.option_ids) + 2
        # Deleting the max id frees it: the next auto id may reuse it (the
        # engines' salvage guard handles reuse; see apply_delta).
        shrunk, _delta = catalogue.delete_options(positions=[19])
        regrown, delta = shrunk.insert_options([[0.2, 0.2, 0.2]])
        assert delta.inserted_ids[0] == max(shrunk.option_ids) + 1

    def test_non_integer_ids_require_explicit_ids(self):
        named = Dataset(np.random.default_rng(0).random((3, 2)), option_ids=["a", "b", "c"])
        with pytest.raises(InvalidParameterError):
            named.insert_options([[0.5, 0.5]])
        mutated, delta = named.insert_options([[0.5, 0.5]], option_ids=["d"])
        assert mutated.option_ids == ["a", "b", "c", "d"]

    def test_mutation_validation_errors(self, catalogue):
        with pytest.raises(DimensionMismatchError):
            catalogue.insert_options([[0.1, 0.2]])  # wrong attribute count
        with pytest.raises(InvalidParameterError):
            catalogue.insert_options([[0.1, 0.2, 0.3]], option_ids=[catalogue.option_ids[0]])
        with pytest.raises(InvalidParameterError):
            catalogue.delete_options(option_ids=catalogue.option_ids)  # delete all
        with pytest.raises(InvalidParameterError):
            catalogue.delete_options()  # no selector
        with pytest.raises(InvalidParameterError):
            catalogue.delete_options(option_ids=[1], positions=[1])  # both selectors
        with pytest.raises(InvalidParameterError):
            catalogue.delete_options(positions=[99])

    def test_version_chain_across_mutations(self, catalogue):
        current = catalogue
        for expected_version in (1, 2, 3):
            current, delta = current.insert_options([[0.4, 0.4, 0.4]])
            assert current.version == expected_version
            assert delta.parent_version == expected_version - 1
