"""Tests for the experiment harness (config, workloads, runner, reporting, figures)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.config import REAL_DATASETS, Scale, defaults, sweep_values
from repro.experiments.figures import (
    EXPERIMENTS,
    figure7_case_study,
    figure8_filter_tradeoff,
    figure9_methods,
    figure12_lemma5,
    figure13_lemma7,
    figure14_kswitch,
    run_experiment,
    table7_elongation,
)
from repro.experiments.reporting import format_table, save_csv_rows
from repro.experiments.runner import run_method, run_methods
from repro.experiments.workloads import make_dataset, make_queries, make_real_dataset, make_regions


class TestConfig:
    def test_scale_parsing(self):
        assert Scale.parse("smoke") is Scale.SMOKE
        assert Scale.parse(Scale.PAPER) is Scale.PAPER
        with pytest.raises(InvalidParameterError):
            Scale.parse("enormous")

    def test_defaults_match_the_paper_bold_values(self):
        paper = defaults(Scale.PAPER)
        assert paper.k == 10
        assert paper.sigma == pytest.approx(0.01)
        assert paper.n_attributes == 4
        assert paper.distribution == "IND"
        assert paper.n_options == 400_000

    def test_sweeps_cover_table5(self):
        assert sweep_values("k", Scale.PAPER) == [1, 5, 10, 20, 40]
        assert sweep_values("n_attributes", Scale.PAPER) == [2, 4, 6, 8, 10, 12]
        assert sweep_values("sigma", Scale.PAPER) == [0.001, 0.005, 0.01, 0.05, 0.10]
        assert sweep_values("n_options", Scale.PAPER)[-1] == 1_600_000

    def test_unknown_sweep_parameter(self):
        with pytest.raises(InvalidParameterError):
            sweep_values("temperature", Scale.SMOKE)


class TestWorkloads:
    def test_make_dataset_uses_defaults(self):
        data = make_dataset(Scale.SMOKE)
        smoke = defaults(Scale.SMOKE)
        assert data.n_options == smoke.n_options
        assert data.n_attributes == smoke.n_attributes

    def test_make_real_dataset(self):
        for name in REAL_DATASETS:
            data = make_real_dataset(name, Scale.SMOKE)
            assert data.n_options > 0

    def test_make_regions_deterministic(self):
        a = make_regions(3, 0.05, 3, seed=9)
        b = make_regions(3, 0.05, 3, seed=9)
        for ra, rb in zip(a, b):
            assert np.allclose(np.sort(ra.vertices, axis=0), np.sort(rb.vertices, axis=0))

    def test_make_queries_overrides(self):
        queries = make_queries(Scale.SMOKE, k=3, sigma=0.05, n_queries=2)
        assert len(queries) == 2
        assert all(q.k == 3 for q in queries)


class TestRunner:
    def test_run_method_aggregates(self):
        queries = make_queries(Scale.SMOKE, n_queries=2)
        measurement = run_method("TAS*", queries)
        assert measurement.seconds > 0
        assert measurement.n_vertices > 0
        assert len(measurement.per_query) == 2

    def test_run_methods_keys(self):
        queries = make_queries(Scale.SMOKE, n_queries=1)
        results = run_methods(["TAS", "TAS*"], queries)
        assert set(results) == {"TAS", "TAS*"}


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 0.123456}, {"a": 20, "b": 3.0}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "a" in text and "20" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_save_csv_rows(self, tmp_path):
        rows = [{"x": 1, "y": 2.5}, {"x": 2, "y": 3.5}]
        path = save_csv_rows(rows, tmp_path / "rows.csv")
        assert path.exists()
        assert path.read_text().splitlines()[0] == "x,y"


class TestFigureRunners:
    """Smoke-scale runs of the per-figure harness functions."""

    def test_registry_covers_every_figure_and_table(self):
        expected = {
            "fig7", "fig8",
            "fig9a", "fig9b", "fig9c", "fig9d",
            "fig10a", "fig10b", "fig10c", "fig10d",
            "fig11a", "fig11b",
            "table6", "table7",
            "fig12a", "fig12b", "fig13a", "fig13b", "fig14a", "fig14b",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_fig7_case_study_rows(self):
        rows = figure7_case_study(Scale.SMOKE)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row["optimal_performance"] <= 1.0
            assert 0.0 <= row["optimal_battery"] <= 1.0
            assert row["cost"] > 0

    def test_fig8_rows_have_all_filters(self):
        rows = figure8_filter_tradeoff(Scale.SMOKE)
        assert {row["filter"] for row in rows} == {"k-skyband", "k-onion", "r-skyband", "utk"}
        r_sky = next(r for r in rows if r["filter"] == "r-skyband")
        k_sky = next(r for r in rows if r["filter"] == "k-skyband")
        assert r_sky["retained"] <= k_sky["retained"]

    def test_fig9_k_sweep_shape(self):
        rows = figure9_methods("k", Scale.SMOKE, methods=["TAS", "TAS*"])
        k_values = sweep_values("k", Scale.SMOKE)
        assert len(rows) == 2 * len(k_values)
        star_rows = [r for r in rows if r["method"] == "TAS*"]
        plain_rows = [r for r in rows if r["method"] == "TAS"]
        assert sum(r["n_vertices"] for r in star_rows) <= sum(r["n_vertices"] for r in plain_rows)

    def test_fig12_lemma5_prunes(self):
        rows = figure12_lemma5("k", Scale.SMOKE)
        assert all(row["r_skyband_lemma5"] <= row["r_skyband"] for row in rows)

    def test_fig13_lemma7_reduces_vertices(self):
        rows = figure13_lemma7("k", Scale.SMOKE)
        assert all(row["lemma7_enabled"] <= row["lemma7_disabled"] + 1e-9 for row in rows)

    def test_fig14_rows(self):
        rows = figure14_kswitch("k", Scale.SMOKE)
        assert all("k_switch_enabled" in row and "k_switch_disabled" in row for row in rows)

    @pytest.mark.slow  # elongated-region TAS* sweeps dominate the suite's wall clock
    def test_table7_rows(self):
        rows = table7_elongation(Scale.SMOKE)
        gammas = sweep_values("gamma", Scale.SMOKE)
        assert [row["gamma"] for row in rows] == gammas

    def test_invalid_vary_arguments(self):
        with pytest.raises(ValueError):
            figure12_lemma5("n", Scale.SMOKE)
        with pytest.raises(ValueError):
            figure13_lemma7("d", Scale.SMOKE)
