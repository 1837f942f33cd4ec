"""Smoke tests for the ablation/extension experiment runners."""

import pytest

from repro.experiments.ablations import (
    ABLATIONS,
    ablation_parallel,
    ablation_precompute,
    ablation_sampling,
    run_ablation,
)
from repro.experiments.config import Scale


class TestAblationRunners:
    def test_sampling_rows(self):
        rows = ablation_sampling(Scale.SMOKE, sample_counts=[4, 32])
        assert [row["n_samples"] for row in rows] == [4, 32]
        for row in rows:
            assert 0.0 <= row["false_accept_rate"] <= 1.0
            assert row["exact_is_guaranteed"]

    def test_parallel_rows_serial_executor(self):
        rows = ablation_parallel(Scale.SMOKE, worker_counts=(1, 2), executor="serial")
        assert rows[0]["configuration"] == "sequential TAS*"
        assert all(row["answers_match"] for row in rows)
        assert len(rows) == 2

    def test_precompute_rows(self):
        rows = ablation_precompute(Scale.SMOKE, n_repeated_queries=3)
        assert len(rows) == 2
        direct, precomputed = rows
        assert precomputed["candidate_options"] <= direct["candidate_options"]
        assert precomputed["answers_match"]

    def test_registry_and_dispatch(self):
        assert set(ABLATIONS) == {
            "ablation_sampling",
            "ablation_parallel",
            "ablation_precompute",
        }
        rows = run_ablation("ablation_precompute", Scale.SMOKE, n_repeated_queries=2)
        assert [row["n_queries"] for row in rows] == [2, 2]
        with pytest.raises(KeyError):
            run_ablation("does_not_exist", Scale.SMOKE)
