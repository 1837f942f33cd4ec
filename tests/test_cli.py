"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9a" in out and "table6" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_solve_command(self, capsys):
        code = main(
            [
                "solve",
                "--n", "800",
                "--d", "3",
                "--k", "4",
                "--sigma", "0.05",
                "--method", "tas*",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TopRR result" in out
        assert "cost-optimal" in out or "empty" in out

    def test_run_command_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig12a.csv"
        code = main(["run", "fig12a", "--scale", "smoke", "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "fig12a" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig99", "--scale", "smoke"])

    def test_list_includes_extension_studies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "extension studies" in out
        assert "ablation_sampling" in out

    def test_run_ablation_by_name(self, capsys):
        code = main(["run", "ablation_sampling", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ablation_sampling" in out
        assert "false_accept_rate" in out


class TestMutateCli:
    SMALL = ["--n", "400", "--d", "3", "--k", "4", "--distinct", "3",
             "--rounds", "2", "--churn", "0.02", "--seed", "3"]

    def test_mutate_incremental(self, capsys):
        assert main(["mutate", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "incremental maintenance" in out
        assert "survivor rate" in out
        assert "bit-identical to a fresh rebuild" in out

    def test_mutate_flush_baseline(self, capsys):
        assert main(["mutate", *self.SMALL, "--flush"]) == 0
        out = capsys.readouterr().out
        assert "flush-all maintenance" in out
        assert "survivor rate" not in out  # baseline arm keeps nothing to report
        assert "bit-identical to a fresh rebuild" in out

    def test_mutate_rejects_bad_churn(self, capsys):
        assert main(["mutate", "--churn", "1.5"]) == 2
        assert "--churn" in capsys.readouterr().err

    def test_batch_with_interleaved_mutations(self, capsys):
        code = main(
            ["batch", "--n", "400", "--d", "3", "--k", "4", "--queries", "12",
             "--distinct", "3", "--mutate-every", "4", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mutations:" in out and "deltas" in out

    def test_batch_rejects_nonpositive_mutate_every(self, capsys):
        code = main(["batch", "--n", "400", "--d", "3", "--queries", "4",
                     "--mutate-every", "0"])
        assert code == 2
        assert "--mutate-every" in capsys.readouterr().err
