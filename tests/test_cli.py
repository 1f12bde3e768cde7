"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("info", "mdtest", "fig8", "fig9", "fig14", "fig15", "train"):
            args = parser.parse_args([cmd])
            assert callable(args.func)

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_model_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--model", "gpt5"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "2.51" in out  # GPFS TB/s
        assert "resnet50" in out

    def test_mdtest(self, capsys):
        assert main(["mdtest", "--nodes", "1", "2",
                     "--files-per-rank", "4", "--procs-per-node", "2"]) == 0
        out = capsys.readouterr().out
        assert "GPFS" in out and "XFS" in out

    def test_mdtest_analytic_flag(self, capsys):
        assert main(["mdtest", "--nodes", "1",
                     "--files-per-rank", "2", "--procs-per-node", "1",
                     "--analytic"]) == 0
        assert "[analytic]" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8", "--nodes", "2",
                     "--files-per-rank", "4", "--procs-per-node", "2",
                     "--systems", "gpfs", "xfs"]) == 0
        out = capsys.readouterr().out
        assert "Fig 8" in out

    def test_fig9(self, capsys):
        assert main(["fig9", "--nodes", "2",
                     "--files-per-rank", "4", "--procs-per-node", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 9a" in out and "Fig 9b" in out

    def test_fig14(self, capsys):
        assert main(["fig14", "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert "GPFS" in out and "sharded" in out

    def test_fig15(self, capsys):
        assert main(["fig15", "--nodes", "8", "--files", "2000"]) == 0
        assert "gini" in capsys.readouterr().out

    def test_train(self, capsys):
        assert main(["train", "--system", "hvac1", "--nodes", "2",
                     "--files-per-rank", "4", "--procs-per-node", "2"]) == 0
        out = capsys.readouterr().out
        assert "HVAC(1x1)" in out
        assert "hit rate" in out

    def test_train_bad_system(self):
        with pytest.raises(ValueError):
            main(["train", "--system", "tape", "--nodes", "2",
                  "--files-per-rank", "2", "--procs-per-node", "1"])


class TestModeComparisonWindows:
    """``--windows`` below one is rejected before any mode runs."""

    @pytest.mark.parametrize("windows", ["0", "-1"])
    @pytest.mark.parametrize("cmd", ["slo", "membership", "tenancy", "prefetch"])
    def test_exits_2(self, cmd, windows, capsys):
        assert main([cmd, "--smoke", "--windows", windows]) == 2
        assert "windows must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [
        "slo_scenario", "membership_comparison", "tenancy_isolation",
        "prefetch_comparison",
    ])
    def test_experiment_raises(self, name):
        import repro.experiments as experiments

        with pytest.raises(ValueError, match="windows"):
            getattr(experiments, name)(windows=0)


class TestReport:
    def test_analytic_only_report(self, capsys):
        assert main(["report", "--analytic-only", "--nodes", "2",
                     "--files-per-rank", "2", "--procs-per-node", "1"]) == 0
        out = capsys.readouterr().out
        for marker in ("Figs 3-4", "Figs 8-9", "Fig 14", "Fig 15",
                       "identical: True"):
            assert marker in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--analytic-only", "--nodes", "2",
                     "--files-per-rank", "2", "--procs-per-node", "1",
                     "--output", str(target)]) == 0
        assert target.exists()
        assert "HVAC reproduction" in target.read_text()

    def test_full_report_small_scale(self, capsys):
        assert main(["report", "--nodes", "2",
                     "--files-per-rank", "3", "--procs-per-node", "2"]) == 0
        out = capsys.readouterr().out
        for marker in ("Fig 10", "Fig 11", "Fig 12", "Fig 13"):
            assert marker in out
