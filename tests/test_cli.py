"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.experiments.membership import membership_comparison
from repro.experiments.prefetch import prefetch_comparison
from repro.experiments.resilience import fault_matrix, resilience_sweep
from repro.experiments.slo_exp import slo_scenario
from repro.experiments.tenancy import tenancy_isolation


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

    def test_train_bad_system(self, capsys):
        assert main(["train", "--system", "tape", "--nodes", "2",
                     "--files-per-rank", "2", "--procs-per-node", "1"]) == 2
        assert capsys.readouterr().err.startswith("repro train: error: ")


class TestScaleArguments:
    """A size that would zero or crash the run exits 2 with the message."""

    @pytest.mark.parametrize("flag, value", [
        ("--files-per-rank", "0"),
        ("--files-per-rank", "-3"),
        ("--repetitions", "0"),
        ("--procs-per-node", "0"),
    ])
    def test_exits_2(self, flag, value, capsys):
        assert main(["fig8", "--nodes", "2", flag, value]) == 2
        assert "must be >= 1" in capsys.readouterr().err


def _usage_error(capsys, argv: list[str]) -> str:
    """Run ``repro *argv``; assert exit 2 with one ``repro <cmd>: error:``
    line on stderr and nothing on stdout; return the message."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    prefix = f"repro {argv[0]}: error: "
    assert err.startswith(prefix) and len(err.splitlines()) == 1, err
    return err[len(prefix):].strip()


class TestUsageErrors:
    """Every command turns a rejected argument into exit 2 and one
    ``repro <cmd>: error:`` line; these seven used to raise a traceback
    (exit 1) or, for the bugfix cases, run and misreport."""

    @pytest.mark.parametrize("argv, message", [
        (["mdtest", "--nodes", "0"], "need at least one rank"),
        (["fig8", "--nodes", "0"], "n_nodes must be >= 1"),
        (["fig9", "--nodes", "0"], "n_nodes must be >= 1"),
        (["fig14", "--epochs", "0"], "n_epochs must be >= 1"),
        (["fig15", "--nodes", "0"], "n_servers must be >= 1"),
        (["train", "--nodes", "0"], "n_nodes must be >= 1"),
        (["resilience", "--nodes", "0"], "n_nodes must be positive"),
    ], ids=["mdtest", "fig8", "fig9", "fig14", "fig15", "train", "resilience"])
    def test_bad_size_exits_2(self, argv, message, capsys):
        assert _usage_error(capsys, argv) == message

    @pytest.mark.parametrize("fraction", ["1.5", "-0.5", "nan"])
    def test_resilience_fraction_outside_0_1(self, fraction, capsys):
        # 1.5 used to print a "150%" row with 3 of 4 servers crashed
        argv = ["resilience", "--nodes", "4", "--files", "4",
                f"--fractions={fraction}"]
        assert _usage_error(capsys, argv) == "fail_fractions must be in [0, 1]"

    @pytest.mark.parametrize("files", ["0", "-2"])
    @pytest.mark.parametrize("cmd", ["resilience", "membership", "prefetch", "slo"])
    def test_no_files_exits_2(self, cmd, files, capsys):
        # resilience printed all-zero rows, membership divided by zero,
        # prefetch printed nan rows and slo blamed the window count
        assert _usage_error(capsys, [cmd, "--files", files]) == "n_files must be >= 1"

    @pytest.mark.parametrize("driver", [
        resilience_sweep, fault_matrix, membership_comparison,
        prefetch_comparison, slo_scenario,
    ], ids=lambda driver: driver.__name__)
    def test_experiment_rejects_no_files(self, driver):
        with pytest.raises(ValueError, match="n_files must be >= 1"):
            driver(n_files=0)

    def test_resilience_sweep_rejects_a_bad_fraction(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            resilience_sweep(fail_fractions=(0.0, 1.5), n_nodes=2, n_files=2)

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_fig14_epochs_below_one(self, epochs, capsys):
        # used to print untrained learners with "-1" iterations
        assert _usage_error(capsys, ["fig14", f"--epochs={epochs}"]) == (
            "n_epochs must be >= 1"
        )

    def test_train_takes_one_node_count(self, capsys):
        # ``--nodes 2 8`` used to run 2 nodes and drop the 8
        with pytest.raises(SystemExit) as exc:
            main(["train", "--nodes", "2", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: 8" in capsys.readouterr().err
        assert build_parser().parse_args(["train", "--nodes", "8"]).nodes == 8

    @pytest.mark.parametrize("passes", ["bogus", "", "lint,bogus", "lint,"])
    def test_check_bad_pass_list(self, passes, capsys):
        message = _usage_error(capsys, ["check", "--passes", passes, "no_such_dir"])
        assert message == (
            "passes must name one or more of lint, taint, perf, cells, "
            f"determinism, races; got {passes!r}"
        )


class TestModeComparisonWindows:
    """``--windows`` below one is rejected before any mode runs."""

    @pytest.mark.parametrize("windows", ["0", "-1"])
    @pytest.mark.parametrize("cmd", ["slo", "membership", "tenancy", "prefetch"])
    def test_exits_2(self, cmd, windows, capsys):
        assert main([cmd, "--smoke", "--windows", windows]) == 2
        assert "windows must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("driver", [
        slo_scenario, membership_comparison, tenancy_isolation,
        prefetch_comparison,
    ], ids=lambda driver: driver.__name__)
    def test_experiment_raises(self, driver):
        with pytest.raises(ValueError, match="windows"):
            driver(windows=0)


class TestModeComparisonRates:
    """A negative or NaN pacing or budget exits 2 before any mode runs."""

    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize("cmd, flag", [
        ("tenancy", "--think"),
        ("prefetch", "--decompress-budget"),
    ])
    def test_exits_2(self, cmd, flag, value, capsys):
        assert main([cmd, "--smoke", f"{flag}={value}"]) == 2
        assert "must be >= 0" in capsys.readouterr().err


class TestFuzzTimeBudget:
    """A negative or NaN ``--time-budget`` exits 2 before any run, as
    ``--runs 0`` does; it used to mean "no limit"."""

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_exits_2(self, value, capsys):
        assert main(["fuzz", "--runs", "1", f"--time-budget={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "repro fuzz: error: time_budget must be >= 0"


class TestTenancyAdmission:
    def test_oversized_job_does_not_deadlock_the_demo(self, capsys):
        # tenant 11 asks for more than the whole admission budget; it
        # used to be queued forever and the run died with an empty queue
        rc = main(["tenancy", "--smoke", "--jobs", "3", "--think", "0.05",
                   "--streams", "2", "--seed", "1"])
        assert rc == 0
        assert re.search(r"t11 +\S+ +degrade", capsys.readouterr().out)


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
