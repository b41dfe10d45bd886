"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "gm"
        assert args.model == "cioq"
        assert args.n == 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "nonsense", "--slots", "5"])

    def test_crossbar_policy_table(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "gm", "--model", "crossbar",
                  "--slots", "5"])

    @pytest.mark.parametrize("argv", [
        ["--load", "nan"], ["--load", "inf"], ["--load", "-1"], ["--n", "0"],
        ["--slots", "0"],
    ], ids=["load-nan", "load-inf", "load-negative", "zero-ports",
            "zero-slots"])
    def test_bad_value_exits_2_with_one_line(self, argv, capsys):
        assert main(["run", "--slots", "5", *argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""


#: ``repro sweep`` stdout for SWEEP_ARGV, captured before the verb ran
#: through scenario specs; trailing blanks are part of the table layout.
SWEEP_ARGV = ["sweep", "--policies", "gm,pg", "--beta", "1.5",
              "--loads", "0.9,1.3", "--seeds", "2", "--slots", "8",
              "--n", "3", "--opt", "--traffic", "bursty",
              "--values", "two-value"]
SWEEP_GOLDEN = "\n".join([
    "sweep: cioq 3x3, 8 slots, 12 points",
    "load  seed  arrived  gm   pg   OPT",
    "----  ----  -------  ---  ---  ---",
    "0.9   0     27       79   88   90 ",
    "0.9   1     5        14   14   14 ",
    "1.3   0     39       122  131  133",
    "1.3   1     50       134  150  154",
    "",
    "per-load mean benefit",
    "load  gm    pg     OPT  ",
    "----  ----  -----  -----",
    "0.9   46.5  51     52   ",
    "1.3   128   140.5  143.5",
    "",
    "",
])


class TestSweepVerb:
    def test_golden_stdout(self, capsys):
        assert main(SWEEP_ARGV) == 0
        assert capsys.readouterr().out == SWEEP_GOLDEN

    @pytest.mark.parametrize("argv", [
        ["--seeds", "0"], ["--slots", "0", "--seeds", "1"],
    ], ids=["no-seeds", "no-slots"])
    def test_empty_grid_exits_2_with_one_line(self, argv, capsys):
        assert main(["sweep", "--n", "3", *argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""


class TestCommands:
    def test_figures(self, capsys):
        assert main(["figures", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out

    def test_run_gm(self, capsys):
        rc = main(["run", "--policy", "gm", "--n", "3", "--slots", "10",
                   "--load", "1.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GM" in out and "benefit" in out

    def test_run_with_delays_and_occupancy(self, capsys):
        rc = main(["run", "--policy", "pg", "--n", "3", "--slots", "10",
                   "--values", "pareto", "--load", "1.2",
                   "--delays", "--occupancy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delivery delay" in out
        assert "occupancy over" in out

    def test_run_crossbar_cpg(self, capsys):
        rc = main(["run", "--policy", "cpg", "--model", "crossbar",
                   "--n", "3", "--slots", "8", "--values", "two-value",
                   "--load", "1.3"])
        assert rc == 0
        assert "CPG" in capsys.readouterr().out

    def test_run_fifo_both_models(self, capsys):
        assert main(["run", "--policy", "fifo", "--n", "3",
                     "--slots", "8"]) == 0
        assert main(["run", "--policy", "fifo", "--model", "crossbar",
                     "--n", "3", "--slots", "8"]) == 0

    def test_ratio_gm_within_bound(self, capsys):
        rc = main(["ratio", "--policy", "gm", "--n", "3", "--slots", "12",
                   "--load", "1.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_ratio_pg_custom_beta(self, capsys):
        rc = main(["ratio", "--policy", "pg", "--n", "3", "--slots", "10",
                   "--values", "uniform", "--load", "1.3",
                   "--beta", "2.0"])
        assert rc == 0

    def test_constants(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "pg_beta_star" in out

    @pytest.mark.parametrize("traffic", ["bernoulli", "bursty", "hotspot",
                                         "diagonal"])
    def test_all_traffic_models(self, traffic, capsys):
        rc = main(["run", "--policy", "gm", "--n", "3", "--slots", "6",
                   "--traffic", traffic])
        assert rc == 0
