"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.workloads.base import unknown_workload_error


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "go"])
        assert args.bar == "C" and args.cores == 4

    def test_bad_bar_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "go", "--bar", "Z"])

    def test_workload_list_parsing(self):
        args = build_parser().parse_args(
            ["figure", "7", "--workloads", "go, twolf"]
        )
        assert args.workloads == ["go", "twolf"]

    def test_bar_list_parsing(self):
        args = build_parser().parse_args(["sweep", "--bars", "u, seq"])
        assert args.bars == ["U", "SEQ"]

    def test_bad_bar_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--bars", "U,Z"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "m88ksim" in out and "099.go" in out

    def test_compile(self, capsys):
        assert main(["compile", "go"]) == 0
        out = capsys.readouterr().out
        assert "selected loops" in out
        assert "memory sync" in out

    def test_compile_emit(self, capsys):
        assert main(["compile", "go", "--emit", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "func main()" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "go", "--bar", "U"]) == 0
        out = capsys.readouterr().out
        assert "region time" in out and "violations" in out

    def test_simulate_other_core_count(self, capsys):
        assert main(["simulate", "go", "--bar", "C", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "cores 2" in out

    def test_figure(self, capsys):
        assert main(["figure", "7", "--workloads", "go"]) == 0
        out = capsys.readouterr().out
        assert "dist_1" in out

    @pytest.mark.parametrize("argv", (
        ["simulate", "nosuch"],
        ["report", "--workloads", "go,nosuch"],
        ["figure", "7", "--workloads", "nosuch"],
    ), ids=("simulate", "report", "figure"))
    def test_unknown_workload_clean_error(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "unknown workload 'nosuch'; valid: go, " in err
        assert unknown_workload_error("nosuch") in err
        assert "Traceback" not in err

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99", "--workloads", "go"]) == 1

    def test_table(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Issue Width" in out

    def test_scorecard_subset_skips_unreachable_claims(self, capsys):
        """A subset run checks what it can and skips the rest."""
        assert main(["scorecard", "--workloads", "go,mcf"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "[PASS] Slot attribution explains 100% of execution time" in out
        assert (
            "(§4.2 / Fig. 10) (needs: gzip_decomp, perlbmk, gap, m88ksim, vpr_place)"
            in out
        )
        assert "(§1.2 / Fig. 2) (needs: all 15 workloads)" in out
        assert "2/2 claims reproduced (10 skipped)" in out

    def test_summary(self, capsys):
        assert main(["summary", "--workloads", "go"]) == 0
        out = capsys.readouterr().out
        assert "winner=C" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "results.md"
        assert main([
            "report", "-o", str(target), "--workloads", "go",
        ]) == 0
        text = target.read_text()
        assert "### Table 1" in text and "### Figure 10" in text
