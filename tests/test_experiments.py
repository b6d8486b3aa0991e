"""Tests for the standalone experiment runner."""

import pathlib

import pytest

from repro.experiments import EXPERIMENTS, main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestRunner:
    def test_all_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "figs1-3", "fig5", "table2", "table3", "table4", "fig7",
            "static-hints",
        }

    def test_fig5_runner(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "131072 from Group0 L#0" in out

    def test_table3_runner(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "OOM" in out           # the blank cell

    def test_multiple_artifacts(self, capsys):
        assert main(["fig5", "figs1-3"]) == 0
        out = capsys.readouterr().out
        assert "fig1_knl_snc4_hybrid50.txt" in out and "Memory attribute" in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_static_hints_runner(self, capsys):
        """The static-hint placement scored against the search optimum on
        the same phases."""
        assert main(["static-hints"]) == 0
        out = capsys.readouterr().out
        assert "csr_targets: ReadLatency" in out
        assert "vs optimum" in out

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_prints_bench_archives(self, capsys, name):
        """Each artifact prints, under each archive's path, exactly the
        text its bench archives under ``benchmarks/results/``."""
        assert main([name]) == 0
        banner = f"\n{'=' * 70}\n{name}\n{'=' * 70}\n"
        out = capsys.readouterr().out
        assert out.startswith(banner)
        sections = out[len(banner):].split("### benchmarks/results/")
        assert sections[0] == "" and len(sections) == len(EXPERIMENTS[name]) + 1
        for section in sections[1:]:
            archive, text = section.split("\n", 1)
            assert text == (RESULTS / archive).read_text(), archive
