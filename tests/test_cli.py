"""CLI tests for repro-lstopo and repro-search."""

import pytest

from repro.cli import build_parser, build_search_parser, main, search_main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.platform == "xeon-cascadelake-1lm"
        assert not args.memattrs

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--platform", "pdp11"])


class TestMain:
    def test_topology_only(self, capsys):
        assert main(["--platform", "knl-snc4-flat"]) == 0
        out = capsys.readouterr().out
        assert "Machine (" in out
        assert "MCDRAM" in out

    def test_memattrs_hmat_source(self, capsys):
        main(["--platform", "xeon-cascadelake-1lm", "--snc", "2", "--memattrs"])
        out = capsys.readouterr().out
        assert "ACPI HMAT via sysfs" in out
        assert "131072 from Group0 L#0" in out

    def test_memattrs_benchmark_source_on_knl(self, capsys):
        main(["--platform", "knl-snc4-flat", "--memattrs"])
        out = capsys.readouterr().out
        assert "benchmarks" in out
        assert "including remote accesses" in out

    def test_forced_benchmark(self, capsys):
        main(["--platform", "uniform-dram", "--memattrs", "--benchmark"])
        out = capsys.readouterr().out
        assert "benchmarks" in out

    def test_distances(self, capsys):
        main(["--platform", "xeon-cascadelake-1lm", "--distances"])
        out = capsys.readouterr().out
        assert "NUMA distances" in out

    def test_sysfs_dump(self, capsys):
        main(["--platform", "xeon-cascadelake-1lm", "--sysfs"])
        out = capsys.readouterr().out
        assert "/sys/devices/system/node" in out

    def test_cache_stats_shows_the_allocator_memo(self, capsys):
        assert main(["--platform", "xeon-cascadelake-1lm", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        table = out[out.index("Query-cache statistics:"):].splitlines()
        assert table[-3].startswith("total")
        rows = {line.split()[0]: line.split()[1:] for line in table[2:-3]}
        assert int(rows["alloc_rank"][0]) > 0  # hits
        assert set(rows) <= {"alloc_rank", "as_cpuset", "local_nodes",
                             "initiator_pus"}


class TestSearchCli:
    def test_parser_defaults(self):
        args = build_search_parser().parse_args([])
        assert args.platform == "xeon-cascadelake-1lm"
        assert args.nodes == "0,2"
        assert args.top_k == 8
        assert args.budget is None
        assert not args.no_prune

    def test_search_smoke(self, capsys):
        assert search_main(["--top-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "Graph500 scale 20" in out
        assert "csr_offsets" in out
        assert "placement search: space 16" in out

    def test_search_four_nodes_per_level(self, capsys):
        assert search_main(
            ["--nodes", "0,1,2,3", "--per-level", "--top-k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "placement search: space 256" in out
        assert "by bound" in out

    def test_search_critical_subset(self, capsys):
        assert search_main(["--critical", "parent,frontier", "--top-k", "0"]) == 0
        out = capsys.readouterr().out
        assert "placement search: space 4" in out

    def test_search_unknown_critical_fails(self, capsys):
        assert search_main(["--critical", "nonesuch"]) == 1
        assert "critical buffers not in phases" in capsys.readouterr().err

    def test_search_failure_still_writes_metrics(self, capsys):
        assert search_main(["--critical", "nonesuch", "--metrics", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "\nmetrics:\n" in captured.out

    def test_search_duplicate_nodes_fail(self, capsys):
        assert search_main(["--nodes", "0,0,2", "--top-k", "4"]) == 1
        err = capsys.readouterr().err
        assert "duplicate candidate nodes: [0]" in err

    def test_search_duplicate_critical_fail(self, capsys):
        assert search_main(["--critical", "parent,parent,frontier"]) == 1
        err = capsys.readouterr().err
        assert "duplicate critical buffers: ['parent']" in err

    def test_search_no_prune(self, capsys):
        assert search_main(["--no-prune", "--top-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 by bound" in out

    def test_search_lists_nodes_and_top_k(self, capsys):
        # The header names the candidate nodes; --top-k 4 keeps four
        # candidate rows under the buffer-column header.
        assert search_main(["--top-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "nodes [0, 2]" in out.splitlines()[0]
        assert "csr_offsets" in out
        assert "placement search: space 16" in out
        assert "kept 4" in out
        assert sum("|" in line for line in out.splitlines()) == 1 + 4

    def test_search_budget_truncates(self, capsys):
        # Budget 1: the heap is not full yet, so the bound cannot prune
        # and the second leaf must hit the budget.
        assert search_main(["--top-k", "2", "--budget", "1"]) == 0
        assert "TRUNCATED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nodes", "a,b"],
            ["--nodes", ""],
            ["--scale", "0"],
            ["--scale", "-5"],
            ["--threads", "0"],
            ["--scale", "64"],
            ["--scale", "2000"],
        ],
        ids=["nodes-not-numbers", "nodes-empty", "scale-0", "scale-negative",
             "threads-0", "scale-64", "scale-2000"],
    )
    def test_search_malformed_input_fails(self, capsys, argv):
        """Bad input is an ``error:`` line and exit 1, never a traceback."""
        assert search_main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
