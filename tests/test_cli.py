"""Command-line interface: output shape and the exit-code contract.

Exit codes: 0 success, 1 file or parse problems or an input too large for
memory, 2 parameter problems, 3 exhaustive-search guard exceeded. Every case
runs ``cli.main`` in-process.
"""
from __future__ import annotations

import json

import pytest

from hyperctrl import cli, hypergraph as hg


def write_graph(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


CHAIN5 = {"n": 5, "edges": [[1, 2, 3], [2, 3, 4], [3, 4, 5]]}


class TestExitCodes:
    def test_check_succeeds(self, tmp_path, capsys):
        path = write_graph(tmp_path, CHAIN5)
        code, out, err = run(["check", path, "--controls", "1,2"], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["rank"] == 5 and doc["full"] is True
        assert doc["controls"] == [1, 2]

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"n": 4, "edges": 5}, "edges"),
            ({"n": 4, "edges": [1, 2]}, "edges"),
            ({"n": 4, "edges": [[1, 2]], "weights": 5}, "weights"),
            # values are not rounded, parsed from text or taken from a bool
            ({"n": 6.9, "edges": [[1, 2, 3]]}, "n"),
            ({"n": "6", "edges": [[1, 2, 3]]}, "n"),
            ({"n": True, "edges": [[1, 2]]}, "n"),
            ({"n": 6, "edges": [[1.7, 2.2, 3.9]]}, "edges"),
            ({"n": 6, "edges": [["2", 3]]}, "edges"),
            ({"n": 6, "edges": [[True, 2]]}, "edges"),
            ({"n": 6, "edges": [[1, 2]], "weights": ["2"]}, "weights"),
            ({"n": 6, "edges": [[1, 2]], "weights": [True]}, "weights"),
            ({"n": 6, "edges": [[1, 2]], "weights": [10**400]}, "weights"),
        ],
    )
    def test_malformed_document_names_key(self, tmp_path, capsys, doc, key):
        path = write_graph(tmp_path, doc)
        code, out, err = run(["check", path, "--controls", "1"], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ")
        assert repr(key) in err

    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        code, _, err = run(["check", path], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}: ")

    def test_bad_control_list_is_parameter_problem(self, tmp_path, capsys):
        path = write_graph(tmp_path, CHAIN5)
        code, out, err = run(["check", path, "--controls", "1,a"], capsys)
        assert code == 2 and out == ""
        assert "node list" in err

    def test_exact_guard_exceeded(self, tmp_path, capsys):
        path = write_graph(tmp_path, {"n": 4, "edges": [[1, 2, 3, 4]]})
        code, out, err = run(
            ["mcn", path, "--method", "exact", "--guard", "3"], capsys
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ")


    # n passes every check of the loader but no array of n rows fits in memory
    @pytest.mark.parametrize(
        "argv", [["check", "GRAPH", "--controls", "1"], ["mcn", "GRAPH"]]
    )
    def test_input_too_large_for_memory_names_file(self, tmp_path, capsys, argv):
        path = write_graph(tmp_path, {"n": 100_000_000_000_000, "edges": [[1, 2]]})
        argv = [path if tok == "GRAPH" else tok for tok in argv]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: input too large for memory")


class TestSimulateSchedule:
    def test_non_numeric_field_names_file_and_line(self, tmp_path, capsys):
        graph = write_graph(tmp_path, CHAIN5)
        schedule = tmp_path / "u.csv"
        # the blank line still counts, so the bad row is line 3
        schedule.write_text("0,1\n\nx,2\n")
        code, out, err = run(
            ["simulate", graph, "--x0", "0,0,0,0,0", "--controls", "1",
             "--input-schedule-file", str(schedule)],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {schedule}: line 3: ")
        assert "'x'" in err


class TestIngest:
    def test_parse_error_is_file_problem(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        # the blank line still counts, so the bad row is line 3
        csv.write_text("1,2,3\n\n4,a,6\n7,8,9\n")
        code, out, err = run(
            ["ingest", str(csv), "--order", "2", "--threshold", "0.5"], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {csv}: line 3: ")

    def test_order_beyond_channels_is_parameter_problem(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("1,2,3\n4,5,7\n")
        code, _, err = run(
            ["ingest", str(csv), "--order", "3", "--threshold", "0.5"], capsys
        )
        assert code == 2
        assert "k=3" in err

    def test_zero_variance_is_parameter_problem(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("1,2,3\n5,5,5\n")
        code, _, err = run(
            ["ingest", str(csv), "--order", "2", "--threshold", "0.5"], capsys
        )
        assert code == 2
        assert "zero variance" in err


class TestReport:
    @pytest.mark.parametrize(
        "argv",
        [["check", "--controls", "1,2"], ["mcn", "--method", "greedy"]],
    )
    def test_tolerance_from_environment_is_recorded(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        path = write_graph(tmp_path, CHAIN5)
        monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-9")
        full = [argv[0], path, *argv[1:], "--report"]
        code, out, _ = run(full, capsys)
        assert code == 0
        assert json.loads(out)["parameters"]["tol"] == 1e-9
        # an explicit --tol wins over the environment
        code, out, _ = run(full + ["--tol", "1e-7"], capsys)
        assert code == 0
        assert json.loads(out)["parameters"]["tol"] == 1e-7


STAR63 = {"n": 6, "edges": [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6]]}


class TestTolerance:
    # a cutoff of 1 or more can drop the unit control columns themselves
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1", "2", "1e300"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "GRAPH", "--controls", "1"],
            ["mcn", "GRAPH"],
            ["bench", "--family", "complete", "--k", "2", "--n-range", "3:3"],
        ],
    )
    @pytest.mark.parametrize("source", ["--tol", cli.TOL_ENV_VAR])
    def test_negative_or_non_finite_rejected(
        self, tmp_path, capsys, monkeypatch, argv, value, source
    ):
        path = write_graph(tmp_path, STAR63)
        argv = [path if tok == "GRAPH" else tok for tok in argv]
        if source == "--tol":
            argv += ["--tol", value]
        else:
            monkeypatch.setenv(cli.TOL_ENV_VAR, value)
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {source} must lie in [0, 1)")

    @pytest.mark.parametrize(
        "graph",
        [hg.hyperchain(12, 3), hg.hyperring(12, 3), hg.hyperstar(10, 3), hg.complete(6, 3)],
        ids=["chain-12-3", "ring-12-3", "star-10-3", "complete-6-3"],
    )
    def test_no_rank_gain_names_tolerance(self, tmp_path, capsys, graph):
        # below 1, but every candidate's new direction falls under the cutoff
        path = write_graph(tmp_path, hg.to_json_dict(graph))
        code, out, err = run(["mcn", path, "--tol", "0.9"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: no candidate raises the rank")
        assert "tolerance 0.9" in err

    def test_zero_is_accepted(self, tmp_path, capsys):
        path = write_graph(tmp_path, STAR63)
        code, out, _ = run(["check", path, "--controls", "1", "--tol", "0"], capsys)
        assert code == 0 and json.loads(out)["rank"] == 1


class TestGenerate:
    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--family", "chain", "--n", "5", "--k", "3"], hg.hyperchain(5, 3)),
            (
                ["--family", "r-ring", "--n", "9", "--k", "4", "--r", "1"],
                hg.overlap_variant(9, 4, 1, "ring"),
            ),
            (
                ["--family", "random", "--n", "7", "--k", "3",
                 "--density", "0.4", "--seed", "5"],
                hg.random_uniform(7, 3, 0.4, 5),
            ),
        ],
    )
    def test_json_shape(self, capsys, argv, want):
        code, out, err = run(["generate", *argv], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert sorted(doc) == ["edges", "n"]
        assert doc == hg.to_json_dict(want)
        assert all(e == sorted(e) for e in doc["edges"])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--family", "r-chain", "--n", "10", "--k", "4"], "--r"),
            (["--family", "random", "--n", "6", "--k", "3", "--seed", "1"], "--density"),
            (["--family", "random", "--n", "6", "--k", "3", "--density", "0.5"], "--seed"),
        ],
    )
    def test_missing_family_parameter(self, capsys, argv, flag):
        code, out, err = run(["generate", *argv], capsys)
        assert code == 2 and out == ""
        assert flag in err


class TestBench:
    def test_csv_header_and_row(self, capsys):
        code, out, err = run(
            ["bench", "--family", "complete", "--k", "3", "--n-range", "4:4"], capsys
        )
        assert code == 0 and err == ""
        header, *rows = out.splitlines()
        assert header == (
            "family,n,k,seed,exact_value,greedy_value,agree,exact_time_s,greedy_time_s"
        )
        assert len(rows) == 1
        fields = rows[0].split(",")
        # complete hypergraphs need n-1 controls
        assert fields[:7] == ["complete", "4", "3", "0", "3", "3", "True"]
        assert all(float(t) >= 0 for t in fields[7:])


    @pytest.mark.parametrize(
        "argv, values",
        [
            # 21 nodes exceed the exact guard of 20; the largest component has 6
            (["--n-range", "21:21", "--seeds", "1", "--density", "0.05"], [("11", "11")]),
            # whole-graph greedy took noisy ranks and answered 4, 2 and 1
            (
                ["--n-range", "12:12", "--seeds", "2,3,5", "--density", "0.2"],
                [("5", "5"), ("3", "3"), ("2", "2")],
            ),
        ],
    )
    def test_solves_per_component_like_mcn(self, capsys, argv, values):
        code, out, err = run(["bench", "--family", "random", "--k", "2", *argv], capsys)
        assert code == 0 and err == ""
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [(f[4], f[5], f[6]) for f in rows] == [(e, g, "True") for e, g in values]


class TestSimulateCsv:
    def test_header_rows_and_final_time(self, tmp_path, capsys):
        path = write_graph(tmp_path, CHAIN5)
        # T/dt is not integral, so the last step is shortened to land on T
        code, out, err = run(
            ["simulate", path, "--x0", "0.1,0,0,0,0.2", "--controls", "1",
             "--T", "0.25", "--dt", "0.1"],
            capsys,
        )
        assert code == 0 and err == ""
        header, *rows = out.splitlines()
        assert header == "t,x1,x2,x3,x4,x5"
        assert len(rows) == 4
        assert all(len(row.split(",")) == 6 for row in rows)
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.1, 0.2, 0.25]
