"""Command-line interface: output shape and the exit-code contract.

Exit codes: 0 success, 1 file or parse problems or an input too large for
memory, 2 parameter problems, 3 exhaustive-search guard exceeded. Every case
runs ``cli.main`` in-process.
"""
from __future__ import annotations

import json

import pytest

from hyperctrl import cli, hypergraph as hg
from hyperctrl.mcn import mcn_exact

from helpers import modular_closure_rank


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "at least one breakpoint"),
            ("0,1\n0.5,2\n0.5,3\n", "strictly increasing"),
            ("0.1,1\n0.5,2\n", "first breakpoint must be t=0"),
            ("0,1\n0.5,nan\n", "must be finite"),
        ],
        ids=["empty", "times-not-increasing", "first-not-zero", "nan-value"],
    )
    def test_content_error_names_file(self, tmp_path, capsys, text, message):
        graph = write_graph(tmp_path, CHAIN5)
        schedule = tmp_path / "u.csv"
        schedule.write_text(text)
        code, out, err = run(
            ["simulate", graph, "--x0", "0,0,0,0,0", "--controls", "1",
             "--input-schedule-file", str(schedule)],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {schedule}: ")
        assert message in err


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


    @pytest.mark.parametrize(
        "method, skipped",
        [("greedy", {"early_stop": 1, "twins": 9}), ("exact", {"twins": 23})],
    )
    def test_search_counts_per_component(self, tmp_path, capsys, method, skipped):
        # star(6,3) beside a lone pair edge: two components
        doc = {"n": 8, "edges": STAR63["edges"] + [[7, 8]]}
        path = write_graph(tmp_path, doc)
        code, out, _ = run(["mcn", path, "--method", method, "--report"], capsys)
        assert code == 0
        components = json.loads(out)["result"]["components"]
        assert [c["nodes"] for c in components] == [[1, 2, 3, 4, 5, 6], [7, 8]]
        search = components[0]["search"]
        assert search["skipped"] == skipped
        assert search["closures"] > 0
        # without --report the output carries no counts
        code, out, _ = run(["mcn", path, "--method", method], capsys)
        assert code == 0
        assert all("search" not in c for c in json.loads(out)["components"])


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
        "graph, solved",
        [
            (hg.hyperchain(12, 3), None),
            # the unit residuals the ring's picks keep all exceed 0.999, so a
            # cutoff of 0.9 no longer stalls its search
            (hg.hyperring(12, 3), (4, [1, 2, 5, 8])),
            (hg.hyperstar(10, 3), None),
            (hg.complete(6, 3), None),
        ],
        ids=["chain-12-3", "ring-12-3", "star-10-3", "complete-6-3"],
    )
    def test_no_rank_gain_names_tolerance(self, tmp_path, capsys, graph, solved):
        # below 1, but every candidate's new direction falls under the cutoff
        path = write_graph(tmp_path, hg.to_json_dict(graph))
        code, out, err = run(["mcn", path, "--tol", "0.9"], capsys)
        if solved is not None:
            doc = json.loads(out)
            assert code == 0 and (doc["value"], doc["witness"]) == solved
            return
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "complete", "--n", "200", "--k", "6"],
            ["--family", "random", "--n", "200", "--k", "6", "--density", "0.1", "--seed", "1"],
        ],
        ids=["complete", "random"],
    )
    def test_too_many_tuples_is_parameter_problem(self, capsys, argv):
        # C(200, 6) = 8.2e10 candidate edges; refused before any is listed
        code, out, err = run(["generate", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: C(200, 6) = 82408626300 tuples exceeds the")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "complete", "--n", "46", "--k", "6"],
            ["--family", "random", "--n", "46", "--k", "6", "--density", "0.5", "--seed", "1"],
        ],
        ids=["complete", "random"],
    )
    def test_tuples_past_the_byte_cap_are_parameter_problem(self, capsys, argv):
        # C(46, 6) = 9366819 is under the tuple cap but not the byte cap
        code, out, err = run(["generate", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: C(46, 6) = 9366819 tuples exceeds the 932067 guard")


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


def two_part_graph(seed, a, b):
    """A random 3-uniform graph on nodes 1..a beside a random 2-uniform one
    on nodes a+1..a+b: the graph's tensor has order 3 on both parts."""
    triples = hg.random_uniform(a, 3, 0.5, seed)
    pairs = hg.random_uniform(b, 2, 0.45, seed + 1000)
    shifted = tuple(tuple(j + a for j in e) for e in pairs.edges)
    return hg.Hypergraph(a + b, triples.edges + shifted)


class TestMixedCardinality:
    """``mcn`` solves the components of the graph's one tensor, so its answer
    is the whole-tensor search's and ``check`` confirms every witness."""

    def assert_agrees(self, tmp_path, capsys, graph):
        path = write_graph(tmp_path, hg.to_json_dict(graph))
        code, out, _ = run(["mcn", path, "--method", "exact"], capsys)
        assert code == 0
        doc = json.loads(out)
        want = mcn_exact(hg.adjacency_auto(graph))
        assert (doc["value"], tuple(doc["witness"])) == (want.value, want.witness)
        controls = ",".join(map(str, doc["witness"]))
        code, out, _ = run(["check", path, "--controls", controls], capsys)
        assert code == 0 and json.loads(out)["full"] is True
        return doc

    def test_pair_component_keeps_the_graph_order(self, tmp_path, capsys):
        # a per-component order 2 for the pair edges once answered 5 with
        # witness [1, 2, 3, 6, 7]
        triples = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
        pairs = [[5, 6], [5, 9], [5, 10], [6, 7], [6, 10], [7, 8], [7, 9],
                 [8, 10], [9, 10]]
        graph = hg.Hypergraph(10, tuple(map(tuple, triples + pairs)))
        doc = self.assert_agrees(tmp_path, capsys, graph)
        assert (doc["value"], doc["witness"]) == (4, [1, 2, 3, 6])

    @pytest.mark.parametrize("seed", range(1, 11))
    @pytest.mark.parametrize("a, b", [(4, 6), (5, 6)])
    def test_seeded_two_part_graphs(self, tmp_path, capsys, seed, a, b):
        self.assert_agrees(tmp_path, capsys, two_part_graph(seed, a, b))


class TestLargeGreedyWitness:
    # The float closure overshoots the rank in k = 2 components of about 170
    # nodes or more, so greedy stops early: the witness of this graph (value
    # 28) has rank 196 of 200 over GF(p), and `check` agrees. Deciding the
    # closure rank over GF(p) mends it.
    @pytest.mark.xfail(raises=AssertionError, reason="float rank too high at n = 200, k = 2")
    def test_random_200_witness_is_full_over_gfp(self, tmp_path, capsys):
        argv = ["--family", "random", "--n", "200", "--k", "2", "--density", "0.01"]
        code, out, _ = run(["generate", *argv, "--seed", "4"], capsys)
        path = tmp_path / "g.json"
        path.write_text(out)
        cli.main(["mcn", str(path)])
        witness = json.loads(capsys.readouterr().out)["witness"]
        tensor = hg.adjacency_auto(hg.from_json_dict(json.loads(path.read_text())))
        assert modular_closure_rank(tensor, witness) == 200


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
