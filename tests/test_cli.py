"""Command-line interface: output shape and the exit-code contract.

Exit codes: 0 success, 1 file or parse problems or an input too large for
memory, 2 parameter problems, 3 exhaustive-search guard exceeded. Every case
runs ``cli.main`` in-process.
"""
from __future__ import annotations

import json
import time

import pytest

from hyperctrl import cli, hypergraph as hg
from hyperctrl.ingest import build_hypergraph, load_time_series_csv
from hyperctrl.mcn import mcn_exact, mcn_predicted

from helpers import TWIN_HUBS, modular_closure_rank


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
        assert err == "error: --controls: expected a comma-separated integer list, got '1,a'\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check", "GRAPH", "--controls", "1,,2"], "--controls"),
            (["bench", "--family", "complete", "--k", "2", "--n-range", "3:3",
              "--seeds", "1,,2"], "--seeds"),
        ],
    )
    def test_bad_integer_list_names_its_flag(self, tmp_path, capsys, argv, flag):
        path = write_graph(tmp_path, CHAIN5)
        argv = [path if tok == "GRAPH" else tok for tok in argv]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {flag}: expected a comma-separated integer list, got '1,,2'\n"

    def test_removed_subcommand_is_usage_error(self, tmp_path, capsys):
        path = write_graph(tmp_path, CHAIN5)
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", path, "--x0", "0,0,0,0,0"])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert "usage: hyperctrl" in err
        assert "invalid choice: 'simulate'" in err

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
        # check names numpy's array shape, mcn the union-find table
        assert "100000000000000" in err

    # numpy cannot describe an int64 array of n rows and one column per
    # closure start, so the file is refused at load and nothing is allocated
    @pytest.mark.parametrize(
        "n, argv, columns",
        [
            (2**62, ["check", "GRAPH", "--controls", "1"], 2),
            (2**63, ["check", "GRAPH", "--controls", "1"], 2),
            (2**62, ["mcn", "GRAPH"], 2),
            (2**63, ["mcn", "GRAPH"], 2),
            (2**59 // 3, ["check", "GRAPH", "--controls", "1,2,3,4,5,6,7"], 7),
        ],
        ids=["check-2^62", "check-2^63", "mcn-2^62", "mcn-2^63", "check-seven-controls"],
    )
    def test_node_count_past_index_range_names_file(self, tmp_path, capsys, n, argv, columns):
        path = write_graph(tmp_path, {"n": n, "edges": [[1, 2]]})
        argv = [path if tok == "GRAPH" else tok for tok in argv]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == (
            f"error: {path}: input too large for memory: "
            f"{n} rows by {columns} columns are past numpy's index range\n"
        )

    @pytest.mark.parametrize("method", ["greedy", "exact"])
    def test_degree_past_the_float_range_solves(self, tmp_path, capsys, method):
        # node 2's exact degree, 2e308, is past the float range
        doc = {"n": 3, "edges": [[1, 2], [2, 3]], "weights": [1e308, 1e308]}
        path = write_graph(tmp_path, doc)
        code, out, err = run(["mcn", path, "--method", method], capsys)
        assert code == 0 and err == ""
        witness = json.loads(out)["witness"]
        assert modular_closure_rank(hg.adjacency_auto(hg.from_json_dict(doc)), witness) == 3

    @pytest.mark.parametrize(
        "name, data, argv, detail",
        [
            ("g.json", b"\xff", ["mcn", "FILE"], "invalid JSON: 'utf-8' codec"),
            ("g.json", b"\xff", ["check", "FILE"], "invalid JSON: 'utf-8' codec"),
            # nested past the recursion limit
            ("g.json", b"[" * 100_000, ["mcn", "FILE"], "invalid JSON: "),
            ("s.csv", b"1,2\n3," + b"4" * 131_073 + b"\n", ["ingest", "FILE"],
             "line 2: field larger than field limit"),
            ("s.csv", b"1,2\n3,\xe9\n", ["ingest", "FILE"], "not UTF-8 text"),
            ("s.csv", b"1,2,3\n4,nan,6\n", ["ingest", "FILE"],
             "line 2: signals must be finite, got 'nan'"),
            ("s.csv", b"1,2,3\n4,5, inf\n", ["ingest", "FILE"],
             "line 2: signals must be finite, got 'inf'"),
            # overflows to inf as it is parsed
            ("s.csv", b"1e400,2,3\n4,5,6\n", ["ingest", "FILE"],
             "line 1: signals must be finite, got '1e400'"),
            ("s.csv", b"", ["ingest", "FILE"], "empty file"),
            ("s.csv", b"a,b,c\n", ["ingest", "FILE", "--has-header"],
             "header but no data rows"),
            ("s.csv", b"a,b,c\n1,2,3\n4,5,6\n", ["ingest", "FILE", "--has-header"],
             "header lists 3 labels but the file has 2 channel rows"),
            ("s.csv", b"1,2,3\n4,5\n", ["ingest", "FILE"], "line 2: 2 fields, expected 3"),
            ("s.csv", b"1\n2\n", ["ingest", "FILE"], "need at least 2 samples, got 1"),
            ("g.json", b"[1, 2]", ["mcn", "FILE"], "hypergraph document must be a JSON object"),
            ("g.json", b'{"n": 0, "edges": []}', ["check", "FILE"],
             "node count must be >= 1, got 0"),
            # None: no file is written
            ("s.csv", None, ["ingest", "FILE"], "No such file or directory"),
        ],
        ids=["mcn-byte-ff", "check-byte-ff", "deep-nesting", "long-csv-field",
             "latin-1-csv", "nan-csv-cell", "inf-csv-cell", "overflowing-csv-cell",
             "empty-csv", "header-only-csv", "header-label-count", "ragged-csv-row",
             "one-sample-csv", "json-array", "no-nodes", "missing-csv"],
    )
    def test_unreadable_file_names_it(self, tmp_path, capsys, name, data, argv, detail):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        argv = [str(path) if tok == "FILE" else tok for tok in argv]
        if argv[0] == "ingest":
            argv += ["--order", "2", "--threshold", "0.5"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: {detail}")


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
    def test_rank_tolerance_variable_is_ignored(self, tmp_path, capsys, monkeypatch):
        # ranks are exact over GF(p), so no environment variable reaches them
        path = write_graph(tmp_path, CHAIN5)
        reports = []
        for value in (None, "nan"):
            if value is not None:
                monkeypatch.setenv("HYPERCTRL_TOL", value)
            # the report records the nodes used, however they were spelled
            for controls in ("1,2", " 1, 2"):
                code, out, err = run(["check", path, "--controls", controls, "--report"], capsys)
                assert code == 0 and err == ""
                doc = json.loads(out)
                del doc["timings"]
                reports.append(doc)
        assert all(doc == reports[0] for doc in reports)
        assert reports[0]["parameters"] == {"controls": [1, 2], "prime": 1048573}
        assert reports[0]["result"]["rank"] == 5

    def test_reports_record_the_prime_of_each_tensor(self, tmp_path, capsys):
        # weight 1048573 gives {3, 4, 5} the coefficient 1048573 / 2, so the
        # graph's tensor and its first component step down to the next
        # prime; the component of the pair edge {6, 7} keeps the first one
        doc = {"n": 7, "edges": [[1, 2, 3], [3, 4, 5], [6, 7]], "weights": [1.0, 1048573.0, 1.0]}
        path = write_graph(tmp_path, doc)
        code, out, _ = run(["check", path, "--controls", "1,2,4,6", "--report"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["parameters"]["prime"] == 1048571
        assert report["result"]["rank"] == 7
        code, out, _ = run(["mcn", path, "--report"], capsys)
        assert code == 0
        components = json.loads(out)["result"]["components"]
        assert [c["search"]["prime"] for c in components] == [1048571, 1048573]

    @pytest.mark.parametrize(
        "argv", [["mcn", "--method", "exact"], ["check", "--controls", "1,2"]]
    )
    def test_timings_split_load_from_compute(self, tmp_path, capsys, monkeypatch, argv):
        build = hg.adjacency_auto

        def slow_build(graph):
            time.sleep(0.05)
            return build(graph)

        # the tensor build counts as compute
        monkeypatch.setattr(hg, "adjacency_auto", slow_build)
        path = write_graph(tmp_path, CHAIN5)
        code, out, _ = run([argv[0], path, *argv[1:], "--report"], capsys)
        assert code == 0
        timings = json.loads(out)["timings"]
        assert sorted(timings) == ["compute_s", "load_s"]
        assert timings["load_s"] >= 0
        assert timings["compute_s"] >= 0.05

    @pytest.mark.parametrize(
        "method, skipped",
        [("greedy", {"early_stop": 1, "twins": 9}), ("exact", {"twins": 5, "bound": 0})],
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
        # four twin leaves: no set of under four nodes is full, and both
        # searches find four
        assert [c["search"]["lower_bound"] for c in components] == [4, 1]
        assert all(c["search"]["optimal"] for c in components)
        # without --report the output carries no counts
        code, out, _ = run(["mcn", path, "--method", method], capsys)
        assert code == 0
        assert all("search" not in c for c in json.loads(out)["components"])

    @pytest.mark.parametrize("method", ["greedy", "exact"])
    def test_loose_bound_is_not_optimal(self, tmp_path, capsys, method):
        # the 10-cycle: its adjacency has eigenvalues of multiplicity 2, so
        # one node never suffices, but no rule of the bound sees past 1
        path = write_graph(tmp_path, hg.to_json_dict(hg.hyperring(10, 2)))
        code, out, _ = run(["mcn", path, "--method", method, "--report"], capsys)
        assert code == 0
        (comp,) = json.loads(out)["result"]["components"]
        assert comp["value"] == 2
        assert (comp["search"]["lower_bound"], comp["search"]["optimal"]) == (1, False)

    @pytest.mark.parametrize(
        "method, skipped",
        [("greedy", {"early_stop": 0, "twins": 0}), ("exact", {"twins": 0, "bound": 0})],
    )
    def test_one_node_components_run_no_closure(self, tmp_path, capsys, method, skipped):
        path = write_graph(tmp_path, {"n": 5, "edges": [[1, 2]]})
        code, out, _ = run(["mcn", path, "--method", method, "--report"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["value"], result["witness"]) == (4, [1, 3, 4, 5])
        pair, *singles = result["components"]
        assert pair["search"]["closures"] > 0
        for j, comp in zip((3, 4, 5), singles):
            assert (comp["nodes"], comp["value"], comp["witness"]) == ([j], 1, [j])
            assert comp["search"] == {
                "closures": 0, "skipped": skipped, "prime": 1048573,
                "lower_bound": 1, "optimal": True,
            }
            if method == "greedy":
                assert comp["rank_trace"] == [[j, 1]]

    @pytest.mark.parametrize(
        "argv, parameters",
        [
            (["--method", "exact"], {"method": "exact", "guard": 20}),
            (["--guard", "9"], {"method": "greedy"}),
            (["--method", "exact", "--guard", "9"], {"method": "exact", "guard": 9}),
        ],
    )
    def test_mcn_records_only_the_parameters_it_reads(self, tmp_path, capsys, argv, parameters):
        path = write_graph(tmp_path, CHAIN5)
        code, out, _ = run(["mcn", path, *argv, "--report"], capsys)
        assert code == 0
        assert json.loads(out)["parameters"] == parameters

    def digest(self, tmp_path, capsys, doc):
        code, out, _ = run(["check", write_graph(tmp_path, doc), "--report"], capsys)
        assert code == 0
        return json.loads(out)["digest"]

    def test_digest_keeps_each_weight_with_its_edge(self, tmp_path, capsys):
        edges, weights = [[1, 2, 3], [3, 4, 5]], [1.0, 2.0]
        same, reordered, swapped = (
            self.digest(tmp_path, capsys, {"n": 5, "edges": e, "weights": w})
            for e, w in ((edges, weights), (edges[::-1], weights[::-1]), (edges, weights[::-1]))
        )
        # the same graph in another edge order, then another graph
        assert same == reordered != swapped

    def test_unweighted_digest_ignores_edge_order(self, tmp_path, capsys):
        reordered = {"n": 5, "edges": CHAIN5["edges"][::-1]}
        digest = "188695f429da52297a4d87aa6e760a23b2f6aa922a0f9f636372d1562e34bdf4"
        assert self.digest(tmp_path, capsys, CHAIN5) == digest
        assert self.digest(tmp_path, capsys, reordered) == digest

    def test_same_digest_same_greedy_answer(self, tmp_path, capsys):
        # the witness once held hub 2 in the file's edge order, hub 1 sorted
        pairs = sorted(zip(TWIN_HUBS["edges"], TWIN_HUBS["weights"]))
        ordered = {"n": 8, "edges": [e for e, _ in pairs], "weights": [w for _, w in pairs]}
        reports = []
        for name, graph in (("hub.json", TWIN_HUBS), ("sorted.json", ordered)):
            code, out, _ = run(["mcn", write_graph(tmp_path, graph, name), "--report"], capsys)
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0]["digest"] == reports[1]["digest"]
        assert reports[0]["digest"].startswith("b31df09b85f2")
        for report in reports:
            assert report["result"]["witness"] == [1, 3, 4, 5, 6, 7]


STAR63 = {"n": 6, "edges": [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6]]}


def dumped(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestJsonOutput:
    """A command's JSON stdout is the key-sorted text indented by two, with
    one closing newline, byte for byte."""

    def test_generate(self, capsys):
        code, out, _ = run(["generate", "--family", "star", "--n", "6", "--k", "3"], capsys)
        assert code == 0
        assert out == dumped(hg.to_json_dict(hg.hyperstar(6, 3)))

    def test_mcn(self, tmp_path, capsys):
        path = write_graph(tmp_path, CHAIN5)
        code, out, _ = run(["mcn", path, "--method", "exact"], capsys)
        assert code == 0
        graph = hg.from_json_dict(CHAIN5)
        solved = cli._solve_by_component(graph, mcn_exact)
        assert out == dumped({"method": "exact", **solved, "n": 5})

    def test_ingest(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("1,2,3,4,5\n2,4,6,8,11\n5,3,4,1,2\n")
        code, out, _ = run(["ingest", str(csv), "--order", "2", "--threshold", "0.5"], capsys)
        assert code == 0
        graph = build_hypergraph(load_time_series_csv(str(csv)), 2, 0.5)
        assert graph.edges
        assert out == dumped(hg.to_json_dict(graph))

    @pytest.mark.parametrize("header", [b"", b"a,b,c\n"], ids=["no-header", "header"])
    def test_ingest_reads_past_a_byte_order_mark(self, tmp_path, capsys, header):
        # spreadsheet programs write UTF-8 CSVs with a leading BOM
        text = header + b"1,2,3,4,5\n2,4,6,8,11\n5,3,4,1,2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        flags = ["--has-header"] if header else []
        outs = []
        for path in (plain, marked):
            series = load_time_series_csv(str(path), has_header=bool(header))
            outs.append(run(["ingest", str(path), "--order", "2", "--threshold", "0.5", *flags], capsys))
            outs.append((series.signals.tolist(), series.labels))
        assert outs[0][0] == 0
        assert outs[0] == outs[2] and outs[1] == outs[3]


class TestTolerance:
    # ranks are exact over GF(p), with no cutoff: no subcommand takes --tol,
    # so argparse refuses it whatever the value; greedy has one tie rule, so
    # mcn takes no --tie-break or --seed either; no flag is taken by a prefix
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1", "2", "1e300"])
    @pytest.mark.parametrize(
        "source, argv",
        [
            ("--tol", ["check", "GRAPH", "--controls", "1"]),
            ("--tol", ["mcn", "GRAPH"]),
            ("--tol", ["bench", "--family", "complete", "--k", "2", "--n-range", "3:3"]),
            ("--tie-break", ["mcn", "GRAPH"]),
            ("--seed", ["mcn", "GRAPH"]),
            # prefixes of --guard and --seeds are refused, not expanded
            ("--gu", ["mcn", "GRAPH"]),
            ("--seed",
             ["bench", "--family", "complete", "--k", "2", "--n-range", "3:3"]),
        ],
    )
    def test_negative_or_non_finite_rejected(self, tmp_path, capsys, argv, value, source):
        path = write_graph(tmp_path, STAR63)
        argv = [path if tok == "GRAPH" else tok for tok in argv] + [source, value]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert "usage: hyperctrl" in err
        assert f"unrecognized arguments: {source} {value}" in err


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
        assert doc == json.loads(json.dumps(hg.to_json_dict(want)))
        assert all(e == sorted(e) for e in doc["edges"])

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["--family", "r-chain", "--n", "10", "--k", "4"], "--r"),
            (["--family", "random", "--n", "6", "--k", "3", "--seed", "1"], "--density"),
            (["--family", "random", "--n", "6", "--k", "3", "--density", "0.5"], "--seed"),
            # an overlap outside (0, k) is refused like a missing one
            (["--family", "r-chain", "--n", "7", "--k", "3", "--r", "0"], "need 0 < r < k, got r=0"),
            (["--family", "r-chain", "--n", "7", "--k", "3", "--r", "3"], "need 0 < r < k, got r=3"),
        ],
    )
    def test_missing_family_parameter(self, capsys, argv, detail):
        code, out, err = run(["generate", *argv], capsys)
        assert code == 2 and out == ""
        assert detail in err

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
        assert err.startswith(
            "error: C(46, 6) = 9366819 tuples on 46 nodes take 2135636940 bytes at 228 per edge"
        )

    @pytest.mark.parametrize(
        "argv, edges",
        [
            (["--family", "chain"], 99999998),
            (["--family", "ring"], 100000000),
            (["--family", "star"], 99999998),
            (["--family", "r-ring", "--r", "1"], 50000000),
        ],
        ids=["chain", "ring", "star", "r-ring"],
    )
    def test_edges_past_the_byte_cap_are_parameter_problem(self, capsys, monkeypatch, argv, edges):
        # 10^8 nodes would take tens of GB; refused before the node ints or
        # any edge are built
        def no_build(*args):
            raise AssertionError("nodes built")

        monkeypatch.setattr(hg, "list", no_build, raising=False)
        code, out, err = run(["generate", *argv, "--n", "100000000", "--k", "3"], capsys)
        assert code == 2 and out == ""
        need = edges * 204 + 48 * 100000000
        assert err == (
            f"error: {edges} edges on 100000000 nodes take {need} bytes at 204 per edge "
            "and 48 per node, past the 268435456 guard; use fewer nodes\n"
        )


class TestBench:
    @pytest.mark.parametrize(
        "text, detail", [("5:4", "empty range '5:4'"), ("5", "expected lo:hi, got '5'")]
    )
    def test_bad_n_range_is_usage_error(self, capsys, text, detail):
        with pytest.raises(SystemExit) as info:
            cli.main(["bench", "--family", "complete", "--k", "2", "--n-range", text])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert f"argument --n-range: {detail}" in err

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
        "argv, detail",
        [
            (["complete", "--k", "3", "--n-range", "2:3"], "need n >= k, got n=2, k=3"),
            (["complete", "--k", "1", "--n-range", "2:3"], "edge cardinality must be >= 2"),
            (["random", "--k", "3", "--n-range", "4:4", "--density", "2"], "density must lie"),
            (["random", "--k", "3", "--n-range", "4:4", "--density", "-0.1"], "density must lie"),
            (["complete", "--k", "6", "--n-range", "6:200"], "C(200, 6) = 82408626300 tuples"),
        ],
        ids=["n-below-k", "k-below-2", "density-above-1", "density-below-0", "tuple-cap"],
    )
    def test_parameter_error_writes_no_header(self, capsys, argv, detail):
        # refused at either end of the range before any row, or the header
        code, out, err = run(["bench", "--family", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and detail in err


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
    # A floating-point closure overshot the rank in k = 2 components of about
    # 170 nodes or more, so greedy stopped early: its witness of this graph
    # (value 28) has rank 196 of 200 over GF(p). The closure ranks over GF(p)
    # now, and the witness is full.
    def test_random_200_witness_is_full_over_gfp(self, tmp_path, capsys):
        argv = ["--family", "random", "--n", "200", "--k", "2", "--density", "0.01"]
        code, out, _ = run(["generate", *argv, "--seed", "4"], capsys)
        path = tmp_path / "g.json"
        path.write_text(out)
        cli.main(["mcn", str(path)])
        witness = json.loads(capsys.readouterr().out)["witness"]
        tensor = hg.adjacency_auto(hg.from_json_dict(json.loads(path.read_text())))
        assert modular_closure_rank(tensor, witness) == 200


class TestSingleLargeEdge:
    # one kernel row per (pattern, node) keeps a 12-node edge at 12 rows;
    # a row per order of each rest would take 12 * 11! and run for minutes
    def test_twelve_node_edge(self, tmp_path, capsys):
        path = write_graph(tmp_path, {"n": 12, "edges": [list(range(1, 13))]})
        controls = ",".join(map(str, range(1, 12)))
        code, out, _ = run(["check", path, "--controls", controls], capsys)
        doc = json.loads(out)
        assert code == 0
        assert (doc["rank"], doc["full"], doc["kind"]) == (12, True, "strong-controllability")
        code, out, _ = run(["mcn", path, "--method", "exact"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == mcn_predicted("complete", 12, 12) == 11
