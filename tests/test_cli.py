"""Command-line interface: output shape and the exit-code contract.

Exit codes: 0 success, 1 file or parse problems, 2 parameter problems,
3 exhaustive-search guard exceeded. Every case runs ``cli.main`` in-process.
"""
from __future__ import annotations

import json

import pytest

from hyperctrl import cli


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
