"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hyperctrl  # noqa: E402
import hyperctrl.cli as cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

E2E = {"setup_s", "pass_s", "peak_rss_mb"}


def _program_graph(spec):
    if spec.family == "random":
        return hyperctrl.random_uniform(spec.n, spec.k, spec.density, spec.graph_seed)
    if spec.family == "r-ring":
        return hyperctrl.overlap_variant(spec.n, spec.k, spec.r, "ring")
    maker = {"chain": hyperctrl.hyperchain, "ring": hyperctrl.hyperring,
             "star": hyperctrl.hyperstar}[spec.family]
    return maker(spec.n, spec.k)


def _graph_specs():
    return [spec for table in (workloads.WORKLOADS, workloads.TINY_WORKLOADS)
            for wl in table.values() for spec in wl.inputs
            if isinstance(spec, workloads.GraphInput)]


@pytest.mark.parametrize("spec", _graph_specs(), ids=lambda s: s.name)
def test_generated_graphs_match_the_program_families(spec):
    assert set(workloads.family_edges(spec)) == set(_program_graph(spec).edges)


def test_pinned_mcn_values_are_the_closed_forms():
    assert workloads.closed_form_check(workloads.WORKLOADS) == []
    assert workloads.closed_form_check(workloads.TINY_WORKLOADS) == []


def test_benchmark_json_names_what_the_harness_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == E2E
    expected = [name for name, _ in spans.LAYER_METRICS]
    expected += [f"op_s.{name}" for name in workloads.all_input_names()]
    expected.append("trace_overhead")
    assert [m["name"] for m in spec["per_layer"]] == expected


def test_seed_fixes_the_inputs(tmp_path):
    wl = workloads.TINY_WORKLOADS["check"]
    digests = []
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        os.makedirs(tmp_path / tag)
        digests.append([p.digest for p in workloads.prepare(wl, seed, str(tmp_path / tag))])
    assert digests[0] == digests[1] != digests[2]


def test_tracer_wraps_every_boundary_and_leaves_nothing_behind():
    tracer = spans.Tracer()
    assert spans.installed_wrappers() == []
    tracer.install()
    try:
        assert tracer.missing == []
        wrapped = spans.installed_wrappers()
        for needle in ("hyperctrl.cli.main", "hyperctrl.mcn.closure_basis",
                       "hyperctrl.controllability.closure_basis", "numpy.linalg.svd",
                       "hyperctrl.tensor.AdjacencyTensor.kernel",
                       "hyperctrl.ingest.multi_correlation"):
            assert needle in wrapped
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []


def test_planted_wrong_answer_counts_as_failure(tmp_path):
    wl = workloads.TINY_WORKLOADS["check"]
    wrong = dataclasses.replace(wl.inputs[0], expect=wl.inputs[0].expect - 1)
    wl = dataclasses.replace(wl, inputs=(wrong,) + wl.inputs[1:])
    prepared = workloads.prepare(wl, 1, str(tmp_path))
    calls = []
    worker.run_passes(cli, prepared, 0.0, 2, calls)
    failed, messages = worker._judge(wl, prepared, calls)
    assert len(calls) == 2 * len(prepared)
    assert failed == 2
    assert all(wrong.name in m for m in messages)


def test_a_failed_answer_makes_the_command_fail(monkeypatch, capsys):
    def fake_spawn(args, workload, root, deadline, setup_only=False, tag=0):
        if setup_only:
            return {"setup_s": 0.1}
        return {"setup_s": 0.1, "attempted": 4, "failed": 1, "messages": ["planted"],
                "problems": [], "passes": [1.0, 1.0], "pass_quartiles": [1.0, 1.0, 1.0],
                "peak_rss_mb": 10.0}

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "check", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--tiny"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 4


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_command_on_tiny_inputs(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    if trace == 0:
        expected = E2E
    else:
        expected = {name for name, _ in spans.LAYER_METRICS}
        expected |= {f"op_s.{n}" for n in workloads.all_input_names(workloads.TINY_WORKLOADS)}
        expected.add("trace_overhead")
    assert set(last["metrics"]) == expected
    for metric in last["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    record_path = os.path.join(ROOT, run.OUT_DIR, f"{workload}-seed2-trace{trace}-tiny.json")
    with open(record_path) as fh:
        record = json.load(fh)
    env = record["environment"]
    assert env["blas"]["threads"] in (1, None) and env["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["untraced_wrappers"] == [] and record["problems"] == []
    assert all(len(item["sha256"]) == 64 for item in record["inputs"])


def test_command_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "greedy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
