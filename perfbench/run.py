"""hyperctrl benchmark: time the CLI on fixed workloads and judge every answer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload greedy --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. Each workload runs in its
own worker process with BLAS pinned to one thread. ``--trace 0`` reports the
end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mb``); ``--trace 1``
runs untraced passes, then traced passes, and reports the per-layer
metrics. One row per workload goes to stdout, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with input digests and the environment, is written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``. The exit code is
0 only when every answer was right.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_SAMPLES = 9
# Every workload of one invocation must end within this many seconds.
DEADLINE_S = 170.0
_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run the same workloads on tiny inputs (harness self-test)")
    return p.parse_args(argv)


def _worker_env(root):
    env = {k: v for k, v in os.environ.items() if k != "HYPERCTRL_TOL"}
    env.update(_BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, workload, root, deadline, setup_only=False, tag=0):
    workdir = os.path.join(root, OUT_DIR, "work", f"{workload}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=root, env=_worker_env(root), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest(root):
    """sha256 over the program's Python sources, to name the code without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_workload(args, workload, root):
    """Run one workload; returns (record, metrics, printable rows, correct)."""
    deadline = time.monotonic() + DEADLINE_S
    setup_samples = []
    if not args.trace:
        for tag in range(1, SETUP_SAMPLES):
            setup_samples.append(_spawn(args, workload, root, deadline, True, tag)["setup_s"])
    res = _spawn(args, workload, root, deadline)
    setup_samples.append(res["setup_s"])
    attempted, failed = res["attempted"], res["failed"]
    error_rate = failed / attempted
    q1, pass_s, q3 = res["pass_quartiles"]
    lines = []
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        lines.append(
            f"{workload:<7} setup_s={metrics['setup_s']['value']:.4f} s"
            f"  pass_s={pass_s:.4f} s (n={len(res['passes'])}, q1={q1:.4f}, q3={q3:.4f})"
            f"  peak_rss_mb={res['peak_rss_mb']:.1f} MB"
            f"  error_rate={error_rate:.4g} ratio ({failed}/{attempted})"
        )
    else:
        metrics = dict(res["layers"])
        table = workloads.TINY_WORKLOADS if args.tiny else workloads.WORKLOADS
        for name in workloads.all_input_names(table):
            metrics[f"op_s.{name}"] = {"value": res["op_s"].get(name, 0.0), "unit": "s"}
        metrics["trace_overhead"] = {"value": res["trace_overhead"], "unit": "ratio"}
        lines.append(
            f"{workload:<7} traced: untraced pass_s={pass_s:.4f} s (n={len(res['passes'])})"
            f"  traced pass_s={statistics.median(res['traced_passes']):.4f} s"
            f" (n={len(res['traced_passes'])})"
            f"  error_rate={error_rate:.4g} ratio ({failed}/{attempted})"
        )
        lines.extend(f"  {name:<34} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "setup_samples": setup_samples,
        "error_rate": error_rate,
        "metrics": metrics,
        **res,
    }
    correct = failed == 0 and not res["problems"]
    return record, metrics, lines, correct


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyperctrl", "cli.py")):
        print("error: run from the root of a hyperctrl checkout (src/hyperctrl missing)",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    all_correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        try:
            record, wl_metrics, lines, correct = run_workload(args, workload, root)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        suffix = "-tiny" if args.tiny else ""
        path = os.path.join(root, OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}{suffix}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        for line in lines:
            print(line)
        for problem in record["problems"] + record["messages"]:
            print(f"{workload}: {problem}", file=sys.stderr)
        for name in record.get("trace_missing", []):
            print(f"{workload}: warning: {name} not found; its layer reads 0", file=sys.stderr)
        all_correct &= correct
        attempted += record["attempted"]
        failed += record["failed"]
        if len(names) == 1:
            metrics = wl_metrics
        else:
            metrics.update({f"{workload}.{k}": v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": all_correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
