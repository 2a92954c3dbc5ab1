"""One workload in one process: set up, time closed-loop passes, judge answers.

Run by ``run.py`` with BLAS pinned to one thread; not meant to be called by
hand. A pass is one ``hyperctrl.cli.main`` call per input of the suite, made
in-process with stdout captured, one call at a time. Answers are judged
after all timing is done. The last line of stdout is one JSON object.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                [--setup-only] [--tiny]
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# Failure messages kept in the result; the count is always complete.
_MAX_MESSAGES = 20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", dest="setup_only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def _setup(args):
    """Import the program, generate the inputs and write them to disk."""
    import hyperctrl.cli as cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: hyperctrl was imported from {cli.__file__}, not {src}")
    import workloads

    table = workloads.TINY_WORKLOADS if args.tiny else workloads.WORKLOADS
    workload = table[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    prepared = workloads.prepare(workload, args.seed, args.workdir)
    return cli, workload, prepared


def run_passes(cli, prepared, budget, min_passes, calls, tracer=None):
    """Closed loop with one caller: passes until the next one would overrun
    ``budget`` seconds (at least ``min_passes``). Returns pass wall times,
    per-input times and, when traced, the per-layer metrics of each pass.
    Each call is appended to ``calls`` as (input index, exit code, stdout,
    note) for judging later."""
    pass_times: list[float] = []
    per_input: list[list[float]] = [[] for _ in prepared]
    layers: list[dict] = []
    started = time.perf_counter()
    while len(pass_times) < min_passes or (
        time.perf_counter() - started + pass_times[-1] <= budget
    ):
        pass_start = time.perf_counter()
        for index, item in enumerate(prepared):
            if tracer is not None:
                tracer.request = (len(pass_times), index)
            out, err = io.StringIO(), io.StringIO()
            note = ""
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(list(item.argv))
                except SystemExit as exc:
                    rc, note = exc.code, "SystemExit"
                except Exception as exc:  # a crash is a counted failure
                    rc, note = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            per_input[index].append(t1 - t0)
            calls.append((index, rc, out.getvalue(), note or err.getvalue().strip()))
        pass_times.append(time.perf_counter() - pass_start)
        if tracer is not None:
            layers.append(tracer.end_pass())
    return pass_times, per_input, layers


def _judge(workload, prepared, calls):
    import workloads

    oracle = workloads.Oracle(workload, prepared)
    failed, messages = 0, []
    for index, rc, stdout, note in calls:
        problem = oracle.judge(index, rc, stdout)
        if problem is not None:
            failed += 1
            if len(messages) < _MAX_MESSAGES:
                messages.append(problem + (f" [{note}]" if note else ""))
    return failed, messages


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _blas_info(numpy):
    """BLAS identity and the thread count the loaded library reports."""
    import ctypes

    config = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"),
            "threads": None}
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def _environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_info(numpy),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _layer_summary(layers, spans):
    """Median of each timed metric over the traced passes; counts must repeat."""
    summary, mismatched = {}, []
    for name, unit in spans.LAYER_METRICS:
        values = [layer[name] for layer in layers]
        if name in spans.REPEATING_COUNTS and len(set(values)) > 1:
            mismatched.append(f"{name} differs between traced passes: {values}")
        value = values[0] if name in spans.REPEATING_COUNTS else statistics.median(values)
        summary[name] = {"value": value, "unit": unit}
    return summary, mismatched


def main(argv=None):
    args = _parse(argv)
    try:
        cli, workload, prepared = _setup(args)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import spans
        import workloads

        calls = []
        result = {"setup_s": setup_s, "inputs": workloads.inputs_digest(prepared)}
        untraced_wrappers = spans.installed_wrappers()
        budget = args.seconds if not args.trace else args.seconds / 2
        passes, per_input, _ = run_passes(cli, prepared, budget, 3 if not args.trace else 2, calls)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["passes"] = passes
        result["pass_quartiles"] = _quartiles(passes)
        result["op_s"] = {p.spec.name: statistics.median(t) for p, t in zip(prepared, per_input)}
        problems = []
        if untraced_wrappers:
            problems.append(f"untraced passes ran with wrappers installed: {untraced_wrappers}")
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _, layers = run_passes(cli, prepared, budget, 2, calls, tracer)
            finally:
                tracer.uninstall()
            left = spans.installed_wrappers()
            if left:
                problems.append(f"wrappers left after uninstall: {left}")
            summary, mismatched = _layer_summary(layers, spans)
            problems.extend(mismatched)
            result["layers"] = summary
            result["traced_passes"] = traced
            result["trace_overhead"] = statistics.median(traced) / statistics.median(passes)
            result["trace_missing"] = tracer.missing
        failed, messages = _judge(workload, prepared, calls)
        result.update(
            attempted=len(calls),
            failed=failed,
            messages=messages,
            problems=problems,
            untraced_wrappers=untraced_wrappers,
            environment=_environment(),
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
