"""Command-line interface.

Results go to stdout as key-sorted JSON (or CSV for trajectories and
benchmarks); diagnostics go to stderr. Exit codes: 0 success, 1 file or
parse problems, or an input too large for memory (the message names the
file), 2 parameter problems, 3 exhaustive-search guard exceeded.
The rank tolerance is a cutoff in [0, 1) on the singular values of the
unit-scaled residual that a new closure column leaves outside the span
already closed; the default is n * 1e-10 for n nodes. Its default can be set
through the HYPERCTRL_TOL environment variable; an explicit --tol wins.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import partial

import numpy as np

from . import hypergraph as hg
from .controllability import verdict
from .ingest import build_hypergraph, load_time_series_csv
from .mcn import ExactSearchGuardError, connected_components, mcn_exact, mcn_greedy
from .tensor import BlowupError, ControlMatrix, InputSchedule, simulate

TOL_ENV_VAR = "HYPERCTRL_TOL"

_FAMILIES = ("chain", "ring", "star", "complete", "r-chain", "r-ring", "r-star", "random")


def _resolve_tol(args) -> float | None:
    if getattr(args, "tol", None) is not None:
        tol, source = args.tol, "--tol"
    else:
        raw = os.environ.get(TOL_ENV_VAR)
        if raw is None:
            return None
        try:
            tol, source = float(raw), TOL_ENV_VAR
        except ValueError:
            raise ValueError(f"{TOL_ENV_VAR}={raw!r} is not a number") from None
    # The library rejects the same values; checking here names the flag or the
    # variable. A unit residual never exceeds 1, so a cutoff of 1 or more can
    # drop the unit control columns themselves.
    if not 0 <= tol < 1:
        raise ValueError(f"{source} must lie in [0, 1), got {tol!r}")
    return tol


def _emit_json(payload: dict):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _digest(graph: hg.Hypergraph) -> str:
    doc = hg.to_json_dict(graph)
    doc["edges"] = sorted(doc["edges"])
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _load_graph(path: str) -> hg.Hypergraph:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _FileError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise _FileError(f"{path}: invalid JSON: {exc}") from None
    try:
        return hg.from_json_dict(doc)
    except ValueError as exc:
        raise _FileError(f"{path}: {exc}") from None


class _FileError(Exception):
    pass


def _parse_nodes(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated node list, got {text!r}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    family = args.family
    if family == "random":
        if args.density is None or args.seed is None:
            raise ValueError("--density and --seed are required for the random family")
        graph = hg.random_uniform(args.n, args.k, args.density, args.seed)
    elif family == "complete":
        graph = hg.complete(args.n, args.k)
    else:
        r = args.r
        if family.startswith("r-"):
            if r is None:
                raise ValueError(f"--r is required for family {family}")
        else:
            # a plain family reports k < 2 as such, not as an r out of range
            hg._check_nk(args.n, args.k)
            r = args.k - 1
        graph = hg.overlap_variant(args.n, args.k, r, family.removeprefix("r-"))
    _emit_json(hg.to_json_dict(graph))
    return 0


def _solve_by_component(graph: hg.Hypergraph, solve) -> dict:
    """Solve each connected component of the graph's one tensor and add up
    the minima.

    Every component is the whole tensor restricted to its nodes, so it keeps
    the graph's order k. Witnesses and rank traces are mapped back to the
    graph's labels; the total is None when some component has no
    controlling set.
    """
    per_component = []
    total: int | None = 0
    witness: list[int] = []
    for comp in connected_components(hg.adjacency_auto(graph)):
        result = solve(comp.tensor)
        mapped_witness = sorted(comp.nodes[j - 1] for j in result.witness)
        entry = {
            "nodes": list(comp.nodes),
            "value": result.value,
            "witness": mapped_witness,
        }
        if result.rank_trace is not None:
            entry["rank_trace"] = [
                [comp.nodes[j - 1], rank] for j, rank in result.rank_trace
            ]
        per_component.append(entry)
        if result.value is None:
            total = None
        elif total is not None:
            total += result.value
        witness.extend(mapped_witness)
    return {"value": total, "witness": sorted(witness), "components": per_component}


def cmd_mcn(args) -> int:
    tol = _resolve_tol(args)
    graph = _load_graph(args.hypergraph)
    started = time.perf_counter()
    if args.method == "exact":
        solve = partial(mcn_exact, tol=tol, guard=args.guard)
    else:
        solve = partial(mcn_greedy, tol=tol, tie_break=args.tie_break, seed=args.seed)
    solved = _solve_by_component(graph, solve)
    elapsed = time.perf_counter() - started
    payload = {"method": args.method, **solved, "n": graph.n}
    if args.report:
        payload = _report("mcn", args, tol, graph, payload, {"compute_s": elapsed})
    _emit_json(payload)
    return 0


def cmd_check(args) -> int:
    tol = _resolve_tol(args)
    graph = _load_graph(args.hypergraph)
    controls = ControlMatrix(nodes=_parse_nodes(args.controls))
    tensor = hg.adjacency_auto(graph)
    started = time.perf_counter()
    result = verdict(tensor, controls, tol=tol)
    elapsed = time.perf_counter() - started
    payload = {
        "rank": result.rank,
        "full": result.full,
        "kind": result.kind.value,
        "n": graph.n,
        "controls": list(controls.nodes),
    }
    if args.report:
        payload = _report("check", args, tol, graph, payload, {"compute_s": elapsed})
    _emit_json(payload)
    return 0


def cmd_ingest(args) -> int:
    try:
        series = load_time_series_csv(args.csv, has_header=args.has_header)
    except OSError as exc:
        raise _FileError(f"{args.csv}: {exc.strerror or exc}") from None
    except ValueError as exc:
        # load errors already name the file and, where there is one, the line
        raise _FileError(str(exc)) from None
    graph = build_hypergraph(series, args.order, args.threshold)
    _emit_json(hg.to_json_dict(graph))
    return 0


def cmd_simulate(args) -> int:
    graph = _load_graph(args.hypergraph)
    tensor = hg.adjacency_auto(graph)
    x0 = np.array([float(tok) for tok in args.x0.split(",")])
    controls = ControlMatrix(nodes=_parse_nodes(args.controls))
    schedule = None
    if args.input_schedule_file:
        schedule = _load_schedule(args.input_schedule_file, controls.m)
    trajectory = simulate(
        tensor, controls, x0, schedule=schedule, T=args.T, dt=args.dt
    )
    writer = sys.stdout
    writer.write("t," + ",".join(f"x{j}" for j in range(1, graph.n + 1)) + "\n")
    for t, state in trajectory:
        writer.write(f"{t:.12g}," + ",".join(f"{v:.12g}" for v in state) + "\n")
    return 0


def _load_schedule(path: str, m: int) -> InputSchedule:
    try:
        with open(path) as fh:
            rows = [
                (lineno, line.strip().split(","))
                for lineno, line in enumerate(fh, start=1)
                if line.strip()
            ]
    except OSError as exc:
        raise _FileError(f"{path}: {exc.strerror or exc}") from None
    times = []
    values = []
    for lineno, row in rows:
        if len(row) != m + 1:
            raise _FileError(
                f"{path}: line {lineno}: {len(row)} fields, expected {m + 1} "
                "(time plus one column per control channel)"
            )
        try:
            times.append(float(row[0]))
            values.append([float(tok) for tok in row[1:]])
        except ValueError as exc:
            raise _FileError(f"{path}: line {lineno}: {exc}") from None
    try:
        return InputSchedule(tuple(times), np.array(values))
    except ValueError as exc:
        raise _FileError(f"{path}: {exc}") from None


def cmd_bench(args) -> int:
    n_lo, n_hi = args.n_range
    seeds = [int(tok) for tok in args.seeds.split(",")] if args.seeds else [0]
    rows = run_benchmark(
        family=args.family,
        k=args.k,
        n_values=range(n_lo, n_hi + 1),
        seeds=seeds,
        density=args.density,
        tol=_resolve_tol(args),
        guard=args.guard,
    )
    print("family,n,k,seed,exact_value,greedy_value,agree,exact_time_s,greedy_time_s")
    for row in rows:
        print(
            f"{row['family']},{row['n']},{row['k']},{row['seed']},"
            f"{row['exact_value']},{row['greedy_value']},{row['agree']},"
            f"{row['exact_time_s']:.6f},{row['greedy_time_s']:.6f}"
        )
    return 0


def run_benchmark(family, k, n_values, seeds, density=0.5, tol=None, guard=20):
    """Exact-versus-greedy comparison rows, both solved per connected
    component as ``mcn`` does; importable for tests."""
    rows = []
    for n in n_values:
        for seed in seeds:
            if family == "random":
                graph = hg.random_uniform(n, k, density, seed)
            elif family == "complete":
                graph = hg.complete(n, k)
            else:
                raise ValueError(f"bench family must be random or complete, got {family!r}")
            t0 = time.perf_counter()
            exact = _solve_by_component(graph, partial(mcn_exact, tol=tol, guard=guard))["value"]
            t1 = time.perf_counter()
            greedy = _solve_by_component(graph, partial(mcn_greedy, tol=tol))["value"]
            t2 = time.perf_counter()
            rows.append(
                {
                    "family": family,
                    "n": n,
                    "k": k,
                    "seed": seed,
                    "exact_value": exact,
                    "greedy_value": greedy,
                    "agree": exact == greedy,
                    "exact_time_s": t1 - t0,
                    "greedy_time_s": t2 - t1,
                }
            )
    return rows


def _report(command, args, tol, graph, result, timings) -> dict:
    # the resolved tolerance, so a value taken from HYPERCTRL_TOL is recorded
    parameters = {"tol": tol}
    for key in ("method", "tie_break", "seed", "guard", "controls"):
        if hasattr(args, key):
            parameters[key] = getattr(args, key)
    return {
        "command": command,
        "digest": _digest(graph),
        "parameters": parameters,
        "result": result,
        "timings": timings,
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperctrl",
        description="Hypergraph controllability analysis and control-node search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a named hypergraph family as JSON")
    gen.add_argument("--family", required=True, choices=_FAMILIES)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--r", type=int, help="overlap size for the r- families")
    gen.add_argument("--density", type=float, help="edge probability (random family)")
    gen.add_argument("--seed", type=int, help="seed (random family; required)")
    gen.set_defaults(func=cmd_generate)

    mcn_p = sub.add_parser("mcn", help="minimum control nodes of a hypergraph file")
    mcn_p.add_argument("hypergraph", help="hypergraph JSON file")
    mcn_p.add_argument("--method", choices=("exact", "greedy"), default="greedy")
    mcn_p.add_argument("--tol", type=float)
    mcn_p.add_argument("--tie-break", dest="tie_break",
                       choices=("degree", "index", "random"), default="degree")
    mcn_p.add_argument("--seed", type=int, help="seed for --tie-break random")
    mcn_p.add_argument("--guard", type=int, default=20,
                       help="node-count cap for the exact search")
    mcn_p.add_argument("--report", action="store_true",
                       help="wrap the result in a run report with digest and timings")
    mcn_p.set_defaults(func=cmd_mcn)

    check = sub.add_parser("check", help="controllability verdict for a control set")
    check.add_argument("hypergraph", help="hypergraph JSON file")
    check.add_argument("--controls", default="", help="comma-separated node list")
    check.add_argument("--tol", type=float)
    check.add_argument("--report", action="store_true")
    check.set_defaults(func=cmd_check)

    ing = sub.add_parser("ingest", help="build a hypergraph from a time-series CSV")
    ing.add_argument("csv", help="channels-by-samples CSV file")
    ing.add_argument("--order", type=int, required=True, help="hyperedge cardinality k")
    ing.add_argument("--threshold", type=float, required=True)
    ing.add_argument("--has-header", dest="has_header", action="store_true",
                     help="first CSV row lists channel labels")
    ing.set_defaults(func=cmd_ingest)

    sim = sub.add_parser("simulate", help="integrate the controlled dynamics")
    sim.add_argument("hypergraph", help="hypergraph JSON file")
    sim.add_argument("--x0", required=True, help="comma-separated initial state")
    sim.add_argument("--controls", default="", help="comma-separated control nodes")
    sim.add_argument("--input-schedule-file", dest="input_schedule_file",
                     help="CSV of breakpoints: time,u1,...,um")
    sim.add_argument("--T", type=float, default=1.0)
    sim.add_argument("--dt", type=float, default=1e-3)
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("bench", help="exact-versus-greedy timing table (CSV)")
    bench.add_argument("--family", choices=("random", "complete"), required=True)
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--n-range", dest="n_range", type=_parse_range, required=True,
                       help="inclusive range lo:hi")
    bench.add_argument("--seeds", default="", help="comma-separated seeds")
    bench.add_argument("--density", type=float, default=0.5)
    bench.add_argument("--tol", type=float)
    bench.add_argument("--guard", type=int, default=20)
    bench.set_defaults(func=cmd_bench)

    return parser


def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return (lo, hi)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExactSearchGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's _ArrayMemoryError is a MemoryError too
        path = getattr(args, "hypergraph", None) or getattr(args, "csv", None)
        where = f"{path}: " if path else ""
        detail = str(exc) or "allocation failed"
        print(f"error: {where}input too large for memory: {detail}", file=sys.stderr)
        return 1
    except BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
