"""Command-line interface.

Results go to stdout as key-sorted JSON (or CSV for benchmarks);
diagnostics go to stderr. Exit codes: 0 success, 1 file or parse problems,
or an input too large for memory (the message names the file), 2 parameter
problems, 3 exhaustive-search guard exceeded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial

from . import hypergraph as hg
from .controllability import verdict
from .ingest import build_hypergraph, load_time_series_csv
from .mcn import ExactSearchGuardError, connected_components, mcn_exact, mcn_greedy
from .tensor import ControlMatrix

_FAMILIES = ("chain", "ring", "star", "complete", "r-chain", "r-ring", "r-star", "random")


def _emit_json(payload: dict):
    # streamed, so that no command holds the whole indented text
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _digest(graph: hg.Hypergraph) -> str:
    doc = hg.to_json_dict(graph)
    if "weights" in doc:
        # a weight stays with its edge
        pairs = sorted(zip(doc["edges"], doc["weights"]))
        doc["edges"], doc["weights"] = [e for e, _ in pairs], [w for _, w in pairs]
    else:
        doc["edges"] = sorted(doc["edges"])
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _load_graph(path: str, columns: int = 2) -> hg.Hypergraph:
    """The file's hypergraph; refused as too large for memory when numpy
    cannot describe an (n, columns) int64 array, as a closure step needs."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _FileError(f"{path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # bad bytes, syntax or nesting
        raise _FileError(f"{path}: invalid JSON: {exc}") from None
    try:
        graph = hg.from_json_dict(doc)
    except ValueError as exc:
        raise _FileError(f"{path}: {exc}") from None
    if graph.n * columns > sys.maxsize // 8:
        raise MemoryError(f"{graph.n} rows by {columns} columns are past numpy's index range")
    return graph


class _FileError(Exception):
    pass


def _parse_nodes(text: str, flag: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(
            f"{flag}: expected a comma-separated integer list, got {text!r}"
        ) from None


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
        r = args.r if family.startswith("r-") else args.k - 1
        if r is None:
            raise ValueError(f"--r is required for family {family}")
        graph = hg.overlap_variant(args.n, args.k, r, family.removeprefix("r-"))
    _emit_json(hg.to_json_dict(graph))
    return 0


def _solve_by_component(graph: hg.Hypergraph, solve, counts: bool = False) -> dict:
    """Solve each connected component of the graph's one tensor and add up
    the minima.

    Every component is the whole tensor restricted to its nodes, so it keeps
    the graph's order k. Witnesses and rank traces are mapped back to the
    graph's labels. With ``counts`` each component also records its search:
    the closures run, what each prune skipped, the prime of its ranks, its
    lower bound, and whether the value meets it (``optimal``).
    """
    per_component = []
    total = 0
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
        if counts:
            entry["search"] = {
                "closures": result.closures,
                "skipped": result.skipped,
                "prime": comp.tensor.kernel().prime,
                "lower_bound": result.lower_bound,
                "optimal": result.value == result.lower_bound,
            }
        per_component.append(entry)
        total += result.value
        witness.extend(mapped_witness)
    return {"value": total, "witness": sorted(witness), "components": per_component}


def cmd_mcn(args) -> int:
    started = time.perf_counter()
    graph = _load_graph(args.hypergraph)
    loaded = time.perf_counter()
    if args.method == "exact":
        solve = partial(mcn_exact, guard=args.guard)
    else:
        # greedy reads no parameter
        solve = partial(mcn_greedy)
    solved = _solve_by_component(graph, solve, counts=args.report)
    timings = {"load_s": loaded - started, "compute_s": time.perf_counter() - loaded}
    payload = {"method": args.method, **solved, "n": graph.n}
    if args.report:
        parameters = {"method": args.method, **solve.keywords}
        payload = _report("mcn", parameters, graph, payload, timings)
    _emit_json(payload)
    return 0


def cmd_check(args) -> int:
    started = time.perf_counter()
    controls = ControlMatrix(nodes=_parse_nodes(args.controls, "--controls"))
    # the closure starts from one column per control node
    graph = _load_graph(args.hypergraph, columns=max(2, len(controls.nodes)))
    loaded = time.perf_counter()
    tensor = hg.adjacency_auto(graph)
    result = verdict(tensor, controls)
    timings = {"load_s": loaded - started, "compute_s": time.perf_counter() - loaded}
    payload = {
        "rank": result.rank,
        "full": result.full,
        "kind": result.kind.value,
        "n": graph.n,
        "controls": list(controls.nodes),
    }
    if args.report:
        parameters = {"controls": list(controls.nodes), "prime": tensor.kernel().prime}
        payload = _report("check", parameters, graph, payload, timings)
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


def cmd_bench(args) -> int:
    """Exact-versus-greedy CSV rows, both solved per component as ``mcn`` does."""
    n_lo, n_hi = args.n_range
    seeds = list(_parse_nodes(args.seeds, "--seeds")) or [0]
    for n in (n_lo, n_hi):
        # what the generators would refuse at either end, before the header
        hg._check_subsets(n, args.k, args.density if args.family == "random" else 1.0)
    exact_solve = partial(mcn_exact, guard=args.guard)
    print("family,n,k,seed,exact_value,greedy_value,agree,exact_time_s,greedy_time_s")
    for n in range(n_lo, n_hi + 1):
        for seed in seeds:
            if args.family == "random":
                graph = hg.random_uniform(n, args.k, args.density, seed)
            else:
                graph = hg.complete(n, args.k)
            t0 = time.perf_counter()
            exact = _solve_by_component(graph, exact_solve)["value"]
            t1 = time.perf_counter()
            greedy = _solve_by_component(graph, mcn_greedy)["value"]
            t2 = time.perf_counter()
            print(
                f"{args.family},{n},{args.k},{seed},{exact},{greedy},{exact == greedy},"
                f"{t1 - t0:.6f},{t2 - t1:.6f}"
            )
    return 0


def _report(command, parameters, graph, result, timings) -> dict:
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
        allow_abbrev=False,
        description="Hypergraph controllability analysis and control-node search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix of a flag is taken for it, so a removed flag cannot come back
    add = partial(sub.add_parser, allow_abbrev=False)

    gen = add("generate", help="emit a named hypergraph family as JSON")
    gen.add_argument("--family", required=True, choices=_FAMILIES)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--r", type=int, help="overlap size for the r- families")
    gen.add_argument("--density", type=float, help="edge probability (random family)")
    gen.add_argument("--seed", type=int, help="seed (random family; required)")
    gen.set_defaults(func=cmd_generate)

    mcn_p = add("mcn", help="minimum control nodes of a hypergraph file")
    mcn_p.add_argument("hypergraph", help="hypergraph JSON file")
    mcn_p.add_argument("--method", choices=("exact", "greedy"), default="greedy")
    mcn_p.add_argument("--guard", type=int, default=20,
                       help="node-count cap for the exact search")
    mcn_p.add_argument("--report", action="store_true",
                       help="wrap the result in a run report with digest and "
                       "timings; each component also records its search counts")
    mcn_p.set_defaults(func=cmd_mcn)

    check = add("check", help="controllability verdict for a control set")
    check.add_argument("hypergraph", help="hypergraph JSON file")
    check.add_argument("--controls", default="", help="comma-separated node list")
    check.add_argument("--report", action="store_true")
    check.set_defaults(func=cmd_check)

    ing = add("ingest", help="build a hypergraph from a time-series CSV")
    ing.add_argument("csv", help="channels-by-samples CSV file")
    ing.add_argument("--order", type=int, required=True, help="hyperedge cardinality k")
    ing.add_argument("--threshold", type=float, required=True)
    ing.add_argument("--has-header", dest="has_header", action="store_true",
                     help="first CSV row lists channel labels")
    ing.set_defaults(func=cmd_ingest)

    bench = add("bench", help="exact-versus-greedy timing table (CSV)")
    bench.add_argument("--family", choices=("random", "complete"), required=True)
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--n-range", dest="n_range", type=_parse_range, required=True,
                       help="inclusive range lo:hi")
    bench.add_argument("--seeds", default="", help="comma-separated seeds")
    bench.add_argument("--density", type=float, default=0.5)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
