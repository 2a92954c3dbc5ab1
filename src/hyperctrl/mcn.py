"""Minimum control node search: exhaustive oracle, greedy heuristic,
closed-form predictions for the named families, and connected components.
"""
from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .controllability import closure_basis
from .hypergraph import Hypergraph, _splitmix64, _tiles, degrees
from .tensor import AdjacencyTensor, ControlMatrix


class ExactSearchGuardError(ValueError):
    """Exhaustive search refused because the node count exceeds the guard."""


@dataclass(frozen=True)
class MCNResult:
    """Outcome of a minimum-control-node computation.

    ``value`` is the control-node count (None marks the uncontrollable
    case), ``witness`` one achieving node set. Greedy results carry a
    ``rank_trace`` of (node added, rank after) pairs; the exact search can
    optionally enumerate every minimum witness.
    """

    value: int | None
    witness: tuple
    method: str
    rank_trace: tuple | None = None
    all_witnesses: tuple | None = None


class Component(NamedTuple):
    """A connected piece: original node labels plus the relabeled subgraph."""

    nodes: tuple
    hypergraph: Hypergraph


def _union_find_components(n: int, supports) -> list[tuple]:
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for nodes in supports:
        nodes = sorted(set(nodes))
        for other in nodes[1:]:
            ra, rb = find(nodes[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    groups: dict = {}
    for j in range(1, n + 1):
        groups.setdefault(find(j), []).append(j)
    return sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])


def connected_components(graph: Hypergraph) -> list[Component]:
    """Partition by hyperedge reachability; isolated nodes become singletons."""
    groups = _union_find_components(graph.n, graph.edges)
    components = []
    for nodes in groups:
        relabel = {j: i + 1 for i, j in enumerate(nodes)}
        member = set(nodes)
        sub_edges = []
        sub_weights = []
        for idx, edge in enumerate(graph.edges):
            if edge[0] in member:
                sub_edges.append(tuple(relabel[j] for j in edge))
                sub_weights.append(graph.edge_weight(idx))
        sub = Hypergraph(
            n=len(nodes),
            edges=tuple(sub_edges),
            weights=tuple(sub_weights) if graph.weights is not None else None,
        )
        components.append(Component(nodes=nodes, hypergraph=sub))
    return components


def _tensor_component_ids(tensor: AdjacencyTensor) -> np.ndarray:
    """Component id per node (1-based positions 1..n at indices 0..n-1)."""
    groups = _union_find_components(tensor.dim, tensor.entries.keys())
    ids = np.zeros(tensor.dim, dtype=np.intp)
    for cid, nodes in enumerate(groups):
        for j in nodes:
            ids[j - 1] = cid
    return ids


def mcn_exact(
    tensor: AdjacencyTensor,
    tol: float | None = None,
    guard: int = 20,
    all_witnesses: bool = False,
) -> MCNResult:
    """Smallest control set by exhaustive search.

    Subset sizes are tried in increasing order and, within a size, subsets in
    lexicographic order; the first full-rank subset wins. Subsets that leave
    some connected component uncontrolled are skipped (such a component's
    coordinates can never enter the span). With ``all_witnesses`` the pass
    over the minimum size runs to its end and collects every full-rank
    subset.

    Raises:
        ExactSearchGuardError: n exceeds ``guard``; use the greedy search.
    """
    n = tensor.dim
    if n > guard:
        raise ExactSearchGuardError(
            f"exhaustive search over {n} nodes exceeds the guard of {guard}; "
            "raise the guard explicitly or use mcn_greedy"
        )
    comp_ids = _tensor_component_ids(tensor)
    n_comps = int(comp_ids.max()) + 1 if n else 0
    all_ids = frozenset(range(n_comps))
    for m in range(1, n + 1):
        if m < n_comps:
            continue
        found = []
        for subset in itertools.combinations(range(1, n + 1), m):
            if {comp_ids[j - 1] for j in subset} != all_ids:
                continue
            if closure_basis(tensor, ControlMatrix(subset).matrix(n), tol=tol).rank == n:
                found.append(subset)
                if not all_witnesses:
                    break
        if found:
            return MCNResult(
                value=m,
                witness=found[0],
                method="exact",
                all_witnesses=tuple(found) if all_witnesses else None,
            )
    return MCNResult(value=None, witness=(), method="exact")


def mcn_greedy(
    tensor: AdjacencyTensor,
    tol: float | None = None,
    tie_break: str = "degree",
    seed: int | None = None,
    threads: int = 1,
) -> MCNResult:
    """Greedy control-node selection by maximum rank gain.

    Starting from the empty set, each step adds the node whose attachment
    raises the controllability rank the most. The rank for a candidate is
    computed by warm-starting the subspace iteration from the current basis
    plus the candidate's unit column, which yields the same subspace as a
    cold start. Ties on the gain are broken by highest degree then lowest
    index (``degree``), lowest index alone (``index``), or a seeded uniform
    pick (``random``, requires ``seed``).

    Raises:
        ValueError: no candidate raises the rank at the given tolerance.
    """
    if tie_break not in ("degree", "index", "random"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if tie_break == "random" and seed is None:
        raise ValueError("tie_break='random' requires an explicit seed")
    n = tensor.dim
    node_degrees = degrees(tensor)
    basis = np.zeros((n, 0))
    rank = 0
    chosen: list[int] = []
    trace: list[tuple] = []
    step = 0
    while rank < n:
        remaining = [j for j in range(1, n + 1) if j not in chosen]

        def eval_candidate(j: int):
            start = np.hstack([basis, ControlMatrix((j,)).matrix(n)])
            return closure_basis(tensor, start, tol=tol)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(eval_candidate, remaining))
        else:
            results = [eval_candidate(j) for j in remaining]
        gains = [res.rank - rank for res in results]
        best_gain = max(gains)
        if best_gain < 1:
            # a large tolerance can cut off the new direction of every candidate
            raise ValueError(
                f"no candidate raises the rank above {rank} of {n} at rank "
                f"tolerance {tol!r}; use a smaller tolerance"
            )
        tied = [pos for pos, g in enumerate(gains) if g == best_gain]
        if tie_break == "random":
            pick = tied[_splitmix64(seed, step) % len(tied)]
        elif tie_break == "degree":
            pick = max(tied, key=lambda pos: (node_degrees[remaining[pos] - 1], -remaining[pos]))
        else:
            pick = tied[0]
        node = remaining[pick]
        basis = results[pick].basis
        rank = results[pick].rank
        chosen.append(node)
        trace.append((node, rank))
        step += 1
    return MCNResult(
        value=len(chosen),
        witness=tuple(chosen),
        method="greedy",
        rank_trace=tuple(trace),
    )


# Observed minimum counts for the overlap variants at tiling n, keyed by
# (k, r, family); None where no count was observed.
def _variant_table(k: int, r: int, family: str, n: int) -> int | None:
    if (k, r) == (4, 1):
        return 2 * n // 3 if family == "ring" else (2 * n + 1) // 3
    if (k, r) == (4, 2):
        return (n + 2) // 2
    if (k, r) == (3, 1):
        return n // 2 if family == "ring" else (n + 1) // 2
    return None


def mcn_predicted(family: str, n: int, k: int, r: int | None = None) -> int | None:
    """Closed-form minimum control count for a named family, or None.

    Plain families: chain k-1, ring k-1 (n > k+1, k >= 3), star n-2 (n > k),
    complete n-1. Overlap variants follow the observed table for k in {3, 4}
    at tiling sizes only; nothing is extrapolated beyond the stated ranges,
    and r = k-1 falls back to the plain family.
    """
    if k < 2 or n < k:
        return None
    if family in ("r-chain", "r-ring", "r-star"):
        if r is None or not 0 < r < k:
            return None
        base = family[2:]
        if r == k - 1:
            return mcn_predicted(base, n, k)
        if not _tiles(n, k, r, base) or (base == "star" and n <= k):
            return None
        return _variant_table(k, r, base, n)
    if family == "chain":
        return k - 1
    if family == "ring":
        if k < 3 or n <= k + 1:
            return None
        return k - 1
    if family == "star":
        if n <= k:
            return None
        return n - 2
    if family == "complete":
        return n - 1
    return None
