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
from .hypergraph import Hypergraph, _splitmix64, degrees
from .tensor import AdjacencyTensor


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


def _rank_of_nodes(tensor: AdjacencyTensor, nodes, tol) -> int:
    mat = np.zeros((tensor.dim, len(nodes)))
    for col, j in enumerate(nodes):
        mat[j - 1, col] = 1.0
    return closure_basis(tensor, mat, tol=tol).rank


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
            if _rank_of_nodes(tensor, subset, tol) == n:
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
            col = np.zeros((n, 1))
            col[j - 1, 0] = 1.0
            return closure_basis(tensor, np.hstack([basis, col]), tol=tol)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(eval_candidate, remaining))
        else:
            results = [eval_candidate(j) for j in remaining]
        gains = [res.rank - rank for res in results]
        best_gain = max(gains)
        if best_gain < 1:
            raise RuntimeError(
                "no candidate raised the rank although the span is not full; "
                "with unit control columns this indicates a rank-tolerance bug"
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


# Observed minimum counts for the overlap variants, keyed by (k, r, family);
# each returns the count for a tiling n or None.
def _variant_table(k: int, r: int, family: str, n: int) -> int | None:
    if k == 4:
        if r == 1:
            if family in ("chain", "star") and (2 * n + 1) % 3 == 0:
                return (2 * n + 1) // 3
            if family == "ring" and (2 * n) % 3 == 0:
                return (2 * n) // 3
        if r == 2 and n % 2 == 0:
            return (n + 2) // 2
    if k == 3 and r == 1:
        if family in ("chain", "star") and (n + 1) % 2 == 0:
            return (n + 1) // 2
        if family == "ring" and n % 2 == 0:
            return n // 2
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
        if base in ("chain", "star") and (n - k) % (k - r) != 0:
            return None
        if base == "ring" and (n % (k - r) != 0 or n // (k - r) < 3):
            return None
        if base == "star" and n <= k:
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
