"""Minimum control node search: exhaustive oracle, greedy heuristic,
closed-form predictions for the named families, and the split of a tensor
into its connected components.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .controllability import closure_basis
from .hypergraph import _splitmix64, _tiles, degrees
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
    """A connected piece of a tensor: the piece's node labels in the whole
    tensor, and the whole tensor restricted to them. The restriction keeps
    the order k and relabels the nodes 1..m in increasing order."""

    nodes: tuple
    tensor: AdjacencyTensor


def _component_ids(tensor: AdjacencyTensor) -> list[int]:
    """Component id of each node (node j at index j-1), by union-find over
    the stored patterns; ids count up in order of each component's lowest
    node."""
    parent = list(range(tensor.dim + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pattern in tensor.entries:
        root = find(pattern[0])
        for other in pattern[1:]:
            parent[find(other)] = root
    ids: dict = {}
    return [ids.setdefault(find(j), len(ids)) for j in range(1, tensor.dim + 1)]


def connected_components(tensor: AdjacencyTensor) -> list[Component]:
    """Split a graph's one tensor by pattern reachability; a node in no
    pattern is a singleton. Each piece is the tensor restricted to one
    component (see ``Component``), with the coefficients of its patterns as
    they are; pieces come in order of their lowest node."""
    ids = _component_ids(tensor)
    groups: list[list[int]] = [[] for _ in range(max(ids) + 1)]
    label = []
    for j, cid in enumerate(ids, start=1):
        groups[cid].append(j)
        label.append(len(groups[cid]))
    entries: list[dict] = [{} for _ in groups]
    for pattern, coef in tensor.entries.items():
        entries[ids[pattern[0] - 1]][tuple(label[j - 1] for j in pattern)] = coef
    return [
        Component(tuple(nodes), AdjacencyTensor(tensor.order, len(nodes), part))
        for nodes, part in zip(groups, entries)
    ]


def mcn_exact(
    tensor: AdjacencyTensor,
    tol: float | None = None,
    guard: int = 20,
    all_witnesses: bool = False,
) -> MCNResult:
    """Smallest control set by exhaustive search.

    Subset sizes m are tried in increasing order and, within a size, subsets
    in lexicographic order; the first full-rank subset wins. The subsets of
    one size are walked depth first: a prefix P is extended by one node j >
    last(P) at a time, and the child's closure is warm-started from P's, so
    each prefix is closed once. A branch is pruned when

    - e_j already lies in closure(P) (the child's rank equals P's): every
      m-subset below it has the closure of one of size m - 1, and all of
      those were rejected;
    - the closure of P with every node after last(P) is not full: the
      closure grows with its start set, so no subset below P is full;
    - the connected components P leaves uncovered outnumber its free
      slots: an uncovered component's coordinates never enter the span.

    No pruned branch holds a full-rank subset, so the walk meets the full
    ones in the same lexicographic order as the plain enumeration: the
    witness is the same, and with ``all_witnesses`` the walk over the
    minimum size runs to its end and collects every full-rank subset.

    Raises:
        ExactSearchGuardError: n exceeds ``guard``; use the greedy search.
    """
    n = tensor.dim
    if n > guard:
        raise ExactSearchGuardError(
            f"exhaustive search over {n} nodes exceeds the guard of {guard}; "
            "raise the guard explicitly or use mcn_greedy"
        )
    comp_ids = _component_ids(tensor)
    n_comps = max(comp_ids) + 1
    eye = np.eye(n)

    def full_sets(m: int, prefix: tuple, basis: np.ndarray):
        # full-rank m-subsets below ``prefix``, in lexicographic order
        free = m - len(prefix)
        last = prefix[-1] if prefix else 0
        if prefix and closure_basis(tensor, eye[:, last:], tol=tol, closed=basis).rank < n:
            return
        for j in range(last + 1, n - free + 2):
            child = prefix + (j,)
            if n_comps - len({comp_ids[i - 1] for i in child}) > free - 1:
                continue
            res = closure_basis(tensor, eye[:, j - 1 : j], tol=tol, closed=basis)
            if res.rank == basis.shape[1]:
                continue
            if free > 1:
                yield from full_sets(m, child, res.basis)
            elif res.rank == n:
                yield child

    for m in range(max(1, n_comps), n + 1):
        found = []
        for subset in full_sets(m, (), np.zeros((n, 0))):
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
) -> MCNResult:
    """Greedy control-node selection by maximum rank gain.

    Starting from the empty set, each step adds the node whose attachment
    raises the controllability rank the most. The rank for a candidate is
    computed by warm-starting the closure from the current closed basis and
    the candidate's unit column, which yields the same subspace as a cold
    start; a candidate already in the span costs no round. Ties on the gain
    are broken by highest degree then lowest index (``degree``), lowest index
    alone (``index``), or a seeded uniform pick (``random``, requires
    ``seed``).

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
        results = [
            closure_basis(tensor, ControlMatrix((j,)).matrix(n), tol=tol, closed=basis)
            for j in remaining
        ]
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
