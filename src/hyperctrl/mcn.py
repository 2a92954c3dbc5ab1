"""Minimum control node search: exhaustive oracle, greedy heuristic,
closed-form predictions for the named families, and the split of a tensor
into its connected components.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
    optionally enumerate every minimum witness. ``closures`` counts the
    closures the search ran and ``skipped`` what its prunes saved, by prune
    (greedy: ``early_stop`` and ``twins`` count candidates, exact: ``twins``
    counts children); neither takes part in equality, which compares
    answers.
    """

    value: int | None
    witness: tuple
    method: str
    rank_trace: tuple | None = None
    all_witnesses: tuple | None = None
    closures: int = field(default=0, compare=False)
    skipped: dict = field(default_factory=dict, compare=False)


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


def _twin_classes(tensor: AdjacencyTensor) -> list[tuple]:
    """The tensor's nodes split into twin classes, each sorted, in order of
    their lowest node; a node without a twin is a class of its own.

    Nodes i and j are twins when swapping them maps every stored pattern to
    a stored pattern with the same coefficient. The swaps that do form a
    group, so twinship is an equivalence and a node only needs checking
    against one member of each class. Nodes are bucketed by the multiset of
    (multiplicity, coefficient) over their patterns, which twins share; a
    node is then checked against the first member of each class in its
    bucket, stopping at the first pattern that does not map. Checking the
    patterns of one node suffices: equal buckets give both nodes as many
    patterns, so a swap that maps one node's patterns into the stored ones
    maps the other's back onto them.
    """
    incidence: list[list] = [[] for _ in range(tensor.dim + 1)]
    for pattern, coef in tensor.entries.items():
        for j in set(pattern):
            incidence[j].append((pattern, coef))
    entries = tensor.entries

    def swaps_onto_stored(i: int, j: int) -> bool:
        swap = {i: j, j: i}
        return all(
            entries.get(tuple(sorted(swap.get(v, v) for v in pattern))) == coef
            for pattern, coef in incidence[j]
        )

    buckets: dict = {}
    for j in range(1, tensor.dim + 1):
        key = tuple(sorted((pattern.count(j), coef) for pattern, coef in incidence[j]))
        bucket = buckets.setdefault(key, [])
        for members in bucket:
            if swaps_onto_stored(members[0], j):
                members.append(j)
                break
        else:
            bucket.append([j])
    return sorted(tuple(members) for bucket in buckets.values() for members in bucket)


def _twin_orbit(subset: tuple, classes: list[tuple]) -> list[tuple]:
    """Every node set that takes as many members of each twin class as
    ``subset`` does: the orbit of ``subset`` under swaps of twins."""
    picks = [
        itertools.combinations(members, sum(j in subset for j in members))
        for members in classes
    ]
    return [tuple(sorted(itertools.chain(*choice))) for choice in itertools.product(*picks)]


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

    - j has a lower twin (see ``_twin_classes``) that P lacks: swapping the
      two maps every subset below the child onto a lexicographically smaller
      one with the same rank, so the first full subset is never below it;
    - e_j already lies in closure(P) (the child's rank equals P's): every
      m-subset below it has the closure of one of size m - 1, and all of
      those were rejected;
    - the closure of P with every node after last(P) is not full: the
      closure grows with its start set, so no subset below P is full;
    - the connected components P leaves uncovered outnumber its free
      slots: an uncovered component's coordinates never enter the span.

    The first full subset in lexicographic order is the least of its twin
    orbit, so the twin prune keeps it, and no other prune drops a full
    subset: the walk meets the first one where the plain enumeration does,
    and the witness is the same. With ``all_witnesses`` the walk over the
    minimum size runs to its end, and each full subset it finds stands for
    its twin orbit, whose members are all full; the orbits, expanded, are
    every full subset, returned in lexicographic order.

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
    classes = _twin_classes(tensor)
    # the next lower member of each node's twin class, 0 for none
    lower_twin = [0] * (n + 1)
    for members in classes:
        for lo, hi in zip(members, members[1:]):
            lower_twin[hi] = lo
    eye = np.eye(n)
    counts = {"closures": 0, "twins": 0}

    def full_sets(m: int, prefix: tuple, basis: np.ndarray):
        # full-rank m-subsets below ``prefix`` that take the lowest members
        # of each twin class, in lexicographic order
        free = m - len(prefix)
        last = prefix[-1] if prefix else 0
        if prefix:
            counts["closures"] += 1
            if closure_basis(tensor, eye[:, last:], tol=tol, closed=basis).rank < n:
                return
        for j in range(last + 1, n - free + 2):
            if lower_twin[j] and lower_twin[j] not in prefix:
                counts["twins"] += 1
                continue
            child = prefix + (j,)
            if n_comps - len({comp_ids[i - 1] for i in child}) > free - 1:
                continue
            counts["closures"] += 1
            res = closure_basis(tensor, eye[:, j - 1 : j], tol=tol, closed=basis)
            if res.rank == basis.shape[1]:
                continue
            if free > 1:
                yield from full_sets(m, child, res.basis)
            elif res.rank == n:
                yield child

    value, found = None, []
    for m in range(max(1, n_comps), n + 1):
        for subset in full_sets(m, (), np.zeros((n, 0))):
            found.append(subset)
            if not all_witnesses:
                break
        if found:
            value = m
            break
    return MCNResult(
        value=value,
        witness=found[0] if found else (),
        method="exact",
        all_witnesses=(
            tuple(sorted(w for s in found for w in _twin_orbit(s, classes)))
            if all_witnesses and found
            else None
        ),
        closures=counts.pop("closures"),
        skipped=counts,
    )


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

    With ``degree`` and ``index``, a step evaluates the candidates in
    tie-break order and takes the first one of the largest gain, so two
    prunes keep every pick:

    - of each twin class (see ``_twin_classes``), only the unchosen member
      that comes first in tie-break order is evaluated: swapping it with a
      later twin fixes the chosen set and maps one closure onto the other,
      so the later twin has the same gain and loses the tie;
    - the step ends at the first candidate whose closure reaches rank n: no
      later candidate has a larger gain, and an equal one loses the tie.

    ``random`` evaluates every candidate, since its pick depends on how many
    tie.

    Raises:
        ValueError: no candidate raises the rank at the given tolerance.
    """
    if tie_break not in ("degree", "index", "random"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if tie_break == "random" and seed is None:
        raise ValueError("tie_break='random' requires an explicit seed")
    n = tensor.dim
    order = list(range(1, n + 1))
    if tie_break == "degree":
        node_degrees = degrees(tensor)
        order.sort(key=lambda j: (-node_degrees[j - 1], j))
    prune = tie_break != "random"
    class_of = {}
    if prune:
        for cid, members in enumerate(_twin_classes(tensor)):
            class_of.update(dict.fromkeys(members, cid))
    basis = np.zeros((n, 0))
    rank = 0
    chosen: list[int] = []
    trace: list[tuple] = []
    counts = {"closures": 0, "early_stop": 0, "twins": 0}
    while rank < n:
        remaining = [j for j in order if j not in chosen]
        evaluated: list[tuple] = []
        seen: set = set()
        for pos, j in enumerate(remaining):
            if prune:
                if class_of[j] in seen:
                    counts["twins"] += 1
                    continue
                seen.add(class_of[j])
            res = closure_basis(tensor, ControlMatrix((j,)).matrix(n), tol=tol, closed=basis)
            counts["closures"] += 1
            evaluated.append((j, res))
            if prune and res.rank == n:
                counts["early_stop"] += len(remaining) - pos - 1
                break
        best_rank = max(res.rank for _, res in evaluated)
        if best_rank <= rank:
            # a large tolerance can cut off the new direction of every candidate
            raise ValueError(
                f"no candidate raises the rank above {rank} of {n} at rank "
                f"tolerance {tol!r}; use a smaller tolerance"
            )
        tied = [pos for pos, (_, res) in enumerate(evaluated) if res.rank == best_rank]
        pick = tied[0] if prune else tied[_splitmix64(seed, len(chosen)) % len(tied)]
        node, res = evaluated[pick]
        basis, rank = res.basis, res.rank
        chosen.append(node)
        trace.append((node, rank))
    return MCNResult(
        value=len(chosen),
        witness=tuple(chosen),
        method="greedy",
        rank_trace=tuple(trace),
        closures=counts.pop("closures"),
        skipped=counts,
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
