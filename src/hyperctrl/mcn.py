"""Minimum control node search: exhaustive oracle, greedy heuristic,
closed-form predictions for the named families, and the split of a tensor
into its connected components.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .controllability import closure_basis
from .hypergraph import _tiles
from .tensor import AdjacencyTensor, degrees


class ExactSearchGuardError(ValueError):
    """Exhaustive search refused because the node count exceeds the guard."""


@dataclass(frozen=True)
class MCNResult:
    """Outcome of a minimum-control-node computation.

    ``value`` is the control-node count, ``witness`` one achieving node
    set. Greedy results carry a ``rank_trace`` of (node added, rank after)
    pairs. ``closures`` counts the closures the search ran and ``skipped``
    what its prunes saved, by prune (greedy: ``early_stop`` and ``twins``
    count candidates; exact: ``twins`` counts children, ``bound`` the later
    siblings a failed completion bound cuts off). ``lower_bound`` is a size
    no full set is below (see ``_lower_bound``), so a value that meets it is
    proved minimal. None of the three takes part in equality, which compares
    answers.
    """

    value: int
    witness: tuple
    rank_trace: tuple | None = None
    closures: int = field(default=0, compare=False)
    skipped: dict = field(default_factory=dict, compare=False)
    lower_bound: int = field(default=0, compare=False)


class Component(NamedTuple):
    """A connected piece of a tensor: the piece's node labels in the whole
    tensor, and the whole tensor restricted to them. The restriction keeps
    the order k and relabels the nodes 1..m in increasing order."""

    nodes: tuple
    tensor: AdjacencyTensor


def _twin_classes(tensor: AdjacencyTensor) -> list[tuple]:
    """The tensor's nodes split into twin classes, each sorted, in order of
    their lowest node; a node without a twin is a class of its own.

    Nodes i and j are twins when swapping them maps every stored pattern to
    a stored pattern with the same coefficient. The swaps that do form a
    group, so twinship is an equivalence, and a node joins the class of any
    lower twin it has. Lower twins are found in two ways:

    - two nodes in no common pattern are twins exactly when they have the
      same set of (pattern with the node removed, coefficient), and no two
      nodes in a common pattern share that set; so a node whose set some
      lower node already has is that node's twin;
    - a node in a common pattern with a lower node, with as many patterns,
      is checked against it, stopping at the first pattern that does not
      map. Equal counts make the check one-sided: a swap that maps one
      node's patterns into the stored ones maps the other's back onto them.

    Each node costs its own patterns and those of its pattern neighbours,
    not the node count.
    """
    entries = tensor.entries
    incidence = tensor.incidence()

    def swaps_onto_stored(i: int, j: int) -> bool:
        swap = {i: j, j: i}
        return len(incidence[i - 1]) == len(incidence[j - 1]) and all(
            entries.get(tuple(sorted([i, *(swap.get(v, v) for v in rest)]))) == coef
            for rest, coef, _ in incidence[j - 1]
        )

    classes: list[list[int]] = []
    class_of = [0] * (tensor.dim + 1)
    first_with_key: dict = {}
    for j, row in enumerate(incidence, start=1):
        key = tuple(sorted((tuple(v for v in rest if v != j), coef) for rest, coef, _ in row))
        twin = first_with_key.setdefault(key, j)
        if twin == j:
            neighbours = {v for rest, _, _ in row for v in rest if v < j}
            twin = next((i for i in neighbours if swaps_onto_stored(i, j)), j)
        if twin == j:
            class_of[j] = len(classes)
            classes.append([j])
        else:
            class_of[j] = class_of[twin]
            classes[class_of[j]].append(j)
    return [tuple(members) for members in classes]


def _lower_twins(classes: list[tuple]) -> dict:
    """Each node's next lower member of its class in ``classes``, if any."""
    return {hi: lo for members in classes for lo, hi in zip(members, members[1:])}


def _lower_bound(tensor: AdjacencyTensor, classes: list[tuple]) -> int:
    """A size below which no control set of the tensor is full: the largest
    of three rules, read from the stored patterns and the tensor's twin
    classes ``classes`` (see ``_twin_classes``).

    - Twins: the sum of |class| - 1. If S misses two twins i and j, the
      subspace {x_i = x_j} holds every e_s, and T maps it into itself: the
      swap of i and j commutes with T and fixes each vector of it. So the
      closure of S lies in it, and a full S misses at most one node a class.
    - Supports: n less the number of distinct pattern supports (the set of
      a pattern's nodes) of two or more nodes. Let R be the support closure
      of S, the least superset of S that takes in node i whenever a pattern
      holding i has the rest, as a multiset, inside R. The vectors that are
      zero off R hold every e_s, and T maps them into themselves, so a full
      S has R = V. A pattern forces i only when i is in it once and every
      other node of its support is in R already; then its whole support is
      in R, so each support forces at most one node.
    - Smallest support: min(n, m - 1), where m is the fewest nodes in a
      support of two or more (n + 1 when there is none). A smaller S forces
      nothing, so R = S, which is not V.

    Each argument holds over any field, so for ranks over GF(p) too.
    """
    n = tensor.dim
    sizes = [m for m in map(len, {frozenset(p) for p in tensor.entries}) if m > 1]
    return max(
        sum(len(members) - 1 for members in classes),
        n - len(sizes),
        min(n, min(sizes, default=n + 1) - 1),
    )


def connected_components(tensor: AdjacencyTensor) -> list[Component]:
    """Split a graph's one tensor by pattern reachability; a node in no
    pattern is a singleton. Each piece is the tensor restricted to one
    component (see ``Component``), with the coefficients of its patterns as
    they are; pieces come in order of their lowest node."""
    # union-find over the stored patterns; ids in order of the lowest node
    try:
        parent = list(range(tensor.dim + 1))
    except MemoryError:  # it carries no message of its own
        raise MemoryError(f"a union-find table for {tensor.dim} nodes") from None

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pattern in tensor.entries:
        root = find(pattern[0])
        for other in pattern[1:]:
            parent[find(other)] = root
    roots: dict = {}
    ids = [roots.setdefault(find(j), len(roots)) for j in range(1, tensor.dim + 1)]
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


def mcn_exact(tensor: AdjacencyTensor, guard: int = 20) -> MCNResult:
    """Smallest control set of one connected component, by exhaustive search.

    The tensor is one piece from ``connected_components``, as ``mcn`` passes
    it. On a disconnected tensor the answer is still a minimum, but no rule
    prunes by component, so the search is slower than solving each piece.

    One depth-first walk visits sorted node sets as prefixes, in
    lexicographic order: a prefix P is extended by one node j > last(P) at a
    time, and the child's closure is warm-started from P's, so each prefix is
    closed once. Sizes are not fixed. The walk carries a size bound, one less
    than the smallest full-rank set found so far (n at the start), and looks
    only at sets within it, so the bound shrinks as smaller sets turn up.
    Restricted to one size, the walk's order is lexicographic order, so the
    first full set of the minimum size that it meets is the first one of that
    size in lexicographic order. The walk stops at a full set whose size
    meets ``_lower_bound``: no full set is smaller, so it is that first one.
    A child P + j is skipped when

    - j has a lower twin (see ``_twin_classes``) that P lacks: swapping the
      two maps every set below the child onto a lexicographically smaller
      one of the same size and rank;
    - e_j already lies in closure(P) (the child's rank equals P's): every set
      below the child has the closure of the same set without j, one node
      smaller, so none is a minimum.

    A full child is a candidate, and nothing below it is smaller. Below any
    other child lie only subsets of P + {j..n}, whose closure is the child's
    completion bound. When that bound is not full, nothing below the child
    is full, and as the bound only shrinks with j, nothing below a later
    sibling is either: P's loop over its children ends there. A child at the
    size bound has no children to look at, and its bound is not computed.

    No rule drops a prefix of the lexicographically first minimum set W. W
    holds the lower twin of each of its members, or the swap of the two
    would map it onto a smaller full set of its size. Each of W's nodes
    raises the rank (or W less that node would be full), and each of its
    prefixes' bounds holds closure(W). So the witness is the one the plain
    enumeration by size finds.

    A one-node tensor is answered by its node with no search: e_1 spans the
    whole space.

    Raises:
        ExactSearchGuardError: n exceeds ``guard``; use the greedy search.
        ValueError: the walk ends without a full set; a guard, since in
            exact arithmetic the whole node set is full.
    """
    n = tensor.dim
    if n > guard:
        raise ExactSearchGuardError(
            f"exhaustive search over {n} nodes exceeds the guard of {guard}; "
            "raise the guard explicitly or use mcn_greedy"
        )
    if n == 1:
        return MCNResult(1, (1,), skipped={"twins": 0, "bound": 0}, lower_bound=1)
    classes = _twin_classes(tensor)
    lower_twin = _lower_twins(classes)
    lower = _lower_bound(tensor, classes)
    counts = {"closures": 0, "twins": 0, "bound": 0}
    best: tuple = ()
    # the largest set size still worth a look, one under the smallest full
    # set; 0 once a full set meets the lower bound
    limit = n

    def walk(prefix: tuple, basis: np.ndarray) -> None:
        nonlocal best, limit
        size = len(prefix) + 1
        for j in range((prefix[-1] if prefix else 0) + 1, n + 1):
            if size > limit:
                return
            if j in lower_twin and lower_twin[j] not in prefix:
                counts["twins"] += 1
                continue
            counts["closures"] += 1
            res = closure_basis(tensor, (j,), closed=basis)
            if res.rank == basis.shape[1]:
                continue
            child = prefix + (j,)
            if res.rank == n:
                best, limit = child, size - 1 if size > lower else 0
                continue
            if size == limit:
                continue
            counts["closures"] += 1
            if closure_basis(tensor, range(j + 1, n + 1), closed=res.basis).rank < n:
                counts["bound"] += n - j
                return
            walk(child, res.basis)

    walk((), np.zeros((n, 0)))
    if not best:
        raise ValueError(f"no set of the {n} nodes reaches full rank")
    return MCNResult(
        value=len(best),
        witness=best,
        closures=counts.pop("closures"),
        skipped=counts,
        lower_bound=lower,
    )


def mcn_greedy(tensor: AdjacencyTensor) -> MCNResult:
    """Greedy control-node selection by maximum rank gain.

    Starting from the empty set, each step adds the node whose attachment
    raises the controllability rank the most; ties on the gain go to the
    highest degree, then the lowest index. The rank for a candidate is
    computed by warm-starting the closure from the current closed basis and
    the candidate's unit column, which yields the same subspace as a cold
    start; a candidate already in the span costs no draw.

    A step evaluates the candidates in tie-break order and keeps the first
    one of the largest gain, so two prunes keep every pick:

    - as in ``mcn_exact``, a candidate whose next lower twin is unchosen is
      skipped: its lowest unchosen twin comes first (twins have equal
      degrees), and swapping the two fixes the chosen set and maps one
      closure onto the other, so it has the same gain and loses the tie;
    - the step ends at the first candidate whose closure reaches rank n: no
      later candidate has a larger gain, and an equal one loses the tie.

    A one-node tensor is answered by its node with no search, as in
    ``mcn_exact``. The result's ``lower_bound`` is read from the twin
    classes the prune already has; greedy does not stop at it.

    Raises:
        ValueError: no candidate raises the rank; a guard, since in exact
            arithmetic any node outside the span raises it.
    """
    n = tensor.dim
    if n == 1:
        return MCNResult(
            1, (1,), ((1, 1),), skipped={"early_stop": 0, "twins": 0}, lower_bound=1
        )
    # unchosen candidates, highest degree first; the stable sort keeps index order on ties
    order = (np.argsort(-degrees(tensor), kind="stable") + 1).tolist()
    classes = _twin_classes(tensor)
    lower_twin = _lower_twins(classes)
    chosen: set = set()
    basis = np.zeros((n, 0))
    trace: list[tuple] = []
    counts = {"closures": 0, "early_stop": 0, "twins": 0}
    while basis.shape[1] < n:
        pick, best = 0, None
        for pos, j in enumerate(order):
            if j in lower_twin and lower_twin[j] not in chosen:
                counts["twins"] += 1
                continue
            res = closure_basis(tensor, (j,), closed=basis)
            counts["closures"] += 1
            if best is None or res.rank > best.rank:
                pick, best = pos, res
            if res.rank == n:
                counts["early_stop"] += len(order) - pos - 1
                break
        if best is None or best.rank <= basis.shape[1]:
            raise ValueError(f"no candidate raises the rank above {basis.shape[1]} of {n}")
        basis = best.basis
        node = order.pop(pick)
        chosen.add(node)
        trace.append((node, best.rank))
    return MCNResult(
        value=len(trace),
        witness=tuple(node for node, _ in trace),
        rank_trace=tuple(trace),
        closures=counts.pop("closures"),
        skipped=counts,
        lower_bound=_lower_bound(tensor, classes),
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
