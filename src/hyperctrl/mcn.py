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
    count candidates; exact: ``twins`` and ``symmetry`` count children,
    ``bound`` the later siblings a failed completion bound cuts off);
    neither takes part in equality, which compares answers.
    """

    value: int
    witness: tuple
    rank_trace: tuple | None = None
    closures: int = field(default=0, compare=False)
    skipped: dict = field(default_factory=dict, compare=False)


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


# Caps on the automorphism search of ``mcn_exact``: the elements kept and
# the individualize-and-refine steps run. Past either, the search stops and
# the prune uses the elements found so far, which is sound for any subset.
_AUT_ELEMENTS = 128
_AUT_STEPS = 4000


def _refine(incidence: list, colour: list) -> list:
    """The coarsest equitable refinement of a node colouring (0-based, any
    comparable values), by the tensor's ``incidence``.

    A node's signature is its colour and the sorted (coefficient, sorted
    colours of the pattern less one copy of the node) over its patterns;
    nodes split by signature until no colour splits. Each colour is named by
    the rank of its signature, so relabelling the nodes permutes the result
    and renames nothing.
    """
    cells = len(set(colour))
    while True:
        signature = [
            (c, tuple(sorted(
                (coef, tuple(sorted([colour[u - 1] for u in rest]))) for rest, coef, _ in row
            )))
            for c, row in zip(colour, incidence)
        ]
        rank = {sig: r for r, sig in enumerate(sorted(set(signature)))}
        colour = [rank[sig] for sig in signature]
        # a colouring with one node per colour splits no further
        if len(rank) in (cells, len(colour)):
            return colour
        cells = len(rank)


def _automorphisms(tensor: AdjacencyTensor, classes: list[tuple]) -> np.ndarray:
    """The tensor's class-monotone automorphisms as inverse images: row r
    holds sigma_r^-1(i) in column i - 1, in 1-based node labels. The
    identity is one of the rows.

    With ``classes`` from ``_twin_classes``, sigma is class-monotone when it
    maps every stored pattern onto a stored pattern with the same
    coefficient, and each twin class onto a twin class of the same size,
    i-th member to i-th member. Any automorphism followed by twin swaps is
    one of these, so they stand for the whole group modulo twins.

    Individualization-refinement (McKay & Piperno, J. Symb. Comput. 60,
    2014): colour each node by (class size, place in class) and ``_refine``.
    While a colour holds more than one node, individualize the first node of
    the first such colour and refine, depth first; the other nodes of that
    colour are tried after it. The first path ends in a discrete colouring,
    the leaf every other leaf is compared with; a child is kept only when its
    sorted colouring equals the first path's at its depth, as an
    automorphism's image must. The map from the first leaf to another, node
    to node of the same colour, is kept when it sends every stored pattern to
    one with the same coefficient. Each automorphism is the map to exactly
    one leaf. The search keeps at most ``_AUT_ELEMENTS`` elements and runs
    at most ``_AUT_STEPS`` individualize-and-refine steps.
    """
    n = tensor.dim
    entries = tensor.entries
    incidence = tensor.incidence()
    start = [()] * n
    for members in classes:
        for place, v in enumerate(members):
            start[v - 1] = (len(members), place)
    shapes: list[list] = []  # the first path's sorted colourings, by depth
    first: list[int] = []    # the node of each colour at the first leaf
    found: list[list] = []
    steps = 0
    # (colouring, depth, node to individualize or -1): an explicit stack, so
    # that no recursion limit bounds the depth
    pending = [(start, 0, -1)]
    while pending and len(found) < _AUT_ELEMENTS:
        colour, depth, chosen = pending.pop()
        if chosen >= 0:
            if steps == _AUT_STEPS:
                break
            steps += 1
            colour = [(c, v == chosen) for v, c in enumerate(colour)]
        colour = _refine(incidence, colour)
        shape = sorted(colour)
        if depth == len(shapes):
            shapes.append(shape)
        elif shape != shapes[depth]:
            continue
        if shape[-1] < n - 1:
            # not discrete: try each node of the first colour with two or more
            target = next(c for c, d in zip(shape, shape[1:]) if c == d)
            cell = [v for v, c in enumerate(colour) if c == target]
            pending.extend((colour, depth + 1, v) for v in reversed(cell))
            continue
        if not first:
            first = sorted(range(1, n + 1), key=lambda v: colour[v - 1])
        inverse = [first[c] for c in colour]
        if all(
            entries.get(tuple(sorted(inverse[v - 1] for v in pattern))) == coef
            for pattern, coef in entries.items()
        ):
            found.append(inverse)
    return np.array(found, dtype=np.intp).reshape(-1, n)


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
    size in lexicographic order. A child P + j is skipped when

    - j has a lower twin (see ``_twin_classes``) that P lacks: swapping the
      two maps every set below the child onto a lexicographically smaller
      one of the same size and rank;
    - an automorphism sigma (see ``_automorphisms``: found once per call by
      individualization and colour refinement, with capped elements and
      steps) maps every set below the child onto a lexicographically
      smaller one.
      The child's indicator x is decided on 1..j, and that of its image,
      y_i = x[sigma^-1(i)], where sigma^-1(i) <= j. If the first i <= j at
      which y is undecided or differs from x is decided with y_i = 1 and
      x_i = 0, every set S below the child and sigma(S) agree before i, and
      only sigma(S) holds i. All sigma are checked at once;
    - e_j already lies in closure(P) (the child's rank equals P's): every set
      below the child has the closure of the same set without j, one node
      smaller, so none is a minimum.

    A full child is a candidate, and nothing below it is smaller. Below any
    other child lie only subsets of P + {j..n}, whose closure is the child's
    completion bound. When that bound is not full, nothing below the child
    is full, and as the bound only shrinks with j, nothing below a later
    sibling is either: P's loop over its children ends there. A child at the
    size bound has no children to look at, and its bound is not computed.

    No rule drops a prefix of the lexicographically first minimum set W. An
    automorphism maps W onto a full set of the same size, so W is the least
    set of its orbit: it holds the lower twin of each of its members, and
    the symmetry rule, which fires only when every set below the child has
    a smaller image, never fires on a prefix of W, with the whole group or
    any part of it. Each of W's nodes raises the rank (or W less that node
    would be full), and each of its prefixes' bounds holds closure(W). So
    the witness is the one the plain enumeration by size finds.

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
        return MCNResult(1, (1,), skipped={"twins": 0, "symmetry": 0, "bound": 0})
    classes = _twin_classes(tensor)
    lower_twin = _lower_twins(classes)
    group = _automorphisms(tensor, classes)
    group = group[(group != np.arange(1, n + 1)).any(axis=1)]
    rows = np.arange(len(group))
    counts = {"closures": 0, "twins": 0, "symmetry": 0, "bound": 0}
    best: tuple = ()
    # the largest set size still worth a look, one under the smallest full set
    limit = n

    def mapped_earlier(child: tuple) -> bool:
        # x is the child's indicator, decided on 1..j; y = x o sigma^-1 is
        # its image's, decided where sigma^-1(i) <= j
        j = child[-1]
        x = np.zeros(n + 1, dtype=bool)
        x[list(child)] = True
        inverse = group[:, :j]
        decided = inverse <= j
        y = x[inverse]
        stop = ~decided | (y != x[1 : j + 1])
        first = stop.argmax(axis=1)
        return bool((stop & decided & y)[rows, first].any())

    def walk(prefix: tuple, basis: np.ndarray) -> None:
        nonlocal best, limit
        size = len(prefix) + 1
        for j in range((prefix[-1] if prefix else 0) + 1, n + 1):
            if size > limit:
                return
            if j in lower_twin and lower_twin[j] not in prefix:
                counts["twins"] += 1
                continue
            child = prefix + (j,)
            if len(group) and mapped_earlier(child):
                counts["symmetry"] += 1
                continue
            counts["closures"] += 1
            res = closure_basis(tensor, (j,), closed=basis)
            if res.rank == basis.shape[1]:
                continue
            if res.rank == n:
                best, limit = child, size - 1
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
    ``mcn_exact``.

    Raises:
        ValueError: no candidate raises the rank; a guard, since in exact
            arithmetic any node outside the span raises it.
    """
    n = tensor.dim
    if n == 1:
        return MCNResult(1, (1,), ((1, 1),), skipped={"early_stop": 0, "twins": 0})
    # unchosen candidates, highest degree first; the stable sort keeps index order on ties
    order = (np.argsort(-degrees(tensor), kind="stable") + 1).tolist()
    lower_twin = _lower_twins(_twin_classes(tensor))
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
