"""Hypergraph data model, adjacency tensor construction, and generators.

Nodes are 1-based everywhere. Edges are sets of at least two distinct nodes.
A hypergraph maps to one order-k adjacency tensor, k the largest edge
cardinality: an edge of cardinality s fills every length-k index multiset
that uses each of its nodes, with a per-tuple coefficient chosen so node
degrees are preserved. On uniform input that is weight/(k-1)! on the tuples
of each edge. The graph's connected components are restrictions of that one
tensor (``mcn.connected_components``), so a component whose edges are all
smaller than the largest edge still has order k.

The chain, ring and star families have one builder, ``overlap_variant``:
consecutive edges share r nodes, and the plain families are its r = k-1
case. ``_tiles`` is the one statement of which node counts a family tiles;
``mcn.mcn_predicted`` asks it too.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .tensor import AdjacencyTensor

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Hypergraph:
    """Node count plus a duplicate-free list of hyperedges.

    Edges are stored as sorted tuples; an optional positive weight per edge
    is kept alongside. The value is immutable and hashable.
    """

    n: int
    edges: tuple
    weights: tuple | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        canon = []
        seen = set()
        for pos, edge in enumerate(self.edges):
            nodes = tuple(sorted(int(j) for j in edge))
            if len(nodes) < 2:
                raise ValueError(f"edge {pos}: {nodes} has fewer than 2 nodes")
            if len(set(nodes)) != len(nodes):
                raise ValueError(f"edge {pos}: {tuple(edge)} repeats a node")
            if nodes[0] < 1 or nodes[-1] > self.n:
                raise ValueError(
                    f"edge {pos}: {nodes} has nodes outside [1, {self.n}]"
                )
            if nodes in seen:
                raise ValueError(f"edge {pos}: {nodes} duplicates an earlier edge")
            seen.add(nodes)
            canon.append(nodes)
        object.__setattr__(self, "edges", tuple(canon))
        if self.weights is not None:
            weights = tuple(float(w) for w in self.weights)
            if len(weights) != len(canon):
                raise ValueError(
                    f"{len(weights)} weights for {len(canon)} edges"
                )
            if any(not math.isfinite(w) or w <= 0 for w in weights):
                raise ValueError("edge weights must be finite and positive")
            object.__setattr__(self, "weights", weights)

    def edge_weight(self, index: int) -> float:
        return 1.0 if self.weights is None else self.weights[index]


# ---------------------------------------------------------------------------
# Adjacency tensors
# ---------------------------------------------------------------------------

def _surjective_tuple_count(k: int, s: int) -> int:
    """Number of length-k tuples over an s-element set hitting every element."""
    return sum(
        (-1) ** i * math.comb(s, i) * (s - i) ** k for i in range(s + 1)
    )


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def adjacency_auto(graph: Hypergraph) -> AdjacencyTensor:
    """Adjacency tensor of a uniform or mixed-cardinality hypergraph.

    The order k is the maximum edge cardinality. An edge of cardinality s
    populates every length-k index multiset that uses each of its nodes at
    least once, with per-tuple coefficient weight * (s / alpha) where alpha
    counts the surjective tuples; this preserves node degrees. For s = k the
    share s / alpha rounds to exactly 1/(k-1)!. An edgeless hypergraph maps
    to an empty order-2 tensor; with no edges every rank and MCN question is
    order-independent.
    """
    if not graph.edges:
        return AdjacencyTensor(order=2, dim=graph.n, entries={})
    k = max(len(e) for e in graph.edges)
    # per cardinality: the shared coefficient and, per composition, the
    # edge positions that spell out its index multiset
    layouts: dict = {}
    entries: dict = {}
    for idx, edge in enumerate(graph.edges):
        s = len(edge)
        if s not in layouts:
            layouts[s] = (
                s / _surjective_tuple_count(k, s),
                [
                    operator.itemgetter(
                        *(pos for pos, mult in enumerate(comp) for _ in range(mult))
                    )
                    for comp in _compositions(k, s)
                ],
            )
        share, spellings = layouts[s]
        coef = graph.edge_weight(idx) * share
        for spell in spellings:
            entries[spell(edge)] = coef
    return AdjacencyTensor(order=k, dim=graph.n, entries=entries)


def degrees(tensor: AdjacencyTensor) -> np.ndarray:
    """Node degrees recovered from the tensor by summing over trailing modes.

    Evaluated sparsely per stored pattern; for unweighted hypergraph tensors
    the result is the per-node edge membership count.
    """
    out = np.zeros(tensor.dim)
    for pattern, coef in tensor.entries.items():
        counts: dict = {}
        for j in pattern:
            counts[j] = counts.get(j, 0) + 1
        arrangements = math.factorial(len(pattern) - 1)
        for j, mult in counts.items():
            rest_perms = arrangements
            for node, m in counts.items():
                rest_perms //= math.factorial(m - 1 if node == j else m)
            out[j - 1] += coef * rest_perms
    return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _check_nk(n: int, k: int):
    if k < 2:
        raise ValueError(f"edge cardinality must be >= 2, got k={k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")


# Cap on the k-subsets of n nodes that one call enumerates: ``complete``,
# ``random_uniform`` and ingest's tuple scoring all refuse more.
MAX_TUPLES = 10**7
# The generators also keep what they enumerate (``random_uniform`` all of it
# at density 1), and those tuples may take at most this many bytes. Peak RSS
# per k-subset, measured for k = 2..6 at about 10^6 subsets with CPython
# 3.11 on x86-64, was 186-263 bytes for ``complete`` and 194-271 for
# ``random_uniform``; ``_tuple_bytes`` bounds both. Ingest keeps only the
# tuples above its threshold and is held to ``MAX_TUPLES`` alone.
MAX_GENERATED_BYTES = 1 << 28


def _tuple_bytes(k: int) -> int:
    return 144 + 24 * k


def _check_tuple_count(n: int, k: int, advice: str, kept: bool = False):
    """Refuse C(n, k) above ``MAX_TUPLES`` or, for a caller that keeps every
    tuple, above the count that fits ``MAX_GENERATED_BYTES``."""
    total = math.comb(n, k)
    cap, why = MAX_TUPLES, ""
    if kept and MAX_GENERATED_BYTES // _tuple_bytes(k) < cap:
        cap = MAX_GENERATED_BYTES // _tuple_bytes(k)
        why = f" ({MAX_GENERATED_BYTES} bytes at {_tuple_bytes(k)} per tuple)"
    if total > cap:
        raise ValueError(f"C({n}, {k}) = {total} tuples exceeds the {cap} guard{why}; {advice}")


def hyperchain(n: int, k: int) -> Hypergraph:
    """Chain of n nodes where every k consecutive nodes form an edge."""
    _check_nk(n, k)
    return overlap_variant(n, k, k - 1, "chain")


def hyperring(n: int, k: int) -> Hypergraph:
    """Cyclic chain; coinciding windows (n = k) collapse to a single edge."""
    _check_nk(n, k)
    return overlap_variant(n, k, k - 1, "ring")


def hyperstar(n: int, k: int) -> Hypergraph:
    """k-1 internal nodes shared by all edges, one leaf per edge."""
    _check_nk(n, k)
    return overlap_variant(n, k, k - 1, "star")


def complete(n: int, k: int) -> Hypergraph:
    """All C(n, k) edges."""
    _check_nk(n, k)
    _check_tuple_count(n, k, "use fewer nodes", kept=True)
    return Hypergraph(n=n, edges=tuple(itertools.combinations(range(1, n + 1), k)))


def _tiles(n: int, k: int, r: int, family: str) -> bool:
    """Whether edges of k nodes advancing by k - r nodes tile n nodes.

    Chains and stars need (n - k) divisible by k - r. Rings need n divisible
    by k - r (the cycle must close) and, below r = k-1, at least three edges.
    """
    stride = k - r
    if family == "ring":
        return n % stride == 0 and (r == k - 1 or n >= 3 * stride)
    return (n - k) % stride == 0


def overlap_variant(n: int, k: int, r: int, family: str) -> Hypergraph:
    """Chain/ring/star where consecutive edges share exactly r nodes.

    Edges advance by k-r nodes, so the node count must tile (see ``_tiles``).
    r = k-1 is the plain family: a chain of all k-windows, a ring of all
    cyclic k-windows, a star of k-1 core nodes with one leaf per edge.
    """
    if not 0 < r < k:
        raise ValueError(f"need 0 < r < k, got r={r}, k={k}")
    _check_nk(n, k)
    if family not in ("chain", "ring", "star"):
        raise ValueError(f"unknown family {family!r}")
    stride = k - r
    if not _tiles(n, k, r, family):
        if family == "ring":
            need, first = f"n divisible by {stride} with at least 3 edges", 3 * stride
        else:
            need, first = f"(n - k) divisible by {stride}", k
        examples = ", ".join(str(first + i * stride) for i in range(3))
        raise ValueError(
            f"no {r}-overlap {family} on n={n} nodes with k={k}: need {need}; "
            f"feasible n: {examples}, ..."
        )
    if family == "chain":
        edges = [tuple(range(start, start + k)) for start in range(1, n - k + 2, stride)]
    elif family == "ring":
        edges = [
            tuple(sorted((start + t) % n + 1 for t in range(k)))
            for start in range(0, n, stride)
        ]
        if r == k - 1:
            # n = k: every window is the whole node set
            edges = list(dict.fromkeys(edges))
    else:
        core = tuple(range(1, r + 1))
        edges = [
            core + tuple(range(leaf, leaf + stride))
            for leaf in range(r + 1, n - stride + 2, stride)
        ]
    return Hypergraph(n=n, edges=tuple(edges))


def _splitmix64(seed: int, counter: int) -> int:
    """Counter-indexed splitmix64 output; platform-independent."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def random_uniform(n: int, k: int, density: float, seed: int) -> Hypergraph:
    """Each of the C(n, k) candidate edges kept independently with the given
    probability, driven by splitmix64 on (seed, edge index) so the same seed
    reproduces the same edges on any platform.
    """
    _check_nk(n, k)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    _check_tuple_count(n, k, "use fewer nodes", kept=True)
    seed &= _MASK64
    edges = []
    for counter, edge in enumerate(itertools.combinations(range(1, n + 1), k)):
        u = (_splitmix64(seed, counter) >> 11) / float(1 << 53)
        if u < density:
            edges.append(edge)
    return Hypergraph(n=n, edges=tuple(edges))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def to_json_dict(graph: Hypergraph) -> dict:
    doc = {"n": graph.n, "edges": [list(e) for e in graph.edges]}
    if graph.weights is not None:
        doc["weights"] = list(graph.weights)
    return doc


# JSON values are taken as they are, never rounded or parsed from text; bool
# is refused although Python treats it as an int.
def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _json_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def from_json_dict(doc: dict) -> Hypergraph:
    if not isinstance(doc, dict):
        raise ValueError("hypergraph document must be a JSON object")
    for key in ("n", "edges"):
        if key not in doc:
            raise ValueError(f"hypergraph document missing {key!r}")
    unknown = set(doc) - {"n", "edges", "weights"}
    if unknown:
        raise ValueError(f"hypergraph document has unknown keys {sorted(unknown)}")
    fields = {}
    for key, convert in (
        ("n", _json_int),
        ("edges", lambda v: tuple(tuple(_json_int(j) for j in e) for e in v)),
        ("weights", lambda v: None if v is None else tuple(_json_float(w) for w in v)),
    ):
        try:
            fields[key] = convert(doc.get(key))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"hypergraph key {key!r} is malformed: {exc}") from None
    return Hypergraph(**fields)
