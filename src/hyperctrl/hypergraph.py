"""Hypergraph data model, adjacency tensor construction, and generators.

Nodes are 1-based everywhere. Edges are sets of at least two distinct nodes.
A hypergraph maps to one order-k adjacency tensor, k the largest edge
cardinality: an edge of cardinality s fills the patterns made of the edge
plus k - s more of its own nodes, with a per-tuple coefficient that keeps
each node's degree equal to its weighted edge count. On uniform input that
is weight/(k-1)! on the tuples of each edge. The graph's connected
components are restrictions of that one tensor
(``mcn.connected_components``), so a component whose edges are all smaller
than the largest edge still has order k.

The chain, ring and star families have one builder, ``overlap_variant``:
consecutive edges share r nodes, and the plain families are its r = k-1
case. ``_tiles`` is the one statement of which node counts a family tiles;
``mcn.mcn_predicted`` asks it too.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .tensor import AdjacencyTensor

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Hypergraph:
    """Node count plus a duplicate-free list of hyperedges.

    ``edges`` is read once, so it may be a generator. Edges are stored as
    sorted tuples; an optional positive weight per edge is kept alongside.
    The value is immutable and hashable.
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


def adjacency_auto(graph: Hypergraph) -> AdjacencyTensor:
    """Adjacency tensor of a uniform or mixed-cardinality hypergraph.

    The order k is the maximum edge cardinality, or 2 for a graph with no
    edges, where no rank or MCN answer depends on the order.
    The patterns of an edge of cardinality s are the edge plus each multiset
    of k - s more of its own nodes, sorted: every length-k index multiset
    that uses each of its nodes. Each carries the per-tuple coefficient
    weight * (s / alpha), alpha the number of length-k tuples over the edge
    that use each node, so a node's degree is its weighted edge count. For
    s = k the share s / alpha rounds to exactly 1/(k-1)!.
    """
    k = max(map(len, graph.edges), default=2)
    shares: dict = {}
    entries: dict = {}
    for idx, edge in enumerate(graph.edges):
        s = len(edge)
        if s not in shares:
            shares[s] = s / _surjective_tuple_count(k, s)
        coef = graph.edge_weight(idx) * shares[s]
        for extra in itertools.combinations_with_replacement(edge, k - s):
            entries[tuple(sorted(edge + extra))] = coef
    return AdjacencyTensor(order=k, dim=graph.n, entries=entries)


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
# The edges a generator keeps (``random_uniform``: all C(n, k), its density-1
# case) may take this many bytes by the rule of ``_check_edge_bytes``. Peak RSS
# measured in a fresh process (CPython 3.11, x86-64) for every generator at
# k = 2..6 and 0.3 to 1.26 million edges was at most 40 bytes per node plus 152
# (k = 2, 3), 172 (k = 4, 5) or 185 (k = 6) per edge. Ingest is held to
# ``MAX_TUPLES`` alone.
MAX_GENERATED_BYTES = 1 << 28


def _check_tuple_count(n: int, k: int, advice: str):
    """Refuse to enumerate C(n, k) above ``MAX_TUPLES``."""
    total = math.comb(n, k)
    if total > MAX_TUPLES:
        raise ValueError(f"C({n}, {k}) = {total} tuples exceeds the {MAX_TUPLES} guard; {advice}")


def _check_edge_bytes(edges: int, n: int, k: int, what: str):
    """Refuse edges of k nodes on n nodes past ``MAX_GENERATED_BYTES``, at
    180 + 8 k bytes per edge (its tuple and its share of the duplicate
    check) and 48 per node (the int objects every edge shares)."""
    need = edges * (180 + 8 * k) + 48 * n
    if need > MAX_GENERATED_BYTES:
        raise ValueError(
            f"{what} on {n} nodes take {need} bytes at {180 + 8 * k} per edge and "
            f"48 per node, past the {MAX_GENERATED_BYTES} guard; use fewer nodes"
        )


def _check_subsets(n: int, k: int, density: float):
    """Refuse, before any k-subset is listed, what ``random_uniform`` refuses;
    ``complete`` is its density-1 case."""
    _check_nk(n, k)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    _check_tuple_count(n, k, "use fewer nodes")
    total = math.comb(n, k)
    _check_edge_bytes(total, n, k, f"C({n}, {k}) = {total} tuples")


def hyperchain(n: int, k: int) -> Hypergraph:
    """Chain of n nodes where every k consecutive nodes form an edge."""
    return overlap_variant(n, k, k - 1, "chain")


def hyperring(n: int, k: int) -> Hypergraph:
    """Cyclic chain; coinciding windows (n = k) collapse to a single edge."""
    return overlap_variant(n, k, k - 1, "ring")


def hyperstar(n: int, k: int) -> Hypergraph:
    """k-1 internal nodes shared by all edges, one leaf per edge."""
    return overlap_variant(n, k, k - 1, "star")


def complete(n: int, k: int) -> Hypergraph:
    """All C(n, k) edges."""
    _check_subsets(n, k, 1.0)
    return Hypergraph(n=n, edges=itertools.combinations(range(1, n + 1), k))


def _tiles(n: int, k: int, r: int, family: str) -> bool:
    """Whether edges of k nodes advancing by k - r nodes tile n nodes.

    Chains and stars need (n - k) divisible by k - r. Rings need n divisible
    by k - r (the cycle must close) and, below r = k-1, at least three edges
    and n > k: on n = k nodes every window is the whole node set.
    """
    stride = k - r
    if family == "ring":
        return n % stride == 0 and (r == k - 1 or n >= max(3 * stride, k + 1))
    return (n - k) % stride == 0


def overlap_variant(n: int, k: int, r: int, family: str) -> Hypergraph:
    """Chain/ring/star where consecutive edges share exactly r nodes.

    Edges advance by k-r nodes, so the node count must tile (see ``_tiles``),
    and the edges must fit ``MAX_GENERATED_BYTES``. r = k-1 is the plain
    family: a chain of all k-windows, a ring of all cyclic k-windows, a star
    of k-1 core nodes with one leaf per edge.
    """
    _check_nk(n, k)
    if not 0 < r < k:
        raise ValueError(f"need 0 < r < k, got r={r}, k={k}")
    stride = k - r
    starts = {
        "chain": range(1, n - k + 2, stride),
        # on n = k nodes every window of the plain ring is the one edge
        "ring": range(1, n + 1 if n > k else 2, stride),
        "star": range(r + 1, n - stride + 2, stride),
    }
    if family not in starts:
        raise ValueError(f"unknown family {family!r}")
    if not _tiles(n, k, r, family):
        need = (f"n > k, divisible by {stride}, with at least 3 edges" if family == "ring"
                else f"(n - k) divisible by {stride}")
        first = next(m for m in itertools.count(k) if _tiles(m, k, r, family))
        examples = ", ".join(str(first + i * stride) for i in range(3))
        raise ValueError(
            f"no {r}-overlap {family} on n={n} nodes with k={k}: need {need}; "
            f"feasible n: {examples}, ..."
        )
    count = len(starts[family])
    _check_edge_bytes(count, n, k, f"{count} edges")
    nodes = list(range(n + 1))  # one int object per node, shared by every edge
    if family == "ring":
        nodes += nodes[1:k]  # a window past node n wraps around to node 1
    core, width = (nodes[1:r + 1], stride) if family == "star" else ([], k)
    return Hypergraph(n=n, edges=(core + nodes[s:s + width] for s in starts[family]))


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
    _check_subsets(n, k, density)
    seed &= _MASK64
    subsets = itertools.combinations(range(1, n + 1), k)
    return Hypergraph(n=n, edges=(
        edge for counter, edge in enumerate(subsets)
        if (_splitmix64(seed, counter) >> 11) / float(1 << 53) < density
    ))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def to_json_dict(graph: Hypergraph) -> dict:
    # json writes a tuple as an array, so the edges go out as they are
    doc = {"n": graph.n, "edges": graph.edges}
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
