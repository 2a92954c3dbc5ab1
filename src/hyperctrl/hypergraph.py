"""Hypergraph data model, adjacency tensor construction, and generators.

Nodes are 1-based everywhere. Edges are sets of at least two distinct nodes.
A hypergraph maps to one order-k adjacency tensor, k the largest edge
cardinality: an edge of cardinality s fills every length-k index multiset
that uses each of its nodes, with a per-tuple coefficient chosen so node
degrees are preserved. On uniform input that is weight/(k-1)! on the tuples
of each edge.
"""
from __future__ import annotations

import itertools
import json
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

    def membership_counts(self) -> np.ndarray:
        """Number of edges containing each node (weighted when applicable)."""
        counts = np.zeros(self.n)
        for idx, edge in enumerate(self.edges):
            for j in edge:
                counts[j - 1] += self.edge_weight(idx)
        return counts


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


def hyperchain(n: int, k: int) -> Hypergraph:
    """Chain of n nodes where every k consecutive nodes form an edge."""
    _check_nk(n, k)
    edges = [tuple(range(j, j + k)) for j in range(1, n - k + 2)]
    return Hypergraph(n=n, edges=tuple(edges))


def hyperring(n: int, k: int) -> Hypergraph:
    """Cyclic chain; coinciding windows (n = k) collapse to a single edge."""
    _check_nk(n, k)
    seen = set()
    edges = []
    for j in range(n):
        window = tuple(sorted((j + t) % n + 1 for t in range(k)))
        if window not in seen:
            seen.add(window)
            edges.append(window)
    return Hypergraph(n=n, edges=tuple(edges))


def hyperstar(n: int, k: int) -> Hypergraph:
    """k-1 internal nodes shared by all edges, one leaf per edge."""
    _check_nk(n, k)
    if n == k - 1:
        raise ValueError(f"hyperstar needs at least one leaf: n={n}, k={k}")
    core = tuple(range(1, k))
    edges = [core + (leaf,) for leaf in range(k, n + 1)]
    return Hypergraph(n=n, edges=tuple(edges))


def complete(n: int, k: int) -> Hypergraph:
    """All C(n, k) edges."""
    _check_nk(n, k)
    return Hypergraph(n=n, edges=tuple(itertools.combinations(range(1, n + 1), k)))


def _feasible_examples(start: int, stride: int, count: int = 3) -> str:
    return ", ".join(str(start + i * stride) for i in range(count)) + ", ..."


def overlap_variant(n: int, k: int, r: int, family: str) -> Hypergraph:
    """Chain/ring/star where consecutive edges share exactly r nodes.

    Edges advance by k-r nodes, so the node count must tile: chains and
    stars need (n - k) divisible by k - r, rings need n divisible by k - r
    (the cycle must close) with at least three edges. r = k-1 reproduces the
    plain family.
    """
    if not 0 < r < k:
        raise ValueError(f"need 0 < r < k, got r={r}, k={k}")
    _check_nk(n, k)
    if r == k - 1:
        base = {"chain": hyperchain, "ring": hyperring, "star": hyperstar}
        if family not in base:
            raise ValueError(f"unknown family {family!r}")
        return base[family](n, k)
    stride = k - r
    if family == "chain":
        if (n - k) % stride != 0:
            raise ValueError(
                f"no {r}-overlap chain on n={n} nodes with k={k}: need (n - k) "
                f"divisible by {stride}; feasible n: "
                + _feasible_examples(k, stride)
            )
        edges = [
            tuple(range(start, start + k))
            for start in range(1, n - k + 2, stride)
        ]
        return Hypergraph(n=n, edges=tuple(edges))
    if family == "ring":
        p = n // stride
        if n % stride != 0 or p < 3:
            raise ValueError(
                f"no {r}-overlap ring on n={n} nodes with k={k}: need n "
                f"divisible by {stride} with at least 3 edges; feasible n: "
                + _feasible_examples(3 * stride, stride)
            )
        edges = []
        for i in range(p):
            start = i * stride
            edges.append(tuple(sorted((start + t) % n + 1 for t in range(k))))
        return Hypergraph(n=n, edges=tuple(edges))
    if family == "star":
        if (n - k) % stride != 0:
            raise ValueError(
                f"no {r}-overlap star on n={n} nodes with k={k}: need (n - k) "
                f"divisible by {stride}; feasible n: "
                + _feasible_examples(k, stride)
            )
        core = tuple(range(1, r + 1))
        edges = []
        leaf = r + 1
        while leaf + stride - 1 <= n:
            edges.append(core + tuple(range(leaf, leaf + stride)))
            leaf += stride
        return Hypergraph(n=n, edges=tuple(edges))
    raise ValueError(f"unknown family {family!r}")


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


def dumps(graph: Hypergraph) -> str:
    return json.dumps(to_json_dict(graph), sort_keys=True)


def loads(text: str) -> Hypergraph:
    return from_json_dict(json.loads(text))
