"""Independent oracles and small builders shared across the test modules.

The oracles recompute results from first principles (dense arrays, literal
definitions, exact rational arithmetic) so the sparse production paths are
checked against genuinely independent implementations. ``lemma1_check`` is
the exception: it tests the column-space lemma the closure relies on
through the closure's own expansion step. ``entry`` and ``ttv_multi`` are
small conveniences over the production storage and kernel.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from hyperctrl import AdjacencyTensor, Hypergraph
from hyperctrl.controllability import _expansion_columns, _orthonormalize
from hyperctrl.hypergraph import _splitmix64
from hyperctrl.tensor import _apply_multisets

# Dense materialization allocates n^k entries; refuse anything above this.
MAX_DENSE_ENTRIES = 10**6


def dense_tensor(tensor: AdjacencyTensor) -> np.ndarray:
    """Materialize the full n^k array."""
    n, k = tensor.dim, tensor.order
    if n**k > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"dense materialization of {n}^{k} entries exceeds the "
            f"{MAX_DENSE_ENTRIES} guard"
        )
    dense = np.zeros((n,) * k)
    for pattern, coef in tensor.entries.items():
        for tup in set(itertools.permutations(pattern)):
            dense[tuple(j - 1 for j in tup)] = coef
    return dense


def entry(tensor: AdjacencyTensor, indices) -> float:
    """Tensor entry at an index tuple; invariant under index permutation."""
    return tensor.entries.get(tuple(sorted(indices)), 0.0)


def ttv_multi(tensor: AdjacencyTensor, vectors) -> np.ndarray:
    """Contract the tensor with k-1 vectors through the sparse kernel."""
    ms = np.arange(tensor.order - 1, dtype=np.intp).reshape(-1, 1)
    return _apply_multisets(tensor, np.column_stack(vectors), ms)[:, 0]


def dense_ttv(tensor: AdjacencyTensor, vectors) -> np.ndarray:
    """Naive full contraction over all n^(k-1) index tuples."""
    dense = dense_tensor(tensor)
    out = dense
    for v in vectors:
        # contract the last axis each time; symmetric so order is irrelevant
        out = np.tensordot(out, np.asarray(v, dtype=float), axes=([out.ndim - 1], [0]))
    return out


def dense_subspace_rank(tensor: AdjacencyTensor, control_nodes, tol=1e-9) -> int:
    """Literal iterative-span construction over full argument tuples.

    Starts from the control columns and repeatedly appends the dense tensor
    applied to every (k-1)-tuple of current basis columns, re-deriving an
    orthonormal basis each round, for n rounds.
    """
    n, k = tensor.dim, tensor.order
    cols = [np.eye(n)[:, j - 1] for j in control_nodes]
    if not cols:
        return 0
    basis = _orth_dense(np.column_stack(cols), tol)
    for _ in range(n):
        generated = [
            dense_ttv(tensor, combo)
            for combo in itertools.product(list(basis.T), repeat=k - 1)
        ]
        stacked = np.column_stack([basis] + [g.reshape(-1, 1) for g in generated])
        basis = _orth_dense(stacked, tol)
    return basis.shape[1]


def _orth_dense(mat: np.ndarray, tol: float) -> np.ndarray:
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > tol]


def kalman_rank(adjacency: np.ndarray, control_nodes, tol=1e-9) -> int:
    """Classical controllability-matrix rank [B, AB, ..., A^(n-1)B]."""
    n = adjacency.shape[0]
    B = np.zeros((n, len(control_nodes)))
    for col, j in enumerate(control_nodes):
        B[j - 1, col] = 1.0
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(adjacency @ blocks[-1])
    return int(np.linalg.matrix_rank(np.hstack(blocks), tol=tol))


def exact_closure_rank(tensor: AdjacencyTensor, control_nodes) -> int:
    """Closure rank in exact rational arithmetic.

    Every float entry converts to a ``Fraction`` exactly. The span closure
    does not depend on the choice of basis, so it is enough to apply the
    tensor to the multisets of an echelon basis: each multiset is contracted
    once, when its last member joins the basis, term by term from
    ``tensor.entries``, and its result is reduced against the basis.
    """
    n, k = tensor.dim, tensor.order
    # one term per index tuple (i, j_1, ..., j_{k-1}) realizing a pattern
    terms = []
    for pattern, coef in tensor.entries.items():
        c = Fraction(coef)
        for pivot in set(pattern):
            rest = list(pattern)
            rest.remove(pivot)
            for sigma in set(itertools.permutations(rest)):
                terms.append((pivot - 1, tuple(j - 1 for j in sigma), c))
    basis: list[list[Fraction]] = []
    pivots: list[int] = []

    def add(y: list) -> None:
        for b, p in zip(basis, pivots):
            if y[p]:
                f = y[p]
                y = [a - f * v for a, v in zip(y, b)]
        p = next((i for i, a in enumerate(y) if a), None)
        if p is not None:
            basis.append([a / y[p] for a in y])
            pivots.append(p)

    for j in control_nodes:
        y = [Fraction(0)] * n
        y[j - 1] = Fraction(1)
        add(y)
    t = 0
    while t < len(basis) < n:
        for combo in itertools.combinations_with_replacement(range(t + 1), k - 2):
            vecs = [basis[s] for s in combo + (t,)]
            y = [Fraction(0)] * n
            for i, sigma, c in terms:
                prod = c
                for v, node in zip(vecs, sigma):
                    if not v[node]:
                        break
                    prod *= v[node]
                else:
                    y[i] += prod
            add(y)
            if len(basis) == n:
                break
        t += 1
    return len(basis)


def lemma1_check(
    tensor: AdjacencyTensor, X: np.ndarray, tol: float | None = None
) -> bool:
    """Whether replacing X by its left singular vectors preserves the
    expansion column space.

    Compares the span of the tensor applied to multisets of X's columns with
    the span obtained from the orthonormalized X, by checking that each rank
    matches the rank of the concatenation.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != tensor.dim:
        raise ValueError(f"X has shape {X.shape}, expected ({tensor.dim}, m)")
    u, _ = _orthonormalize(X, tol)
    p = _expansion_columns(tensor, X)
    q = _expansion_columns(tensor, u)
    both = np.hstack([p, q])
    if both.shape[1] == 0:
        return True
    sv = np.linalg.svd(both, compute_uv=False)
    if tol is not None:
        cutoff = tol
    else:
        cutoff = max(both.shape) * np.finfo(np.float64).eps * (sv[0] if sv.size else 0.0)

    def rank_at(mat: np.ndarray) -> int:
        if mat.shape[1] == 0:
            return 0
        vals = np.linalg.svd(mat, compute_uv=False)
        return int(np.sum(vals > cutoff))

    r_both = int(np.sum(sv > cutoff))
    return rank_at(p) == r_both and rank_at(q) == r_both


def membership_counts(graph: Hypergraph) -> np.ndarray:
    """Number of edges containing each node (weighted when applicable)."""
    counts = np.zeros(graph.n)
    for idx, edge in enumerate(graph.edges):
        for j in edge:
            counts[j - 1] += graph.edge_weight(idx)
    return counts


def seeded_floats(seed: int, count: int, lo=-1.0, hi=1.0) -> np.ndarray:
    """Deterministic, platform-stable uniform floats from splitmix64."""
    vals = np.array(
        [(_splitmix64(seed, i) >> 11) / float(1 << 53) for i in range(count)]
    )
    return lo + (hi - lo) * vals


def seeded_ints(seed: int, count: int, bound: int) -> list:
    return [_splitmix64(seed, i) % bound for i in range(count)]


def random_hypergraph(seed: int, n: int, k: int, density=0.4) -> Hypergraph:
    """Seeded uniform hypergraph (thin wrapper kept for test readability)."""
    from hyperctrl import random_uniform

    return random_uniform(n, k, density, seed)


def random_mixed_hypergraph(seed: int, n: int, max_card: int) -> Hypergraph:
    """Seeded hypergraph with mixed edge cardinalities between 2 and max_card."""
    candidates = []
    for s in range(2, max_card + 1):
        candidates.extend(itertools.combinations(range(1, n + 1), s))
    edges = []
    for i, edge in enumerate(candidates):
        if (_splitmix64(seed, i) >> 11) / float(1 << 53) < 0.25:
            edges.append(edge)
    if not edges:
        edges = [candidates[_splitmix64(seed, len(candidates)) % len(candidates)]]
    return Hypergraph(n=n, edges=tuple(edges))
