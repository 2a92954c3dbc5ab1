"""Independent oracles and small builders shared across the test modules.

The oracles recompute results from first principles (dense arrays, literal
definitions) so the sparse production paths are checked against genuinely
independent implementations. ``lemma1_check`` is the exception: it tests
the column-space lemma the closure relies on through the closure's own
expansion step.
"""
from __future__ import annotations

import itertools

import numpy as np

from hyperctrl import AdjacencyTensor, Hypergraph
from hyperctrl.controllability import _expansion_columns, _orthonormalize
from hyperctrl.hypergraph import _splitmix64

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
