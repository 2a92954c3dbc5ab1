"""Independent oracles and small builders shared across the test modules.

The oracles recompute results from first principles (dense arrays, literal
definitions, exact rational arithmetic) so the sparse production paths are
checked against genuinely independent implementations. ``lemma1_check``
tests the column-space lemma the closure relies on through the contraction
kernel and numpy's SVD alone, with none of the closure's own code.
``exact_mcn_reference`` and ``greedy_reference`` are the plain exhaustive
and greedy searches that the pruned ones must agree with.
``modular_closure_rank`` decides the closure rank over GF(p), exactly and
fast enough for hundreds of nodes. ``entry`` and ``ttv_multi`` are small
conveniences over the production storage and kernel.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import sympy

from hyperctrl import (
    AdjacencyTensor,
    ControlMatrix,
    Hypergraph,
    MCNResult,
    closure_basis,
    degrees,
)
from hyperctrl.hypergraph import _splitmix64
from hyperctrl.mcn import _component_ids
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


def max_eigen_multiplicity(tensor: AdjacencyTensor) -> int:
    """Largest multiplicity of an eigenvalue of an order-2 tensor, exactly.

    Every float entry converts to a rational exactly, and the multiplicity
    is the largest exponent in the factorization of the characteristic
    polynomial over the rationals. The matrix is symmetric, so algebraic and
    geometric multiplicities agree; by the PBH test no fewer than this many
    input columns make the pair (A, B) controllable.
    """
    if tensor.order != 2:
        raise ValueError(f"eigenvalue multiplicity needs order 2, got {tensor.order}")
    n = tensor.dim
    mat = sympy.zeros(n, n)
    for (i, j), coef in tensor.entries.items():
        mat[i - 1, j - 1] = mat[j - 1, i - 1] = sympy.Rational(coef)
    lam = sympy.Symbol("lam")
    _, factors = sympy.factor_list(mat.charpoly(lam).as_expr())
    return max(power for _, power in factors)


def exact_mcn_reference(
    tensor: AdjacencyTensor, tol: float | None = None, all_witnesses: bool = False
) -> MCNResult:
    """Exhaustive search that closes every subset cold, in plain order.

    Sizes in increasing order and, within a size, subsets in lexicographic
    order; a subset that leaves a connected component uncovered is skipped.
    The first full-rank subset wins, or with ``all_witnesses`` every one of
    the minimum size.
    """
    n = tensor.dim
    comp_ids = _component_ids(tensor)
    all_ids = frozenset(comp_ids)
    for m in range(1, n + 1):
        found = []
        for subset in itertools.combinations(range(1, n + 1), m):
            if {comp_ids[j - 1] for j in subset} != all_ids:
                continue
            if closure_basis(tensor, ControlMatrix(subset).matrix(n), tol=tol).rank == n:
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


def greedy_reference(
    tensor: AdjacencyTensor,
    tol: float | None = None,
    tie_break: str = "degree",
    seed: int | None = None,
) -> MCNResult:
    """Greedy search that evaluates every remaining candidate at every step.

    Candidates are closed warm from the chosen set's basis, as the pruned
    search does, so both see the same closures; ties on the gain go to the
    highest degree then lowest index, the lowest index, or a splitmix64 pick
    among the tied in index order.
    """
    n = tensor.dim
    node_degrees = degrees(tensor)
    basis = np.zeros((n, 0))
    chosen: list[int] = []
    trace: list[tuple] = []
    while basis.shape[1] < n:
        remaining = [j for j in range(1, n + 1) if j not in chosen]
        results = [
            closure_basis(tensor, ControlMatrix((j,)).matrix(n), tol=tol, closed=basis)
            for j in remaining
        ]
        best = max(res.rank for res in results)
        if best <= basis.shape[1]:
            raise ValueError("no candidate raises the rank")
        tied = [pos for pos, res in enumerate(results) if res.rank == best]
        if tie_break == "random":
            pick = tied[_splitmix64(seed, len(chosen)) % len(tied)]
        elif tie_break == "degree":
            pick = max(tied, key=lambda pos: (node_degrees[remaining[pos] - 1], -remaining[pos]))
        else:
            pick = tied[0]
        basis = results[pick].basis
        chosen.append(remaining[pick])
        trace.append((remaining[pick], basis.shape[1]))
    return MCNResult(
        value=len(chosen), witness=tuple(chosen), method="greedy", rank_trace=tuple(trace)
    )


def modular_closure_rank(
    tensor: AdjacencyTensor, control_nodes, primes=(67108859, 67108837)
) -> int:
    """Closure rank over GF(p), the larger over the given primes.

    Every double coefficient num / 2^e maps exactly to num * (2^e)^-1 mod p.
    The tensor is contracted term by term, as in ``exact_closure_rank``, in
    int64: with p < 2^26 a product of two residues stays under 2^52, and a
    sum of up to 2^11 of them under 2^63. The basis is kept in reduced
    echelon form mod p. A rank mod p never exceeds the rational rank, and
    equals it unless p divides every maximal minor; two primes make that
    coincidence remote.
    """
    return max(_rank_mod_p(tensor, control_nodes, p) for p in primes)


def _rank_mod_p(tensor: AdjacencyTensor, control_nodes, p: int) -> int:
    n, k = tensor.dim, tensor.order
    if n >= 1 << 11:
        raise ValueError(f"{n} nodes: an int64 dot product mod p overflows past 2047")
    rows, slots, coefs = [], [], []
    for pattern, coef in tensor.entries.items():
        num, den = float(coef).as_integer_ratio()
        c = num * pow(den, -1, p) % p
        for pivot in set(pattern):
            rest = list(pattern)
            rest.remove(pivot)
            for sigma in set(itertools.permutations(rest)):
                rows.append(pivot - 1)
                slots.append([j - 1 for j in sigma])
                coefs.append(c)
    rows = np.asarray(rows, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64).reshape(-1, k - 1).T
    coefs = np.asarray(coefs, dtype=np.int64)
    # ``vecs`` are the spanning vectors as they joined, and the tensor is
    # applied to their multisets; ``echelon`` spans the same space in
    # reduced echelon form, one row per entry of ``pivots``
    vecs: list[np.ndarray] = []
    echelon = np.zeros((0, n), dtype=np.int64)
    pivots: list[int] = []

    def add(ys: np.ndarray) -> None:
        nonlocal echelon
        for y in ys:
            if pivots:
                y = (y - y[pivots] @ echelon) % p
            nonzero = np.flatnonzero(y)
            if not nonzero.size:
                continue
            piv = int(nonzero[0])
            y = y * pow(int(y[piv]), -1, p) % p
            echelon = np.vstack([(echelon - np.outer(echelon[:, piv], y)) % p, y])
            pivots.append(piv)
            vecs.append(y)
            if len(pivots) == n:
                return

    add(np.eye(n, dtype=np.int64)[[j - 1 for j in control_nodes]])
    t = 0
    while t < len(pivots) < n:
        # every multiset of spanning vectors whose last member is vector t
        combos = np.array(
            [c + (t,) for c in itertools.combinations_with_replacement(range(t + 1), k - 2)],
            dtype=np.intp,
        ).reshape(-1, k - 1)
        frozen = np.array(vecs[: t + 1])
        prod = np.broadcast_to(coefs[:, None], (len(coefs), len(combos))).copy()
        for slot, members in zip(slots, combos.T):
            prod = prod * frozen[members][:, slot].T % p
        ys = np.zeros((len(combos), n), dtype=np.int64)
        np.add.at(ys.T, rows, prod)
        add(ys % p)
        t += 1
    return len(pivots)


def multiset_columns(tensor: AdjacencyTensor, X: np.ndarray) -> np.ndarray:
    """Tensor applied to every multiset of X's columns, one column each."""
    ms = np.array(
        list(itertools.combinations_with_replacement(range(X.shape[1]), tensor.order - 1)),
        dtype=np.intp,
    ).reshape(-1, tensor.order - 1)
    return _apply_multisets(tensor, X, ms.T)


def _svd_rank(mat: np.ndarray, cutoff: float) -> int:
    if mat.shape[1] == 0:
        return 0
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > cutoff))


def lemma1_check(
    tensor: AdjacencyTensor, X: np.ndarray, tol: float | None = None
) -> bool:
    """Whether replacing X by its left singular vectors preserves the
    expansion column space.

    Compares the span of the tensor applied to multisets of X's columns with
    the span obtained from X's left singular vectors, by checking that each
    rank matches the rank of the concatenation. The default cutoff is
    max(rows, cols) * eps * sigma_max; a given tol is an absolute cutoff.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != tensor.dim:
        raise ValueError(f"X has shape {X.shape}, expected ({tensor.dim}, m)")
    eps = np.finfo(np.float64).eps
    u, s, _ = np.linalg.svd(X, full_matrices=False)
    u = u[:, s > (tol if tol is not None else max(X.shape) * eps * s.max(initial=0.0))]
    p = multiset_columns(tensor, X)
    q = multiset_columns(tensor, u)
    both = np.hstack([p, q])
    if both.shape[1] == 0:
        return True
    sv = np.linalg.svd(both, compute_uv=False)
    cutoff = tol if tol is not None else max(both.shape) * eps * sv.max(initial=0.0)
    r_both = int(np.sum(sv > cutoff))
    return _svd_rank(p, cutoff) == r_both and _svd_rank(q, cutoff) == r_both


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
