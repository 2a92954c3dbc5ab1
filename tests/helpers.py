"""Independent oracles and small builders shared across the test modules.

The oracles recompute results from first principles (dense arrays, literal
definitions, exact rational arithmetic) so the sparse production paths are
checked against genuinely independent implementations.
``exact_mcn_reference`` and ``greedy_reference`` are the plain exhaustive
and greedy searches that the pruned ones must agree with.
``modular_closure_rank`` decides the closure rank over GF(p), exactly and
fast enough for hundreds of nodes. ``entry`` reads one entry of the
production storage. ``ttv_multi`` (in floats) and ``contract_mod_p``
(exactly, then mod p) contract the tensor term by term from its stored
patterns, with none of the production kernel. ``kernel_reference`` builds
the kernel one pattern at a time, as the array build must match.
``REFERENCE_GRID`` is the named set of small graphs that several modules
check against their oracles. ``overlap_variant_reference``,
``complete_reference`` and ``random_uniform_reference`` build each
generator's edges into a list first, as the generators once did; the
streaming generators must give the same edges and errors.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import sympy

from hyperctrl import (
    AdjacencyTensor,
    Hypergraph,
    MCNResult,
    closure_basis,
    complete,
    connected_components,
    degrees,
    hyperchain,
    hyperring,
    hyperstar,
    overlap_variant,
    random_uniform,
)
from hyperctrl.hypergraph import _splitmix64
from hyperctrl.tensor import _PRIME, _Kernel, _arrangements

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


def _terms(tensor: AdjacencyTensor):
    """One (output row, slot rows, coefficient) per index tuple (i, j_1,
    ..., j_{k-1}) that realizes a stored pattern, all 0-based."""
    for pattern, coef in tensor.entries.items():
        for pivot in set(pattern):
            rest = [j - 1 for j in pattern]
            rest.remove(pivot - 1)
            for sigma in set(itertools.permutations(rest)):
                yield pivot - 1, sigma, coef


def ttv_multi(tensor: AdjacencyTensor, vectors) -> np.ndarray:
    """Contract the tensor with k-1 vectors, in floats."""
    out = np.zeros(tensor.dim)
    for i, sigma, coef in _terms(tensor):
        prod = coef
        for v, j in zip(vectors, sigma):
            prod *= v[j]
        out[i] += prod
    return out


def contract_mod_p(tensor: AdjacencyTensor, vectors, p: int) -> list:
    """Contract the tensor with k-1 integer vectors in exact rationals, then
    reduce each entry a/b to a * b^-1 mod p. The integer products are summed
    per (output row, coefficient) first, so only those sums meet a rational."""
    vectors = [[int(a) for a in v] for v in vectors]
    sums: list[dict] = [{} for _ in range(tensor.dim)]
    for i, sigma, coef in _terms(tensor):
        prod = math.prod([v[j] for v, j in zip(vectors, sigma)])
        sums[i][coef] = sums[i].get(coef, 0) + prod
    out = [sum((Fraction(c) * s for c, s in row.items()), Fraction(0)) for row in sums]
    return [a.numerator * pow(a.denominator, -1, p) % p for a in out]


def kernel_reference(tensor: AdjacencyTensor) -> _Kernel:
    """The contraction kernel built one stored pattern at a time: a row per
    (pattern, node) from ``_arrangements``, then sorted stably by output
    row. ``tensor._build_kernel`` must give these arrays exactly."""
    k = tensor.order
    ratios = {value: value.as_integer_ratio() for value in map(float, tensor.entries.values())}
    p = _PRIME
    while any(num % p == 0 for num, _ in ratios.values() if num):
        p -= 2
        while any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            p -= 2
    residue = {value: num * pow(den, -1, p) % p for value, (num, den) in ratios.items()}
    rows: list[int] = []
    coefs: list[int] = []
    slot_idx: list[list[int]] = [[] for _ in range(k - 1)]
    for pattern, value in tensor.entries.items():
        coef = residue[float(value)]
        for pivot, rest, count in _arrangements(pattern):
            rows.append(pivot - 1)
            coefs.append(coef * count % p)
            for slot, node in enumerate(rest):
                slot_idx[slot].append(node - 1)
    row_arr = np.asarray(rows, dtype=np.intp)
    order = np.argsort(row_arr, kind="stable")
    sorted_rows = row_arr[order]
    starts = np.flatnonzero(np.diff(sorted_rows, prepend=-1))
    return _Kernel(
        starts=starts,
        targets=sorted_rows[starts],
        slots=np.ascontiguousarray(
            np.asarray(slot_idx, dtype=np.intp).reshape(k - 1, -1)[:, order]
        ),
        coefs=np.asarray(coefs, dtype=np.int64)[order],
        prime=p,
    )


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
    terms = [(i, sigma, Fraction(coef)) for i, sigma, coef in _terms(tensor)]
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


def exact_mcn_reference(tensor: AdjacencyTensor) -> MCNResult:
    """Exhaustive search that closes every subset cold, in plain order.

    Sizes in increasing order and, within a size, subsets in lexicographic
    order; a subset that leaves a connected component uncovered is skipped.
    The first full-rank subset wins.
    """
    n = tensor.dim
    comp_ids = [0] * n
    for cid, comp in enumerate(connected_components(tensor)):
        for j in comp.nodes:
            comp_ids[j - 1] = cid
    all_ids = frozenset(comp_ids)
    for m in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), m):
            if {comp_ids[j - 1] for j in subset} != all_ids:
                continue
            if closure_basis(tensor, subset).rank == n:
                return MCNResult(value=m, witness=subset)
    raise ValueError(f"no set of the {n} nodes reaches full rank")


def greedy_reference(tensor: AdjacencyTensor) -> MCNResult:
    """Greedy search that evaluates every remaining candidate at every step.

    Candidates are closed warm from the chosen set's basis, as the pruned
    search does, so both see the same closures; ties on the gain go to the
    highest degree, then the lowest index.
    """
    n = tensor.dim
    node_degrees = degrees(tensor)
    basis = np.zeros((n, 0))
    chosen: list[int] = []
    trace: list[tuple] = []
    while basis.shape[1] < n:
        remaining = [j for j in range(1, n + 1) if j not in chosen]
        results = [
            closure_basis(tensor, (j,), closed=basis)
            for j in remaining
        ]
        best = max(res.rank for res in results)
        if best <= basis.shape[1]:
            raise ValueError("no candidate raises the rank")
        tied = [pos for pos, res in enumerate(results) if res.rank == best]
        pick = max(tied, key=lambda pos: (node_degrees[remaining[pos] - 1], -remaining[pos]))
        basis = results[pick].basis
        chosen.append(remaining[pick])
        trace.append((remaining[pick], basis.shape[1]))
    return MCNResult(value=len(chosen), witness=tuple(chosen), rank_trace=tuple(trace))


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
    for i, sigma, coef in _terms(tensor):
        num, den = float(coef).as_integer_ratio()
        rows.append(i)
        slots.append(sigma)
        coefs.append(num * pow(den, -1, p) % p)
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


# A weighted graph with twin hubs 1 and 2. Summed in this edge order, one
# addition at a time, their degrees came out 4.2 and 4.200000000000001.
TWIN_HUBS = {
    "n": 8,
    "edges": [[2, 4], [1, 8], [1, 6], [1, 3], [2, 6], [1, 7],
              [2, 7], [2, 5], [2, 8], [1, 4], [1, 5], [2, 3]],
    "weights": [0.2, 0.2, 2.3, 1.1, 2.3, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 1.1],
}


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


def reference_grid():
    """Family, random, weighted mixed-cardinality, disconnected and overlap
    variant graphs."""
    for n in range(5, 10):
        for k in (3, 4):
            yield f"chain-{n}-{k}", hyperchain(n, k)
            yield f"ring-{n}-{k}", hyperring(n, k)
            if n < 9:
                yield f"star-{n}-{k}", hyperstar(n, k)
            if n < 8:
                yield f"complete-{n}-{k}", complete(n, k)
    for k, density in ((2, 0.3), (3, 0.15), (4, 0.05)):
        for seed in range(1, 7):
            n = 6 + seed % 3
            yield f"random-{n}-{k}-{seed}", random_uniform(n, k, density, seed)
    for seed in range(1, 7):
        g = random_mixed_hypergraph(seed, 6 + seed % 2, 4)
        weights = tuple(seeded_floats(seed, len(g.edges), lo=0.5, hi=4.0))
        yield f"mixed-{seed}", Hypergraph(g.n, g.edges, weights=weights)
    yield "disconnected", Hypergraph(9, ((1, 2, 3), (2, 3, 4), (5, 6, 7)))
    for n in (10, 11):
        for k, r in ((3, 1), (4, 1), (4, 2)):
            for family in ("chain", "ring", "star"):
                try:
                    graph = overlap_variant(n, k, r, family)
                except ValueError:
                    continue  # the variant does not tile n
                yield f"r-{family}-{n}-{k}-{r}", graph


REFERENCE_GRID = dict(reference_grid())


def overlap_variant_reference(n: int, k: int, r: int, family: str) -> Hypergraph:
    """Chain, ring or star with r shared nodes, built as a list of edges.

    Raises what ``overlap_variant`` raises, except that its tiling message
    stops at the parameters and it has no byte guard. A ring on n = k nodes
    below r = k-1 repeats its one window, and ``Hypergraph`` refuses it.
    """
    if k < 2:
        raise ValueError(f"edge cardinality must be >= 2, got k={k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if not 0 < r < k:
        raise ValueError(f"need 0 < r < k, got r={r}, k={k}")
    if family not in ("chain", "ring", "star"):
        raise ValueError(f"unknown family {family!r}")
    stride = k - r
    if family == "ring":
        tiles = n % stride == 0 and (r == k - 1 or n >= 3 * stride)
    else:
        tiles = (n - k) % stride == 0
    if not tiles:
        raise ValueError(f"no {r}-overlap {family} on n={n} nodes with k={k}")
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


def complete_reference(n: int, k: int) -> Hypergraph:
    """All C(n, k) edges, listed before the hypergraph is built."""
    return Hypergraph(n=n, edges=tuple(itertools.combinations(range(1, n + 1), k)))


def random_uniform_reference(n: int, k: int, density: float, seed: int) -> Hypergraph:
    """``random_uniform``'s edges kept in a list, with its parameter checks
    and no size guard."""
    if k < 2:
        raise ValueError(f"edge cardinality must be >= 2, got k={k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    seed &= (1 << 64) - 1
    edges = []
    for counter, edge in enumerate(itertools.combinations(range(1, n + 1), k)):
        u = (_splitmix64(seed, counter) >> 11) / float(1 << 53)
        if u < density:
            edges.append(edge)
    return Hypergraph(n=n, edges=tuple(edges))
