"""Sparse supersymmetric tensors and their contraction over GF(p).

A tensor of order k and dimension n is stored as a map from sorted index
multisets (``patterns``) to a scalar: every index tuple realizing a stored
pattern carries that per-tuple coefficient, and every other entry is zero.
Supersymmetry therefore holds by construction.

Ranks are decided over GF(p), so the kernel stores one row per (pattern,
node), weighted by the arrangement count: the coefficient's residue times
the number of distinct orders of the rest, which all give one product. A
double num / 2^e maps exactly to num * (2^e)^-1 mod p. The prime starts at
2^20 - 3 and steps down to the next prime while a nonzero coefficient's
numerator is a multiple of it, so no stored weight turns into a zero.
``_build_kernel`` reads the stored patterns as one array, k nodes a row,
and finds each node's run and the rest of its row by comparing entries.
``_apply_polar`` gives T(x, ..., x) mod p in int64 and reduces once per two
slots: a residue times two more stays below 2^60, and every value that
enters the row sums is below p.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# The largest prime below 2^20: three residues below it multiply to under
# 2^60 in int64, and a sum of up to 2^43 residues still fits.
_PRIME = 1048573


@dataclass
class _Kernel:
    """Precomputed row tables for the contraction kernel.

    One row per (pattern, node), weighted by the arrangement count, sorted by
    output index: ``slots[l]`` holds the node feeding slot l and ``coefs``
    the per-tuple coefficient's residue times the count, mod ``prime``. The
    rows sharing an output index form one segment; ``starts`` gives each
    segment's first row and ``targets`` its output index.
    """

    starts: np.ndarray   # (S,) first kernel row of each segment
    targets: np.ndarray  # (S,) 0-based output row of each segment, ascending
    slots: np.ndarray    # (k-1, R) 0-based node index per slot
    coefs: np.ndarray    # (R,) int64 residues mod prime
    prime: int


def _apply_polar(tensor: "AdjacencyTensor", x: np.ndarray) -> np.ndarray:
    """T(x, ..., x) mod p for each column x of ``x`` (n rows of residues)."""
    kern = tensor.kernel()
    p = kern.prime
    out = np.zeros_like(x)
    if not kern.coefs.size:
        return out
    # a residue times two more stays under 2^60; reduce once per two slots,
    # so every value reaching the sum is below p
    prod = kern.coefs[:, None]
    for pair in range(0, len(kern.slots), 2):
        for slots in kern.slots[pair:pair + 2]:
            prod = prod * x.take(slots, axis=0)
        prod %= p
    out[kern.targets] = np.add.reduceat(prod, kern.starts, axis=0) % p
    return out


@dataclass(frozen=True)
class AdjacencyTensor:
    """Order-k, dimension-n supersymmetric tensor in pattern-sparse form.

    ``entries`` maps a sorted index multiset (1-based node indices, length k)
    to the coefficient carried by every index tuple realizing that multiset.
    ``order`` and ``dim`` are immutable after construction.
    """

    order: int
    dim: int
    entries: dict
    _kernel: _Kernel | None = field(default=None, init=False, repr=False, compare=False)
    _incidence: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"tensor order must be >= 2, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"tensor dimension must be >= 1, got {self.dim}")
        for pattern, value in self.entries.items():
            if len(pattern) != self.order:
                raise ValueError(
                    f"pattern {pattern} has length {len(pattern)}, expected {self.order}"
                )
            if tuple(sorted(pattern)) != tuple(pattern):
                raise ValueError(f"pattern {pattern} is not sorted")
            if not all(1 <= j <= self.dim for j in pattern):
                raise ValueError(f"pattern {pattern} has indices outside [1, {self.dim}]")
            if not math.isfinite(value):
                raise ValueError(f"pattern {pattern} carries non-finite weight {value!r}")

    def kernel(self) -> _Kernel:
        if self._kernel is None:
            object.__setattr__(self, "_kernel", _build_kernel(self))
        return self._kernel

    def incidence(self) -> list:
        """Per node, 0-based: one ``(rest, coef, count)`` from
        ``_arrangements`` for each stored pattern that holds the node, in
        pattern order, with the pattern's coefficient; a node in no pattern
        has none."""
        if self._incidence is None:
            try:  # one request, so a huge dimension fails at once
                table: list = [()] * self.dim
            except MemoryError:
                raise MemoryError(f"an incidence index for {self.dim} nodes") from None
            for pattern, coef in self.entries.items():
                for pivot, rest, count in _arrangements(pattern):
                    row = table[pivot - 1] or []
                    row.append((rest, coef, count))
                    table[pivot - 1] = row
            object.__setattr__(self, "_incidence", table)
        return self._incidence


def _arrangements(pattern):
    """(pivot, rest, count) per distinct node of a sorted pattern, pivots
    ascending: ``rest`` is the pattern less one pivot, still sorted, and
    ``count`` its number of distinct orders, (k-1)! m_pivot / prod m_v!."""
    mult = Counter(pattern)
    fact = math.factorial(len(pattern) - 1)
    denom = math.prod(map(math.factorial, mult.values()))
    for pivot, m in mult.items():
        i = pattern.index(pivot)
        yield pivot, pattern[:i] + pattern[i + 1:], fact * m // denom


def degrees(tensor: AdjacencyTensor) -> np.ndarray:
    """Node degrees: the tensor summed over its trailing modes, per stored
    pattern; for an unweighted hypergraph, each node's edge membership count.
    Sums are exactly rounded, so twins tie and pattern order does not count;
    one whose exact value is past the float range reads inf."""
    return np.array([
        _exact_sum([coef * count for _, coef, count in row]) for row in tensor.incidence()
    ])


def _exact_sum(terms: list) -> float:
    try:
        return math.fsum(terms)
    except OverflowError:  # positive terms: the sum is past the largest float
        return math.inf


def _build_kernel(tensor: AdjacencyTensor) -> _Kernel:
    k = tensor.order
    values = tensor.entries.values()
    ratios = {value: value.as_integer_ratio() for value in set(map(float, values))}
    p = _PRIME
    while any(num % p == 0 for num, _ in ratios.values() if num):
        p -= 2
        while any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            p -= 2
    residue = {value: num * pow(den, -1, p) % p for value, (num, den) in ratios.items()}
    size = len(values)
    if not size:  # cheap for the many one-node pieces of a sparse graph
        empty = np.zeros(0, dtype=np.intp)
        return _Kernel(empty, empty, np.zeros((k - 1, 0), dtype=np.intp), empty.astype(np.int64), p)
    # the stored patterns, one row of k 0-based nodes each, read flat
    flat = np.fromiter(itertools.chain.from_iterable(tensor.entries), dtype=np.intp, count=size * k)
    flat -= 1
    # each node's first place in its sorted row, pivots ascending, and the
    # order of those rows stably by output node
    head = np.ones(size * k, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=head[1:])
    head[::k] = True
    first = np.flatnonzero(head)
    order = np.argsort(flat.take(first), kind="stable")
    weight = np.fromiter(map(residue.__getitem__, map(float, values)), dtype=np.int64, count=size)
    coefs = _row_coefs(first, weight, k, p).take(order)
    first = first.take(order)
    rows = flat.take(first)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    # the rest of a row less its node in column c: every other column, in
    # order, as offsets from c
    rest = np.array([[j - c for j in range(k) if j != c] for c in range(k)], dtype=np.intp)
    return _Kernel(
        starts=starts,
        targets=rows.take(starts),
        slots=flat.take((rest.take(first % k, axis=0) + first[:, None]).T),
        coefs=coefs,
        prime=p,
    )


def _row_coefs(first: np.ndarray, weight: np.ndarray, k: int, p: int) -> np.ndarray:
    """Per node's first place ``first`` in the flat patterns, its pattern's
    residue ``weight`` times the arrangement count (k-1)! m / prod m_v!, mod
    p: m is the length of the node's run, and each run of the pattern gives
    a 1/m_v!."""
    size = len(weight)
    mult = np.diff(first, append=size * k)
    fact = [1]
    for i in range(1, k + 1):
        fact.append(fact[-1] * i % p)
    inverse = np.ones(size * k, dtype=np.int64)
    inverse[first] = np.array([pow(f, -1, p) for f in fact], dtype=np.int64).take(mult)
    for column in inverse.reshape(size, k).T:
        weight = weight * column % p
    coefs = weight.take(first // k)
    coefs *= mult
    coefs %= p
    coefs *= fact[k - 1]
    coefs %= p
    return coefs


@dataclass(frozen=True)
class ControlMatrix:
    """Control attachment points: column j of B is the basis vector e_nodes[j].

    All input channels act with unit gain; the controllability rank is
    invariant under nonzero column rescaling, so nothing is lost. The nodes
    are checked against the tensor's [1, n] where a closure starts from them.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(int(j) for j in self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"control nodes must be distinct, got {self.nodes}")
