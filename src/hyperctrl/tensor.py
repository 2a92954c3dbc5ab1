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
``_apply_polar`` gives T(x, ..., x) mod p, in int64 with a reduction after
each slot, so no product exceeds 2^40.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# The largest prime below 2^20: residues below it multiply to under 2^40 in
# int64, and sums of 2^23 such products still fit.
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
    prod = kern.coefs[:, None] * x[kern.slots[0]] % p
    for slots in kern.slots[1:]:
        prod = prod * x[slots] % p
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
