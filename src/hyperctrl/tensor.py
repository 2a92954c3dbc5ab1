"""Sparse supersymmetric tensors and the multilinear primitives built on them.

A tensor of order k and dimension n is stored as a map from sorted index
multisets (``patterns``) to a scalar: every index tuple realizing a stored
pattern carries that per-tuple coefficient, and every other entry is zero.
Supersymmetry therefore holds by construction. Tensor-vector products are
evaluated matrix-free by walking the stored patterns and enumerating, for
each pivot index, the distinct arrangements of the remaining pattern
elements; the arrangement tables are precomputed once per tensor. One
numpy kernel contracts them against batches of basis columns, chunked so
that the products held at once stay bounded.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class _Kernel:
    """Precomputed arrangement tables for the contraction kernel.

    One row per (pattern, pivot, arrangement), sorted by output index:
    ``slots[l]`` holds the node feeding slot l and ``coefs`` the per-tuple
    coefficient. The rows sharing an output index form one segment;
    ``starts`` gives each segment's first row and ``targets`` its output
    index. ``scale`` is the 2-norm of the per-segment sums of |coef|, 0 for
    a tensor without a nonzero coefficient: it bounds the norm of the
    tensor applied to unit-norm columns, and so sets the size of the
    rounding noise in a contracted column.
    """

    starts: np.ndarray   # (S,) first kernel row of each segment
    targets: np.ndarray  # (S,) 0-based output row of each segment, ascending
    slots: np.ndarray    # (k-1, R) 0-based node index per slot
    coefs: np.ndarray    # (R,)
    scale: float


# Cap on the (kernel rows x columns) products held at once: the multiset
# columns are contracted in chunks of at most this many products, or of a
# single column when one column alone needs more. A product array of
# 128 KiB stays in cache and is reused from the heap; arrays of up to 32 MiB
# (1 << 22 products) were mapped fresh from the OS and page-faulted on every
# call, which made the contraction memory-bound.
_CHUNK_ENTRIES = 1 << 14


def _apply_multisets(
    tensor: "AdjacencyTensor", basis: np.ndarray, ms: np.ndarray
) -> np.ndarray:
    """Contract the tensor against columns of ``basis`` selected by ``ms``.

    ``ms`` has shape (k-1, q); result column c is the tensor applied to the
    basis columns ms[0, c], ..., ms[k-2, c]. Chunking the columns bounds the
    working set without changing any column's arithmetic.
    """
    n = tensor.dim
    q = ms.shape[1]
    out = np.zeros((n, q))
    kern = tensor.kernel()
    if kern.coefs.size == 0 or q == 0:
        return out
    basis = np.asarray(basis, dtype=np.float64)
    ms = np.asarray(ms, dtype=np.intp)
    width = max(1, _CHUNK_ENTRIES // kern.coefs.size)
    for lo in range(0, q, width):
        cols = ms[:, lo : lo + width]
        prod = basis[:, cols[0]][kern.slots[0], :]
        for slots, col in zip(kern.slots[1:], cols[1:]):
            prod *= basis[:, col][slots, :]
        prod *= kern.coefs[:, None]
        sums = np.add.reduceat(prod, kern.starts, axis=0)
        out[kern.targets, lo : lo + width] += sums
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


def _build_kernel(tensor: AdjacencyTensor) -> _Kernel:
    k = tensor.order
    rows: list[int] = []
    coefs: list[float] = []
    slot_idx: list[list[int]] = [[] for _ in range(k - 1)]
    for pattern in sorted(tensor.entries):
        coef = tensor.entries[pattern]
        for pivot in sorted(set(pattern)):
            rest = list(pattern)
            rest.remove(pivot)
            for sigma in sorted(set(itertools.permutations(rest))):
                rows.append(pivot - 1)
                coefs.append(coef)
                for slot, node in enumerate(sigma):
                    slot_idx[slot].append(node - 1)
    row_arr = np.asarray(rows, dtype=np.intp)
    order = np.argsort(row_arr, kind="stable")
    sorted_rows = row_arr[order]
    starts = np.flatnonzero(np.diff(sorted_rows, prepend=-1))
    coef_arr = np.ascontiguousarray(np.asarray(coefs, dtype=np.float64)[order])
    # the 2-norm taken as max * norm(sums / max), so that no square leaves
    # the double range at any weight scale
    sums = np.add.reduceat(np.abs(coef_arr), starts)
    top = float(sums.max()) if sums.size else 0.0
    return _Kernel(
        starts=starts,
        targets=sorted_rows[starts],
        slots=np.ascontiguousarray(
            np.asarray(slot_idx, dtype=np.intp).reshape(k - 1, -1)[:, order]
        ),
        coefs=coef_arr,
        scale=top * float(np.linalg.norm(sums / top)) if top else 0.0,
    )


@dataclass(frozen=True)
class ControlMatrix:
    """Control attachment points: column j of B is the basis vector e_nodes[j].

    All input channels act with unit scale; the controllability rank is
    invariant under nonzero column rescaling, so nothing is lost. The nodes
    are checked against the tensor's [1, n] where a closure starts from them.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(int(j) for j in self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"control nodes must be distinct, got {self.nodes}")
