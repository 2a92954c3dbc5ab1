"""Reduced controllability matrix and rank verdicts.

The controllability subspace is the closure of the control nodes' unit
columns e_j under the tensor map. It grows in frontier (semi-naive) rounds:
a round applies the tensor only to the multisets of basis columns that hold
a column added in the round before. Each result is divided by the tensor's cached
scale (see ``_Kernel``), and one whose norm is then at or under the rounding
floor n * 4 * eps is dropped as rounding noise. Every other result is scaled
to unit norm and projected out of the basis twice, and an SVD of that
residual keeps the singular values above the cutoff n * 1e-10. The rounds
stop at rank n or when one adds nothing.
``closure_basis`` is the one way in for ``verdict`` and the MCN searches.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import AdjacencyTensor, ControlMatrix, _apply_multisets

# A round hands its multiset columns to ``_extend`` in groups of at most this
# many (kernel rows x columns) products. The grouping decides which residuals
# share an SVD, and so every bit of the basis; the contraction bounds its own
# working set with ``tensor._CHUNK_ENTRIES``.
_GROUP_ENTRIES = 1 << 22


class VerdictKind(Enum):
    STRONG = "strong-controllability"
    ACCESSIBILITY = "accessibility-only"


@dataclass(frozen=True)
class ReducedControllabilityMatrix:
    """Orthonormal basis of the controllability subspace.

    ``rank`` equals the column count of ``basis``; ``iterations`` counts the
    frontier rounds executed. A residual direction counts when its singular
    value exceeds n * 1e-10. Before that cutoff applies, every contracted
    column is divided by a scale that bounds the tensor applied to unit
    columns, and one at or under the rounding floor n * 4 * eps is dropped;
    relative to the scale, the floor does not depend on the weights, nor
    does the rank.
    """

    basis: np.ndarray
    rank: int
    iterations: int


@dataclass(frozen=True)
class ControllabilityVerdict:
    rank: int
    full: bool
    kind: VerdictKind


def _frontier_multisets(s: int, m: int, lo: int) -> np.ndarray:
    """Columns of the sorted multisets of m indices < s with largest index >= lo."""
    sets = [
        rest + (t,)
        for t in range(lo, s)
        for rest in itertools.combinations_with_replacement(range(t + 1), m - 1)
    ]
    return np.array(sets, dtype=np.intp).reshape(-1, m).T.copy()


def _extend(
    basis: np.ndarray, cols: np.ndarray, cutoff: float, floor: float = 0.0
) -> np.ndarray:
    """``basis`` plus an orthonormal basis of what ``cols`` add to its span.

    Columns whose norm is at or under ``floor`` are dropped before the unit
    scaling, so that rounding noise is never scaled up into a direction.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", cols, cols))
    keep = norms > floor
    cols = cols[:, keep] / norms[keep]
    if basis.shape[1]:
        for _ in range(2):
            cols -= basis @ (basis.T @ cols)
    if np.einsum("ij,ij->", cols, cols) <= cutoff * cutoff:
        return basis  # no singular value exceeds the Frobenius norm
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return np.concatenate((basis, u[:, s > cutoff]), axis=1)


def closure_basis(
    tensor: AdjacencyTensor, nodes, *, closed: np.ndarray | None = None
) -> ReducedControllabilityMatrix:
    """Grow the span of the unit columns e_j, j in ``nodes`` (1-based),
    until it is closed under the tensor map.

    ``closed`` is an orthonormal basis of a span that is already closed;
    only the rounds that the nodes add to it are run.

    Raises:
        ValueError: a node lies outside [1, n], or ``closed`` lacks n rows.
    """
    n = tensor.dim
    cutoff = n * 1e-10
    nodes = tuple(nodes)
    if not all(1 <= j <= n for j in nodes):
        raise ValueError(f"control nodes {nodes} lie outside [1, {n}]")
    basis = np.zeros((n, 0)) if closed is None else np.asarray(closed, dtype=np.float64)
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValueError(f"closed matrix has shape {basis.shape}, expected ({n}, m)")
    start = np.zeros((n, len(nodes)))
    start[[j - 1 for j in nodes], range(len(nodes))] = 1.0
    # columns below ``done`` had all their multisets applied; the rest are F
    basis, done = _extend(basis, start, cutoff), basis.shape[1]
    rounds = 0
    while done < basis.shape[1] < n:
        rounds += 1
        kern = tensor.kernel()
        if not kern.scale:
            break  # every coefficient is zero, and so is every column
        width = max(1, _GROUP_ENTRIES // max(1, kern.coefs.size))
        # a contracted column this small next to the tensor's scale is within
        # the rounding error of the tensor applied to unit columns; scaled to
        # unit norm it would pass the cutoff as a direction that is not there
        floor = n * 4 * np.finfo(np.float64).eps
        frozen = basis
        ms = _frontier_multisets(frozen.shape[1], tensor.order - 1, done)
        for lo in range(0, ms.shape[1], width):
            # divided by the scale, no column norm is squared out of range
            cols = _apply_multisets(tensor, frozen, ms[:, lo : lo + width]) / kern.scale
            basis = _extend(basis, cols, cutoff, floor)
            if basis.shape[1] == n:
                break
        done = frozen.shape[1]
    return ReducedControllabilityMatrix(
        basis=basis, rank=basis.shape[1], iterations=rounds
    )


def verdict(tensor: AdjacencyTensor, controls: ControlMatrix) -> ControllabilityVerdict:
    """Full-rank test of the controllability subspace.

    A full rank certifies strong controllability when the tensor order is
    even (odd-degree drift). For odd orders the same rank condition only
    certifies accessibility, and the verdict says so; it is never upgraded.
    """
    reduced = closure_basis(tensor, controls.nodes)
    kind = VerdictKind.STRONG if tensor.order % 2 == 0 else VerdictKind.ACCESSIBILITY
    return ControllabilityVerdict(
        rank=reduced.rank, full=reduced.rank == tensor.dim, kind=kind
    )
