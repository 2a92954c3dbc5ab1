"""Reduced controllability matrix and rank verdicts.

The controllability subspace is grown iteratively: starting from the span of
the control columns, each round appends the tensor applied to every multiset
of current basis columns (permuted argument tuples give identical columns by
supersymmetry, so multisets suffice), then re-orthonormalizes through an
economy SVD and drops singular values below the cutoff. The chain of spans
is monotone and stabilizes within n rounds; one round without rank growth
proves the fixed point, so the loop exits early. ``closure_basis`` is the
one way in: ``verdict`` and the MCN searches all start it from the unit
columns of ``ControlMatrix.matrix``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import AdjacencyTensor, ControlMatrix, _apply_multisets


class VerdictKind(Enum):
    STRONG = "strong-controllability"
    ACCESSIBILITY = "accessibility-only"


@dataclass(frozen=True)
class ReducedControllabilityMatrix:
    """Orthonormal basis of the controllability subspace.

    ``rank`` equals the column count of ``basis``; ``iterations`` counts the
    expansion rounds executed; ``tolerance`` is the singular-value cutoff
    applied in the final orthonormalization.
    """

    basis: np.ndarray
    rank: int
    iterations: int
    tolerance: float


@dataclass(frozen=True)
class ControllabilityVerdict:
    rank: int
    full: bool
    kind: VerdictKind


def _orthonormalize(matrix: np.ndarray, tol: float | None) -> tuple[np.ndarray, float]:
    """Orthonormal basis of the column space and the cutoff used.

    The default cutoff is max(rows, cols) * eps * sigma_max; a user tol is an
    absolute singular-value cutoff.
    """
    if matrix.shape[1] == 0:
        return matrix.reshape(matrix.shape[0], 0), (tol if tol is not None else 0.0)
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    if tol is not None:
        cutoff = tol
    elif s.size and s[0] > 0:
        cutoff = max(matrix.shape) * np.finfo(np.float64).eps * s[0]
    else:
        cutoff = 0.0
    rank = int(np.sum(s > cutoff))
    return u[:, :rank], cutoff


def _expansion_columns(tensor: AdjacencyTensor, basis: np.ndarray) -> np.ndarray:
    """Tensor applied to every multiset of basis columns, one column each."""
    k, n = tensor.order, tensor.dim
    s = basis.shape[1]
    multisets = np.array(
        list(itertools.combinations_with_replacement(range(s), k - 1)),
        dtype=np.intp,
    ).reshape(-1, k - 1)
    if multisets.shape[0] == 0:
        return np.zeros((n, 0))
    return _apply_multisets(tensor, basis, multisets.T)


def closure_basis(
    tensor: AdjacencyTensor,
    start: np.ndarray,
    tol: float | None = None,
) -> ReducedControllabilityMatrix:
    """Grow the span of ``start`` until it is closed under the tensor map.

    Accepts an arbitrary n x m starting matrix; the result depends only on
    its column space, which lets callers warm-start from an already computed
    basis plus extra columns.
    """
    n = tensor.dim
    start = np.asarray(start, dtype=np.float64)
    if start.ndim != 2 or start.shape[0] != n:
        raise ValueError(f"start matrix has shape {start.shape}, expected ({n}, m)")
    basis, cutoff = _orthonormalize(start, tol)
    rounds = 0
    while rounds < n and 0 < basis.shape[1] < n:
        new_cols = _expansion_columns(tensor, basis)
        rounds += 1
        expanded, cutoff = _orthonormalize(np.hstack([basis, new_cols]), tol)
        stagnant = expanded.shape[1] == basis.shape[1]
        basis = expanded
        if stagnant:
            break
    return ReducedControllabilityMatrix(
        basis=basis,
        rank=basis.shape[1],
        iterations=rounds,
        tolerance=cutoff,
    )


def verdict(
    tensor: AdjacencyTensor,
    controls: ControlMatrix,
    tol: float | None = None,
) -> ControllabilityVerdict:
    """Full-rank test of the controllability subspace.

    A full rank certifies strong controllability when the tensor order is
    even (odd-degree drift). For odd orders the same rank condition only
    certifies accessibility, and the verdict says so; it is never upgraded.
    """
    reduced = closure_basis(tensor, controls.matrix(tensor.dim), tol=tol)
    kind = VerdictKind.STRONG if tensor.order % 2 == 0 else VerdictKind.ACCESSIBILITY
    return ControllabilityVerdict(
        rank=reduced.rank, full=reduced.rank == tensor.dim, kind=kind
    )
