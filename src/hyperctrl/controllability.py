"""Reduced controllability matrix and rank verdicts, decided over GF(p).

The controllability subspace is the closure of the control nodes' unit
vectors e_j under the tensor map. Its rank is decided over the prime field
of the tensor's kernel (see ``tensor``), where every step is exact.

The tensor is symmetric in its k - 1 slots and p > k - 1, so by
polarization the closure of a span U is U plus the span of the values
T(x, ..., x) for x in U, applied until nothing new comes in.
``closure_basis`` keeps U as a reduced echelon basis mod p and, while the
rank is under n, draws a batch of two uniform random x in U, contracts the
tensor against them, and adds what is new; it stops when a batch adds
nothing. Every vector it keeps lies in the closure mod p, and the rank mod
p never exceeds the rational rank, so a full rank is a proof. A span that
is not yet closed has a nonzero polynomial of degree k - 1 in x that a draw
must miss, so by Schwartz-Zippel (Schwartz, J. ACM 27(4), 1980) a draw
lands in U with probability at most (k - 1)/p, and a batch of two with at
most ((k - 1)/p)^2: under 2^-36 for k <= 4. The draws are seeded with a
module constant on every call, so every answer repeats.
``closure_basis`` is the one way in for ``verdict`` and the MCN searches.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import AdjacencyTensor, ControlMatrix, _apply_polar

# The seed of the random draws, the same on every call.
_SEED = 20200525


class VerdictKind(Enum):
    STRONG = "strong-controllability"
    ACCESSIBILITY = "accessibility-only"


@dataclass(frozen=True)
class ReducedControllabilityMatrix:
    """Reduced echelon basis mod p of the controllability subspace.

    ``basis`` has one int64 column of residues per basis vector, ``rank``
    columns in all. A column's first nonzero entry is its pivot, a 1, and
    every other column is 0 in that row. ``iterations`` counts the batches
    of random draws.
    """

    basis: np.ndarray
    rank: int
    iterations: int


@dataclass(frozen=True)
class ControllabilityVerdict:
    rank: int
    full: bool
    kind: VerdictKind


def closure_basis(
    tensor: AdjacencyTensor, nodes, *, closed: np.ndarray | None = None
) -> ReducedControllabilityMatrix:
    """Grow the span of the unit vectors e_j, j in ``nodes`` (1-based),
    until it is closed under the tensor map.

    ``closed`` is the ``basis`` of an earlier closure of the same tensor;
    when the nodes add nothing to its span, it is returned at once with no
    draw.

    Raises:
        ValueError: a node lies outside [1, n], or ``closed`` lacks n rows.
    """
    n = tensor.dim
    nodes = tuple(nodes)
    if not all(1 <= j <= n for j in nodes):
        raise ValueError(f"control nodes {nodes} lie outside [1, {n}]")
    basis = np.asarray(np.zeros((n, 0)) if closed is None else closed, dtype=np.int64)
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValueError(f"closed matrix has shape {basis.shape}, expected ({n}, m)")
    p = tensor.kernel().prime
    pivots = (basis != 0).argmax(axis=0).tolist()
    starts = sorted({j - 1 for j in nodes})
    ys = np.zeros((n, len(starts)), dtype=np.int64)
    ys[starts, range(len(starts))] = 1
    batches = 0
    draws = random.Random(_SEED)
    while True:
        rank = len(pivots)
        for y in ys.T:
            y = (y - basis @ y[pivots]) % p
            nonzero = y.nonzero()[0]
            if nonzero.size:
                t = int(nonzero[0])
                y = y * pow(int(y[t]), -1, p) % p
                # y is 0 on every pivot row, and row t turns into one: clear
                # it from the old columns, which change only where y is not 0
                row = basis[t]
                basis = np.concatenate((basis, y[:, None]), axis=1)
                if row.any():
                    basis[nonzero, :-1] = (basis[nonzero, :-1] - np.outer(y[nonzero], row)) % p
                pivots.append(t)
        if len(pivots) in (rank, n):
            break
        batches += 1
        g = np.frombuffer(draws.randbytes(8 * len(pivots)), dtype="<u4").reshape(-1, 2) % p
        ys = _apply_polar(tensor, basis @ g % p)
    return ReducedControllabilityMatrix(basis=basis, rank=len(pivots), iterations=batches)


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
