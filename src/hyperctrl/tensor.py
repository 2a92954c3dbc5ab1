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
from typing import Sequence

import numpy as np


class BlowupError(RuntimeError):
    """Raised when an integrated trajectory leaves the finite range.

    Carries the last finite sample so callers can inspect how far the
    integration got before the polynomial field blew up.
    """

    def __init__(self, time: float, state: np.ndarray):
        super().__init__(
            f"state became non-finite after t={time:.6g}; "
            "the polynomial drift has finite-time blow-up"
        )
        self.last_time = time
        self.last_state = state


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


def drift(tensor: AdjacencyTensor, x: np.ndarray) -> np.ndarray:
    """Evaluate the homogeneous degree-(k-1) drift field at state x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tensor.dim,):
        raise ValueError(f"state has shape {x.shape}, expected ({tensor.dim},)")
    basis = x.reshape(-1, 1)
    ms = np.zeros((tensor.order - 1, 1), dtype=np.intp)
    return _apply_multisets(tensor, basis, ms)[:, 0]


@dataclass(frozen=True)
class ControlMatrix:
    """Control attachment points: column j of B is the basis vector e_nodes[j].

    All input channels act with unit scale; the controllability rank is
    invariant under nonzero column rescaling, so nothing is lost.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(int(j) for j in self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"control nodes must be distinct, got {self.nodes}")
        if any(j < 1 for j in self.nodes):
            raise ValueError(f"control nodes must be >= 1, got {self.nodes}")

    @property
    def m(self) -> int:
        return len(self.nodes)

    def matrix(self, n: int) -> np.ndarray:
        """Dense n x m matrix of standard basis columns."""
        if any(j > n for j in self.nodes):
            raise ValueError(f"control nodes {self.nodes} exceed dimension {n}")
        mat = np.zeros((n, len(self.nodes)))
        for col, j in enumerate(self.nodes):
            mat[j - 1, col] = 1.0
        return mat


@dataclass(frozen=True)
class InputSchedule:
    """Piecewise-constant input signal over [0, T].

    ``times`` are strictly increasing breakpoints starting at 0; row i of
    ``values`` holds from times[i] until the next breakpoint.
    """

    times: tuple
    values: np.ndarray

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) == 0:
            raise ValueError("schedule needs at least one breakpoint")
        if times[0] != 0.0:
            raise ValueError(f"first breakpoint must be t=0, got {times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")
        if values.shape[0] != len(times):
            raise ValueError(
                f"{len(times)} breakpoints but {values.shape[0]} value rows"
            )
        if not np.isfinite(values).all():
            raise ValueError("schedule values must be finite")

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, u: Sequence[float]) -> "InputSchedule":
        return cls((0.0,), np.asarray(u, dtype=np.float64).reshape(1, -1))

    def value_at(self, t: float) -> np.ndarray:
        idx = 0
        for i, brk in enumerate(self.times):
            if brk <= t:
                idx = i
            else:
                break
        return self.values[idx]


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the controlled dynamics."""

    times: np.ndarray
    states: np.ndarray  # len(times) x n

    def __iter__(self):
        return ((t, x) for t, x in zip(self.times, self.states))


def simulate(
    tensor: AdjacencyTensor,
    controls: ControlMatrix,
    x0: np.ndarray,
    schedule: InputSchedule | None = None,
    T: float = 1.0,
    dt: float = 1e-3,
) -> Trajectory:
    """Integrate dx/dt = (drift at x) + B u(t) with classical fixed-step RK4.

    The input is piecewise constant per ``schedule`` (zero when omitted).
    The final sample lands exactly at t=T; the last step is shortened when
    T/dt is not integral.

    Raises:
        BlowupError: the state left the finite range; the exception carries
            the last finite sample and its time.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and nonnegative, got {T}")
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (tensor.dim,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({tensor.dim},)")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    B = controls.matrix(tensor.dim)
    if schedule is None and controls.m:
        schedule = InputSchedule.constant(np.zeros(controls.m))
    if schedule is not None and schedule.channels != controls.m:
        raise ValueError(
            f"schedule has {schedule.channels} channels but B has {controls.m} columns"
        )

    def field_at(t: float, state: np.ndarray) -> np.ndarray:
        out = drift(tensor, state)
        if controls.m:
            out = out + B @ schedule.value_at(t)
        return out

    times = [0.0]
    states = [x.copy()]
    t = 0.0
    while t < T - 1e-12:
        h = min(dt, T - t)
        # overflow shows up as a non-finite x_next, reported just below
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = field_at(t, x)
            k2 = field_at(t + h / 2, x + (h / 2) * k1)
            k3 = field_at(t + h / 2, x + (h / 2) * k2)
            k4 = field_at(t + h, x + h * k3)
            x_next = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(x_next).all():
            raise BlowupError(t, x)
        t += h
        x = x_next
        times.append(t)
        states.append(x.copy())
    return Trajectory(np.asarray(times), np.asarray(states))
