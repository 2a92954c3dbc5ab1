"""Hypergraph inference from multivariate time series.

A k-tuple of channels gets a multi-correlation score sqrt(1 - det R) with R
the tuple's Pearson correlation matrix; tuples scoring above a threshold
become hyperedges. With k = 2 this reduces to thresholding the absolute
pairwise correlation.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph

# All-tuple enumeration cap; covers the intended recording sizes with room.
MAX_TUPLES = 10**7


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """n channels by T samples, with per-channel labels."""

    signals: np.ndarray
    labels: tuple

    def __post_init__(self):
        signals = np.atleast_2d(np.asarray(self.signals, dtype=np.float64))
        object.__setattr__(self, "signals", signals)
        if signals.shape[1] < 2:
            raise ValueError(f"need at least 2 samples, got {signals.shape[1]}")
        if not np.isfinite(signals).all():
            raise ValueError("signals must be finite")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != signals.shape[0]:
            raise ValueError(
                f"{len(labels)} labels for {signals.shape[0]} channels"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.signals.shape[0]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]], labels=None) -> "TimeSeriesMatrix":
        arr = np.asarray(rows, dtype=np.float64)
        if labels is None:
            labels = tuple(str(i + 1) for i in range(arr.shape[0]))
        return cls(signals=arr, labels=tuple(labels))


def multi_correlation(series: TimeSeriesMatrix, nodes: Sequence[int]) -> float:
    """Multi-correlation sqrt(1 - det R) of the selected channels, in [0, 1].

    The determinant of a correlation matrix lies in [0, 1]; floating-point
    evaluation can exit that range by an ulp or two, so it is clamped before
    the root.

    Raises:
        ValueError: repeated or out-of-range nodes, or a selected channel
            with zero variance (named in the message).
    """
    nodes = tuple(int(j) for j in nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"tuple {nodes} repeats a channel")
    if any(j < 1 or j > series.n for j in nodes):
        raise ValueError(f"tuple {nodes} has channels outside [1, {series.n}]")
    if len(nodes) < 2:
        raise ValueError("multi-correlation needs at least two channels")
    rows = series.signals[[j - 1 for j in nodes]]
    stds = rows.std(axis=1)
    for j, sd in zip(nodes, stds):
        if sd == 0.0:
            raise ValueError(
                f"channel {j} ({series.labels[j - 1]!r}) has zero variance"
            )
    corr = np.corrcoef(rows)
    det = float(np.linalg.det(corr))
    det = min(max(det, 0.0), 1.0)
    return math.sqrt(1.0 - det)


def build_hypergraph(series: TimeSeriesMatrix, k: int, threshold: float) -> Hypergraph:
    """k-uniform hypergraph of all tuples whose multi-correlation exceeds
    the threshold. Isolated channels stay as isolated nodes.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if k < 2 or k > series.n:
        raise ValueError(f"need 2 <= k <= {series.n}, got k={k}")
    total = math.comb(series.n, k)
    if total > MAX_TUPLES:
        raise ValueError(
            f"C({series.n}, {k}) = {total} tuples exceeds the {MAX_TUPLES} "
            "guard; subsample the channels first"
        )
    edges = []
    for nodes in itertools.combinations(range(1, series.n + 1), k):
        if multi_correlation(series, nodes) > threshold:
            edges.append(nodes)
    return Hypergraph(n=series.n, edges=tuple(edges))


def load_time_series_csv(path, has_header: bool = False) -> TimeSeriesMatrix:
    """Read a channels-by-samples CSV.

    Each data row is one channel. With ``has_header`` the first row lists
    the channel labels, one per subsequent row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    labels = None
    if has_header:
        labels = tuple(cell.strip() for cell in rows[0][1])
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header but no data rows")
        if len(labels) != len(rows):
            raise ValueError(
                f"{path}: header lists {len(labels)} labels but the file has "
                f"{len(rows)} channel rows"
            )
    width = len(rows[0][1])
    data = []
    for lineno, row in rows:
        if len(row) != width:
            raise ValueError(
                f"{path}: line {lineno}: {len(row)} fields, expected {width}"
            )
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    try:
        return TimeSeriesMatrix.from_rows(data, labels=labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
