"""Multi-correlation scores and the hypergraphs built from them."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import hyperctrl as hc
from hyperctrl import hypergraph


def seeded_series(seed: int, channels: int = 6, samples: int = 80):
    """Channels that share two latent factors, so some tuples correlate."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((2, samples))
    mix = rng.uniform(-1.0, 1.0, size=(channels, 2))
    signals = mix @ latent + 0.7 * rng.standard_normal((channels, samples))
    return hc.TimeSeriesMatrix.from_rows(signals)


class TestMultiCorrelation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pairs_score_absolute_pearson_r(self, seed):
        series = seeded_series(seed)
        r = np.corrcoef(series.signals)
        for i, j in itertools.combinations(range(1, series.n + 1), 2):
            got = hc.multi_correlation(series, (i, j))
            assert got == pytest.approx(abs(r[i - 1, j - 1]), abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_triples_match_closed_form(self, seed):
        series = seeded_series(seed)
        r = np.corrcoef(series.signals)
        for a, b, c in itertools.combinations(range(series.n), 3):
            r12, r13, r23 = r[a, b], r[a, c], r[b, c]
            det = 1 + 2 * r12 * r13 * r23 - r12**2 - r13**2 - r23**2
            got = hc.multi_correlation(series, (a + 1, b + 1, c + 1))
            assert got == pytest.approx(math.sqrt(1 - det), abs=1e-12)

    def test_zero_variance_channel_is_named(self):
        series = hc.TimeSeriesMatrix.from_rows(
            [[1.0, 2.0, 4.0], [3.0, 3.0, 3.0], [0.0, 1.0, 0.0]],
            labels=("a", "flat", "c"),
        )
        with pytest.raises(ValueError, match=r"channel 2 \('flat'\) has zero variance"):
            hc.multi_correlation(series, (1, 2))
        with pytest.raises(ValueError, match="channel 2"):
            hc.build_hypergraph(series, 2, 0.5)

    @pytest.mark.parametrize(
        "nodes, detail",
        [
            ((1, 1), "repeats a channel"),
            ((1, 7), r"has channels outside \[1, 6\]"),
            ((2,), "needs at least two channels"),
        ],
    )
    def test_bad_tuple_is_refused(self, nodes, detail):
        with pytest.raises(ValueError, match=detail):
            hc.multi_correlation(seeded_series(1), nodes)


class TestTimeSeriesMatrix:
    @pytest.mark.parametrize(
        "rows, labels, detail",
        [
            ([[1.0, math.nan], [2.0, 3.0]], None, "signals must be finite"),
            ([[1.0, 2.0], [2.0, 3.0]], ("a",), "1 labels for 2 channels"),
        ],
    )
    def test_bad_matrix_is_refused(self, rows, labels, detail):
        with pytest.raises(ValueError, match=detail):
            hc.TimeSeriesMatrix.from_rows(rows, labels=labels)


class TestBuildHypergraph:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("threshold", [0.2, 0.5])
    def test_pair_edges_are_pearson_threshold(self, seed, threshold):
        series = seeded_series(seed)
        r = np.corrcoef(series.signals)
        want = tuple(
            (i, j)
            for i, j in itertools.combinations(range(1, series.n + 1), 2)
            if abs(r[i - 1, j - 1]) > threshold
        )
        graph = hc.build_hypergraph(series, 2, threshold)
        assert graph.n == series.n
        assert graph.edges == want

    @pytest.mark.parametrize("threshold", [-0.1, 1.1, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must lie in"):
            hc.build_hypergraph(seeded_series(1), 2, threshold)

    @pytest.mark.parametrize("k", [1, 7])
    def test_order_outside_channel_count_rejected(self, k):
        with pytest.raises(ValueError, match=f"k={k}"):
            hc.build_hypergraph(seeded_series(1), k, 0.5)

    def test_tuple_guard(self, monkeypatch):
        series = seeded_series(1)
        # C(6, 3) = 20 tuples: allowed at the cap, refused above it
        monkeypatch.setattr(hypergraph, "MAX_TUPLES", 20)
        hc.build_hypergraph(series, 3, 0.5)
        monkeypatch.setattr(hypergraph, "MAX_TUPLES", 19)
        with pytest.raises(ValueError, match="= 20 tuples exceeds the 19 guard"):
            hc.build_hypergraph(series, 3, 0.5)
