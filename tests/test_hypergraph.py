"""Hypergraph model, generators, adjacency construction, degrees, JSON."""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperctrl as hc
from hyperctrl import hypergraph
from hyperctrl.hypergraph import from_json_dict, to_json_dict

from helpers import (
    dense_tensor,
    entry,
    membership_counts,
    random_mixed_hypergraph,
    seeded_floats,
)


class TestHypergraphModel:
    def test_edges_canonicalized_sorted(self):
        g = hc.Hypergraph(4, ((3, 1, 2),))
        assert g.edges == ((1, 2, 3),)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            hc.Hypergraph(4, ((1, 2, 3), (3, 2, 1)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"edge 1"):
            hc.Hypergraph(3, ((1, 2), (2, 4)))

    def test_singleton_edge_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            hc.Hypergraph(3, ((2,),))

    def test_repeated_node_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            hc.Hypergraph(3, ((2, 2, 3),))

    def test_weights_validated(self):
        with pytest.raises(ValueError, match="weights"):
            hc.Hypergraph(3, ((1, 2),), weights=(1.0, 2.0))
        with pytest.raises(ValueError, match="positive"):
            hc.Hypergraph(3, ((1, 2),), weights=(-1.0,))


class TestGenerators:
    def test_chain_small(self):
        assert hc.hyperchain(4, 3).edges == ((1, 2, 3), (2, 3, 4))

    def test_chain_edge_count(self):
        for n, k in [(6, 3), (10, 4), (12, 6)]:
            assert len(hc.hyperchain(n, k).edges) == n - k + 1

    def test_ring_six_nodes(self):
        got = set(hc.hyperring(6, 3).edges)
        want = {(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6), (1, 2, 6)}
        assert got == want

    def test_ring_counts_and_degenerate(self):
        assert len(hc.hyperring(8, 3).edges) == 8
        assert hc.hyperring(4, 4).edges == ((1, 2, 3, 4),)

    def test_star_structure(self):
        g = hc.hyperstar(7, 3)
        assert g.edges == tuple((1, 2, leaf) for leaf in range(3, 8))
        # the leafless case n = k-1 is invalid input
        with pytest.raises(ValueError):
            hc.hyperstar(2, 3)

    def test_complete(self):
        assert hc.complete(4, 4).edges == ((1, 2, 3, 4),)
        assert len(hc.complete(6, 3).edges) == math.comb(6, 3)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            hc.hyperchain(2, 3)
        with pytest.raises(ValueError, match="edge cardinality"):
            hc.hyperring(3, 1)
        # equal windows collapse only in the plain ring (r = k-1)
        with pytest.raises(ValueError, match="duplicates"):
            hc.overlap_variant(6, 6, 4, "ring")


class TestOverlapVariants:
    def test_stride_chain(self):
        got = hc.overlap_variant(10, 4, 1, "chain").edges
        assert got == ((1, 2, 3, 4), (4, 5, 6, 7), (7, 8, 9, 10))
        got = hc.overlap_variant(10, 4, 2, "chain").edges
        assert got == ((1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8), (7, 8, 9, 10))

    def test_r_equals_k_minus_1_reproduces_base(self):
        assert hc.overlap_variant(10, 4, 3, "chain").edges == hc.hyperchain(10, 4).edges
        assert hc.overlap_variant(8, 4, 3, "ring").edges == hc.hyperring(8, 4).edges
        assert hc.overlap_variant(9, 4, 3, "star").edges == hc.hyperstar(9, 4).edges

    def test_ring_wraps(self):
        got = set(hc.overlap_variant(9, 4, 1, "ring").edges)
        assert got == {(1, 2, 3, 4), (4, 5, 6, 7), (1, 7, 8, 9)}

    def test_star_groups(self):
        got = hc.overlap_variant(10, 4, 1, "star").edges
        assert got == ((1, 2, 3, 4), (1, 5, 6, 7), (1, 8, 9, 10))

    def test_infeasible_sizes_report_feasible_n(self):
        with pytest.raises(ValueError, match="feasible n"):
            hc.overlap_variant(9, 4, 1, "chain")
        with pytest.raises(ValueError, match="feasible n"):
            hc.overlap_variant(8, 4, 1, "ring")

    def test_consecutive_overlap_property(self):
        for family in ("chain", "ring"):
            for (n, k, r) in [(10, 4, 1), (10, 4, 2), (9, 3, 1)]:
                if family == "ring":
                    if n % (k - r) != 0:
                        continue
                    g = hc.overlap_variant(n, k, r, family)
                    edges = list(g.edges)
                    p = len(edges)
                    # cyclic neighbours share exactly r nodes
                    ordered = sorted(edges, key=min)
                else:
                    g = hc.overlap_variant(n, k, r, family)
                    ordered = list(g.edges)
                    p = len(ordered)
                    for i, j in itertools.combinations(range(p), 2):
                        inter = set(ordered[i]) & set(ordered[j])
                        if j == i + 1:
                            assert len(inter) == r
                        else:
                            assert inter == set()


class TestRandomUniform:
    def test_density_extremes(self):
        assert hc.random_uniform(6, 3, 1.0, 7).edges == hc.complete(6, 3).edges
        assert hc.random_uniform(6, 3, 0.0, 7).edges == ()

    def test_seeded_reproducibility(self):
        a = hc.random_uniform(8, 4, 0.5, 42)
        b = hc.random_uniform(8, 4, 0.5, 42)
        assert a.edges == b.edges
        assert 0 <= len(a.edges) <= math.comb(8, 4)
        c = hc.random_uniform(8, 4, 0.5, 43)
        assert c.edges != a.edges

    def test_density_validated(self):
        with pytest.raises(ValueError, match="density"):
            hc.random_uniform(6, 3, 1.5, 0)


class TestTupleGuard:
    """``complete`` and ``random_uniform`` enumerate all C(n, k) k-subsets;
    above the cap they refuse before enumerating any."""

    @pytest.fixture(
        params=[hc.complete, lambda n, k: hc.random_uniform(n, k, 0.5, 1)],
        ids=["complete", "random"],
    )
    def build(self, request):
        return request.param

    def test_cap_is_shared_with_ingest(self, monkeypatch, build):
        # C(6, 3) = 20 tuples: allowed at the cap, refused above it
        monkeypatch.setattr(hypergraph, "MAX_TUPLES", 20)
        build(6, 3)
        monkeypatch.setattr(hypergraph, "MAX_TUPLES", 19)
        with pytest.raises(ValueError, match="= 20 tuples exceeds the 19 guard"):
            build(6, 3)

    def test_default_cap_refuses_before_enumerating(self, build):
        with pytest.raises(ValueError, match=r"C\(200, 6\) = 82408626300 tuples exceeds"):
            build(200, 6)

    def test_byte_cap_is_lower_than_the_tuple_cap(self, monkeypatch, build):
        # C(46, 6) = 9366819 is under MAX_TUPLES; at about 240 bytes a tuple
        # it once took 2.2 GB, and now it is refused before any is listed
        class NoEnumeration:
            @staticmethod
            def combinations(*args):
                raise AssertionError("tuples enumerated")

        monkeypatch.setattr(hypergraph, "itertools", NoEnumeration)
        assert math.comb(46, 6) < hypergraph.MAX_TUPLES
        with pytest.raises(ValueError, match=r"= 9366819 tuples exceeds the 932067 guard \("):
            build(46, 6)

    def test_byte_cap_admits_what_fits(self, monkeypatch, build):
        # C(6, 3) = 20 tuples of _tuple_bytes(3) each
        monkeypatch.setattr(hypergraph, "MAX_GENERATED_BYTES", 20 * hypergraph._tuple_bytes(3))
        build(6, 3)
        with pytest.raises(ValueError, match="= 35 tuples exceeds the 20 guard"):
            build(7, 3)

    def test_ingest_is_held_to_the_tuple_cap_alone(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "MAX_GENERATED_BYTES", 0)
        series = hc.TimeSeriesMatrix.from_rows(seeded_floats(3, 6 * 40).reshape(6, 40))
        hc.build_hypergraph(series, 3, 0.5)


class TestAdjacencyUniform:
    def test_order3_entries(self):
        A = hc.adjacency_auto(hc.Hypergraph(3, ((1, 2, 3),)))
        dense = dense_tensor(A)
        assert np.count_nonzero(dense) == 6
        assert set(np.round(dense[dense != 0], 12)) == {0.5}

    def test_order2_is_adjacency_matrix(self):
        A = hc.adjacency_auto(hc.Hypergraph(2, ((1, 2),)))
        assert np.array_equal(dense_tensor(A), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_order4_tuple_count(self):
        A = hc.adjacency_auto(hc.Hypergraph(4, ((1, 2, 3, 4),)))
        dense = dense_tensor(A)
        assert np.count_nonzero(dense) == 24
        assert dense[0, 1, 2, 3] == pytest.approx(1.0 / 6.0)

    def test_entries_are_exactly_weight_over_factorial(self):
        for k in range(2, 13):
            edges = tuple(tuple(range(j, j + k)) for j in range(1, 4))
            for weights in (None, (0.1, 3.0, 7.0 / 3.0)):
                A = hc.adjacency_auto(hc.Hypergraph(k + 2, edges, weights=weights))
                assert A.order == k
                assert list(A.entries) == list(edges)
                for idx, edge in enumerate(edges):
                    w = 1.0 if weights is None else weights[idx]
                    want = w * (1.0 / math.factorial(k - 1))
                    # bit for bit, not approximately
                    assert A.entries[edge].hex() == want.hex(), (k, weights)

    def test_weighted_edges_scale_entries(self):
        g = hc.Hypergraph(3, ((1, 2, 3),), weights=(4.0,))
        A = hc.adjacency_auto(g)
        assert entry(A, (1, 2, 3)) == pytest.approx(2.0)


class TestAdjacencyGeneral:
    def test_two_edge_example(self):
        g = hc.Hypergraph(4, ((1, 2), (2, 3, 4)))
        A = hc.adjacency_auto(g)
        assert A.order == 3
        # cardinality-2 edge spreads 1/3 over its six covering tuples
        dense = dense_tensor(A)
        covering = [
            idx
            for idx in itertools.product(range(4), repeat=3)
            if set(idx) == {0, 1}
        ]
        assert len(covering) == 6
        for idx in covering:
            assert dense[idx] == pytest.approx(1.0 / 3.0)
        # degree of node 1 recovered from the tensor equals its edge count
        assert hc.degrees(A)[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_graph_is_empty_order2_tensor(self):
        A = hc.adjacency_auto(hc.Hypergraph(3, ()))
        assert (A.order, A.dim, A.entries) == (2, 3, {})

    def test_nonuniform_chain_mcn(self):
        g = hc.Hypergraph(4, ((1, 2), (2, 3, 4)))
        A = hc.adjacency_auto(g)
        res = hc.mcn_exact(A)
        assert res.value == 2
        # the depicted control pair is a valid witness even when the
        # lexicographic search returns another one
        assert hc.verdict(A, hc.ControlMatrix((2, 3))).full


class TestDegrees:
    def test_ring_is_regular(self):
        A = hc.adjacency_auto(hc.hyperring(6, 3))
        assert hc.degrees(A) == pytest.approx(np.full(6, 3.0), abs=1e-12)

    def test_single_edge(self):
        A = hc.adjacency_auto(hc.Hypergraph(5, ((2, 3, 4),)))
        assert hc.degrees(A) == pytest.approx([0, 1, 1, 1, 0], abs=1e-12)

    def test_star_from_published_labeling(self):
        # internal pair {2,3} in every edge, five leaves
        g = hc.Hypergraph(
            7, ((1, 2, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 3, 7))
        )
        d = hc.degrees(hc.adjacency_auto(g))
        assert d[1] == pytest.approx(5.0, abs=1e-12)
        assert d[2] == pytest.approx(5.0, abs=1e-12)
        assert d[[0, 3, 4, 5, 6]] == pytest.approx(np.ones(5), abs=1e-12)

    def test_generated_star_degrees(self):
        d = hc.degrees(hc.adjacency_auto(hc.hyperstar(7, 3)))
        assert d[:2] == pytest.approx([5.0, 5.0], abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 8), st.integers(2, 5))
    def test_mixed_cardinality_degree_preservation(self, seed, n, max_card):
        g = random_mixed_hypergraph(seed, n, min(max_card, n))
        A = hc.adjacency_auto(g)
        assert hc.degrees(A) == pytest.approx(membership_counts(g), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 7), st.integers(2, 4))
    def test_uniform_degree_consistency(self, seed, n, k):
        if k > n:
            return
        g = hc.random_uniform(n, k, 0.5, seed)
        A = hc.adjacency_auto(g)
        assert hc.degrees(A) == pytest.approx(membership_counts(g), abs=1e-9)


class TestJson:
    def test_round_trip(self):
        g = hc.Hypergraph(5, ((1, 2, 3), (2, 4, 5)), weights=(1.0, 2.5))
        assert from_json_dict(json.loads(json.dumps(to_json_dict(g)))) == g

    def test_weights_omitted_when_absent(self):
        doc = to_json_dict(hc.hyperchain(4, 3))
        assert "weights" not in doc

    def test_loader_diagnostics(self):
        with pytest.raises(ValueError, match="missing 'n'"):
            from_json_dict({"edges": []})
        with pytest.raises(ValueError, match="unknown keys"):
            from_json_dict({"n": 3, "edges": [], "extra": 1})
        with pytest.raises(ValueError, match="edge 1"):
            from_json_dict({"n": 3, "edges": [[1, 2], [2, 9]]})
        with pytest.raises(ValueError, match="duplicates"):
            from_json_dict({"n": 3, "edges": [[1, 2], [2, 1]]})
