"""Hypergraph model, generators, adjacency construction, degrees, JSON."""
from __future__ import annotations

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperctrl as hc
from hyperctrl import hypergraph
from hyperctrl.hypergraph import from_json_dict, to_json_dict

from helpers import (
    complete_reference,
    dense_tensor,
    entry,
    membership_counts,
    overlap_variant_reference,
    random_mixed_hypergraph,
    random_uniform_reference,
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
        with pytest.raises(ValueError, match="unknown family 'bogus'"):
            hc.overlap_variant(7, 3, 1, "bogus")
        # equal windows collapse only in the plain ring (r = k-1); below it
        # n = k is refused as a size, not as a duplicate edge
        with pytest.raises(ValueError, match=r"^no 4-overlap ring on n=6 nodes with k=6: need n > k"):
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
        with pytest.raises(ValueError, match="feasible n: 4, 7, 10, ...$"):
            hc.overlap_variant(9, 4, 1, "chain")
        with pytest.raises(ValueError, match="feasible n: 9, 12, 15, ...$"):
            hc.overlap_variant(8, 4, 1, "ring")
        # 6 nodes hold three windows of 6, but each is the whole node set
        with pytest.raises(ValueError, match="feasible n: 8, 10, 12, ...$"):
            hc.overlap_variant(7, 6, 4, "ring")

    @pytest.mark.parametrize("family", ["chain", "ring", "star"])
    def test_every_suggested_size_is_feasible(self, family):
        for k in range(2, 7):
            for r in range(1, k):
                for n in range(k, 40):
                    try:
                        hc.overlap_variant(n, k, r, family)
                    except ValueError as exc:
                        listed = str(exc).split("feasible n: ")[1].split(", ...")[0]
                        for size in map(int, listed.split(", ")):
                            hc.overlap_variant(size, k, r, family)

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


class TestSameEdgesAsListBuilders:
    """The streaming generators give the list-based builders' edges, in the
    same order, or the same error. The one intended difference: a ring on
    n = k nodes below r = k-1 is refused as a size, where the list builder
    handed ``Hypergraph`` the same window several times."""

    @staticmethod
    def outcome(build, *args):
        try:
            return build(*args).edges
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("family", ["chain", "ring", "star", "bogus"])
    def test_overlap_variant(self, family):
        for k in range(1, 7):
            for r in range(0, k + 1):
                for n in range(1, 40):
                    want = self.outcome(overlap_variant_reference, n, k, r, family)
                    got = self.outcome(hc.overlap_variant, n, k, r, family)
                    if isinstance(want, str) and "duplicates" in want:
                        assert (family, n) == ("ring", k) and r < k - 1
                        assert got.startswith(f"no {r}-overlap ring on n={n} nodes with k={k}: ")
                    elif isinstance(want, str) and "-overlap" in want:
                        assert got.startswith(want + ": need "), (family, n, k, r)
                    else:
                        assert got == want, (family, n, k, r)

    def test_complete(self):
        for k in range(1, 6):
            for n in range(1, 12):
                want = self.outcome(complete_reference, n, k)
                got = self.outcome(hc.complete, n, k)
                if n < k or k < 2:
                    assert isinstance(got, str)
                else:
                    assert got == want, (n, k)

    def test_random_uniform(self):
        for seed in range(3):
            for k in range(1, 6):
                for n in range(1, 11):
                    for density in (-0.5, 0.0, 0.3, 0.5, 1.0, 1.5):
                        args = (n, k, density, seed + 2**64 - 1)
                        want = self.outcome(random_uniform_reference, *args)
                        assert self.outcome(hc.random_uniform, *args) == want, args


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
        with pytest.raises(ValueError, match=(
            r"^C\(46, 6\) = 9366819 tuples on 46 nodes take 2135636940 bytes at 228 per "
            r"edge and 48 per node, past the 268435456 guard; use fewer nodes$"
        )):
            build(46, 6)

    def test_byte_cap_admits_what_fits(self, monkeypatch, build):
        # C(6, 3) = 20 tuples of 180 + 8 * 3 bytes each, and 48 bytes a node
        monkeypatch.setattr(hypergraph, "MAX_GENERATED_BYTES", 20 * 204 + 6 * 48)
        build(6, 3)
        with pytest.raises(ValueError, match=r"= 35 tuples on 7 nodes take 7476 bytes .* 4368 guard"):
            build(7, 3)

    def test_ingest_is_held_to_the_tuple_cap_alone(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "MAX_GENERATED_BYTES", 0)
        series = hc.TimeSeriesMatrix.from_rows(seeded_floats(3, 6 * 40).reshape(6, 40))
        hc.build_hypergraph(series, 3, 0.5)


class Built(Exception):
    pass


def no_edges(*args, **kwargs):
    raise Built


# each generator by a size index m: one more m is one more edge for the
# chain, ring and star families and one more node for the k-subset ones
GENERATORS = {
    "chain": lambda m, k: hc.overlap_variant(k + m - 1, k, k - 1, "chain"),
    "ring": lambda m, k: hc.overlap_variant(k + m, k, k - 1, "ring"),
    "star": lambda m, k: hc.overlap_variant(k - 1 + m, k, k - 1, "star"),
    "r-chain": lambda m, k: hc.overlap_variant(k + (m - 1) * (k - 1), k, 1, "chain"),
    "r-ring": lambda m, k: hc.overlap_variant((m + 3) * (k - 1), k, 1, "ring"),
    "r-star": lambda m, k: hc.overlap_variant(1 + m * (k - 1), k, 1, "star"),
    "complete": lambda m, k: hc.complete(k + m, k),
    "random": lambda m, k: hc.random_uniform(k + m, k, 1.0, m),
}


class TestEdgeGuard:
    """Every generator refuses, before it builds any edge, edges that would
    take more than ``MAX_GENERATED_BYTES`` at 180 + 8 k bytes each and 48
    bytes a node, and what it accepts stays under that many bytes."""

    @pytest.mark.parametrize("family, n", [("chain", 6), ("ring", 4), ("star", 6)])
    def test_byte_cap_admits_what_fits(self, monkeypatch, family, n):
        # four edges of 204 bytes each at k = 3, and 48 bytes a node
        cap = 4 * 204 + 48 * n
        monkeypatch.setattr(hypergraph, "MAX_GENERATED_BYTES", cap)
        assert len(hc.overlap_variant(n, 3, 2, family).edges) == 4
        need = 5 * 204 + 48 * (n + 1)
        with pytest.raises(ValueError, match=(
            rf"^5 edges on {n + 1} nodes take {need} bytes at 204 per edge and 48 per node, "
            rf"past the {cap} guard; use fewer nodes$"
        )):
            hc.overlap_variant(n + 1, 3, 2, family)

    @pytest.mark.parametrize(
        "family, n, edges", [("chain", 1065221, 1065219), ("ring", 1065220, 1065220),
                             ("star", 1065221, 1065219)],
    )
    def test_default_cap_at_k3(self, monkeypatch, family, n, edges):
        # edges at 204 bytes and n nodes at 48 fit 2^28 bytes, one edge more
        # does not; the stub stops each call before the node ints are built
        monkeypatch.setattr(hypergraph, "list", no_edges, raising=False)
        with pytest.raises(Built):
            hc.overlap_variant(n, 3, 2, family)
        with pytest.raises(ValueError, match=rf"^{edges + 1} edges on {n + 1} nodes take "):
            hc.overlap_variant(n + 1, 3, 2, family)

    @pytest.mark.parametrize(
        "family, k",
        [(f, k) for f in GENERATORS for k in (2, 3, 4) if not (f.startswith("r-") and k == 2)],
    )
    def test_largest_accepted_size_stays_under_the_cap(self, monkeypatch, family, k):
        monkeypatch.setattr(hypergraph, "MAX_GENERATED_BYTES", 1 << 22)

        def accepted(m):
            # the guard passed when the edges reach Hypergraph
            with monkeypatch.context() as stub:
                stub.setattr(hypergraph, "Hypergraph", no_edges)
                try:
                    GENERATORS[family](m, k)
                except Built:
                    return True
                except ValueError as exc:
                    assert "past the 4194304 guard" in str(exc)
                    return False
            raise AssertionError("neither built nor refused")

        lo, hi = 1, 2
        assert accepted(lo)
        while accepted(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        # lo is the largest size accepted; lo + 1 was refused unbuilt
        tracemalloc.start()
        try:
            graph = GENERATORS[family](lo, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(graph.edges) > 10000
        assert peak <= hypergraph.MAX_GENERATED_BYTES, (len(graph.edges), peak)


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

    @pytest.mark.parametrize("k", range(2, 7))
    def test_edge_patterns_match_product_oracle(self, k):
        # a weighted s-node edge on the even nodes beside a k-node edge on
        # the odd ones; the oracle counts alpha itself, by the same product
        for s in range(2, k + 1):
            edges = (tuple(range(1, 2 * k, 2)), tuple(range(2, 2 * s + 1, 2)))
            weights = (1.3, 0.7)
            A = hc.adjacency_auto(hc.Hypergraph(2 * k, edges, weights=weights))
            want = {}
            for edge, w in zip(edges, weights):
                tuples = [t for t in itertools.product(edge, repeat=k) if set(t) == set(edge)]
                coef = (w * (len(edge) / len(tuples))).hex()
                want.update({tuple(sorted(t)): coef for t in tuples})
            assert A.order == k
            assert {p: c.hex() for p, c in A.entries.items()} == want, (k, s)

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

    @pytest.mark.parametrize("seed", [141, 261, 318, 384])
    def test_unweighted_mixed_degrees_are_exact_counts(self, seed):
        # summed in pattern order, these once came out 7.999999999999999
        g = random_mixed_hypergraph(seed, 7, 4)
        assert hc.degrees(hc.adjacency_auto(g)).tolist() == membership_counts(g).tolist()

    def test_degree_past_the_float_range_reads_inf(self):
        # node 2's exact degree is 2e308; its twins 1 and 3 still tie
        g = hc.Hypergraph(3, ((1, 2), (2, 3)), weights=(1e308, 1e308))
        assert hc.degrees(hc.adjacency_auto(g)).tolist() == [1e308, math.inf, 1e308]

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
