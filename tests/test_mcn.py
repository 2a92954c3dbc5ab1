"""Exact and greedy control-node search, predictions, components."""
from __future__ import annotations

import numpy as np
import pytest

import hyperctrl as hc
from hyperctrl import mcn as mcn_mod
from hyperctrl.mcn import ExactSearchGuardError, mcn_predicted

from helpers import random_hypergraph, random_mixed_hypergraph


def auto(graph):
    return hc.adjacency_auto(graph)


class TestExact:
    def test_single_edge_complete(self):
        res = hc.mcn_exact(auto(hc.complete(4, 4)))
        assert res.value == 3
        assert res.witness == (1, 2, 3)
        # no pair suffices
        import itertools

        for pair in itertools.combinations(range(1, 5), 2):
            assert not hc.verdict(auto(hc.complete(4, 4)), hc.ControlMatrix(pair)).full

    def test_chain_witness_is_prefix(self):
        res = hc.mcn_exact(auto(hc.hyperchain(10, 4)))
        assert res.value == 3
        assert res.witness == (1, 2, 3)

    def test_star(self):
        assert hc.mcn_exact(auto(hc.hyperstar(7, 4))).value == 5

    def test_empty_edges_needs_every_node(self):
        A = hc.AdjacencyTensor(order=2, dim=3, entries={})
        res = hc.mcn_exact(A)
        assert res.value == 3
        assert res.witness == (1, 2, 3)

    def test_guard(self):
        A = hc.AdjacencyTensor(order=2, dim=25, entries={})
        with pytest.raises(ExactSearchGuardError, match="greedy"):
            hc.mcn_exact(A)
        # overridable
        assert hc.mcn_exact(A, guard=25).value == 25

    def test_witness_always_verifies(self):
        for seed in range(10):
            g = random_hypergraph(seed, 7, 3, density=0.3)
            res = hc.mcn_exact(auto(g))
            assert hc.verdict(auto(g), hc.ControlMatrix(res.witness)).full

    def test_all_witnesses_enumeration(self, monkeypatch):
        calls = []
        closure = mcn_mod.closure_basis

        def counting_closure(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(mcn_mod, "closure_basis", counting_closure)
        res = hc.mcn_exact(auto(hc.complete(4, 4)), all_witnesses=True)
        # one lexicographic pass: each subset of size 1, 2 and 3 closed once
        assert len(calls) == 4 + 6 + 4
        assert res.all_witnesses is not None
        # every 3-subset of a single 4-edge works
        assert len(res.all_witnesses) == 4
        for w in res.all_witnesses:
            assert hc.verdict(auto(hc.complete(4, 4)), hc.ControlMatrix(w)).full


class TestGreedy:
    def test_ring(self):
        assert hc.mcn_greedy(auto(hc.hyperring(8, 4))).value == 3

    def test_overlap_chain_value(self):
        res = hc.mcn_greedy(auto(hc.overlap_variant(10, 4, 1, "chain")))
        assert res.value == 7

    def test_empty_edges(self):
        A = hc.AdjacencyTensor(order=2, dim=4, entries={})
        res = hc.mcn_greedy(A)
        assert res.value == 4

    def test_rank_trace_monotone_and_final(self):
        res = hc.mcn_greedy(auto(hc.hyperstar(7, 4)))
        ranks = [r for _, r in res.rank_trace]
        assert ranks == sorted(ranks)
        assert ranks[-1] == 7
        assert len(res.rank_trace) == res.value

    def test_deterministic(self):
        A = auto(random_hypergraph(5, 8, 4, density=0.5))
        a = hc.mcn_greedy(A)
        b = hc.mcn_greedy(A)
        assert a.witness == b.witness

    def test_tie_break_modes(self):
        A = auto(hc.hyperchain(8, 4))
        deg = hc.mcn_greedy(A, tie_break="degree")
        idx = hc.mcn_greedy(A, tie_break="index")
        rnd = hc.mcn_greedy(A, tie_break="random", seed=11)
        assert deg.value == idx.value == rnd.value == 3
        # index mode starts from node 1; degree mode prefers the interior
        assert idx.witness[0] == 1
        assert deg.witness[0] == 4
        again = hc.mcn_greedy(A, tie_break="random", seed=11)
        assert rnd.witness == again.witness

    @pytest.mark.parametrize("seed, witness", [(22, (4,)), (35, (1,)), (38, (3,))])
    def test_degree_ties_pick_lowest_index(self, seed, witness):
        # degrees are exact integers, so equal-degree nodes tie exactly and
        # the lowest index among the highest degree wins
        A = auto(random_mixed_hypergraph(seed, 7, 4))
        d = hc.degrees(A)
        assert np.array_equal(d, np.round(d))
        top = tuple(np.flatnonzero(d == d.max()) + 1)
        assert len(top) > 1
        assert hc.mcn_greedy(A).witness == witness == top[:1]

    def test_random_mode_requires_seed(self):
        A = auto(hc.hyperchain(6, 3))
        with pytest.raises(ValueError, match="seed"):
            hc.mcn_greedy(A, tie_break="random")

    def test_threads_do_not_change_output(self):
        A = auto(random_hypergraph(9, 8, 4, density=0.5))
        serial = hc.mcn_greedy(A, threads=1)
        threaded = hc.mcn_greedy(A, threads=4)
        assert serial.witness == threaded.witness

    def test_never_below_exact(self):
        for seed in range(20):
            g = random_hypergraph(seed, 7, 3, density=0.4)
            ex = hc.mcn_exact(auto(g)).value
            gr = hc.mcn_greedy(auto(g)).value
            assert gr >= ex

    def test_witness_always_verifies(self):
        for seed in range(10):
            g = random_hypergraph(seed + 50, 8, 4, density=0.5)
            res = hc.mcn_greedy(auto(g))
            assert hc.verdict(auto(g), hc.ControlMatrix(res.witness)).full


class TestPredicted:
    def test_plain_families(self):
        assert mcn_predicted("chain", 10, 4) == 3
        assert mcn_predicted("chain", 12, 6) == 5
        assert mcn_predicted("ring", 8, 4) == 3
        assert mcn_predicted("ring", 5, 4) is None  # n <= k+1
        assert mcn_predicted("ring", 6, 2) is None  # classical rings excluded
        assert mcn_predicted("star", 10, 4) == 8
        assert mcn_predicted("star", 4, 4) is None  # leafless
        assert mcn_predicted("complete", 9, 4) == 8

    def test_variant_table(self):
        assert mcn_predicted("r-chain", 10, 4, 1) == 7
        assert mcn_predicted("r-ring", 9, 4, 1) == 6
        assert mcn_predicted("r-chain", 10, 4, 2) == 6
        assert mcn_predicted("r-chain", 9, 3, 1) == 5
        assert mcn_predicted("r-star", 10, 3, 2) == 8  # falls back to star
        assert mcn_predicted("r-ring", 10, 4, 1) is None  # non-tiling
        assert mcn_predicted("r-chain", 9, 4, 1) is None

    def test_closed_forms_match_exact_small(self):
        # spot confirmation; the full n<=12 sweep runs in the acceptance suite
        cases = [
            ("chain", hc.hyperchain(8, 4), 8, 4, None),
            ("ring", hc.hyperring(8, 4), 8, 4, None),
            ("star", hc.hyperstar(8, 4), 8, 4, None),
            ("complete", hc.complete(6, 4), 6, 4, None),
            ("r-chain", hc.overlap_variant(7, 4, 1, "chain"), 7, 4, 1),
            ("r-ring", hc.overlap_variant(6, 4, 2, "ring"), 6, 4, 2),
        ]
        for family, graph, n, k, r in cases:
            want = mcn_predicted(family, n, k, r)
            assert want is not None
            assert hc.mcn_exact(auto(graph)).value == want

    @pytest.mark.parametrize("family", ["chain", "ring", "star"])
    @pytest.mark.parametrize("k, r", [(3, 1), (4, 1), (4, 2)])
    def test_prediction_only_where_the_builder_tiles(self, family, k, r):
        for n in range(k, 31):
            want = mcn_predicted("r-" + family, n, k, r)
            try:
                hc.overlap_variant(n, k, r, family)
            except ValueError as exc:
                assert "feasible n" in str(exc)
                assert want is None, (n, k, r)


class TestComponents:
    def test_connected_chain_single_component(self):
        comps = hc.connected_components(hc.hyperchain(6, 3))
        assert len(comps) == 1
        assert comps[0].nodes == (1, 2, 3, 4, 5, 6)

    def test_disjoint_triples(self):
        g = hc.Hypergraph(6, ((1, 2, 3), (4, 5, 6)))
        comps = hc.connected_components(g)
        assert [c.nodes for c in comps] == [(1, 2, 3), (4, 5, 6)]
        for c in comps:
            assert c.hypergraph.edges == ((1, 2, 3),)

    def test_isolated_nodes_become_singletons(self):
        g = hc.Hypergraph(5, ((1, 2, 3),))
        comps = hc.connected_components(g)
        assert [c.nodes for c in comps] == [(1, 2, 3), (4,), (5,)]

    def test_component_additivity_of_mcn(self):
        # disjoint union: chain(4,3) nodes 1-4, single 3-edge nodes 5-7
        g = hc.Hypergraph(7, ((1, 2, 3), (2, 3, 4), (5, 6, 7)))
        whole = hc.mcn_exact(auto(g)).value
        parts = 0
        for comp in hc.connected_components(g):
            parts += hc.mcn_exact(auto(comp.hypergraph)).value
        assert whole == parts == 4

    def test_weights_preserved(self):
        g = hc.Hypergraph(5, ((1, 2), (4, 5)), weights=(2.0, 3.0))
        comps = hc.connected_components(g)
        assert [c.nodes for c in comps] == [(1, 2), (3,), (4, 5)]
        assert comps[0].hypergraph.weights == (2.0,)
        assert comps[2].hypergraph.weights == (3.0,)
