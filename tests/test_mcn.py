"""Exact and greedy control-node search, predictions, components."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import hyperctrl as hc
from hyperctrl import mcn as mcn_mod
from hyperctrl.mcn import ExactSearchGuardError, _twin_classes, mcn_predicted

from helpers import (
    exact_closure_rank,
    exact_mcn_reference,
    greedy_reference,
    max_eigen_multiplicity,
    random_hypergraph,
    random_mixed_hypergraph,
    seeded_floats,
)


def auto(graph):
    return hc.adjacency_auto(graph)


class TestExact:
    def test_single_edge_complete(self):
        res = hc.mcn_exact(auto(hc.complete(4, 4)))
        assert res.value == 3
        assert res.witness == (1, 2, 3)
        # no pair suffices
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
        # one depth-first walk per size; a prefix costs its warm closure plus
        # its completion bound. All four nodes are twins, so a child must
        # hold its lower twins and each size walks one chain of prefixes:
        # size 1 closes (1); size 2 (1) with its bound and (1, 2); size 3
        # (1) and (1, 2) with their bounds and (1, 2, 3)
        assert len(calls) == res.closures == 1 + 3 + 5
        assert res.all_witnesses is not None
        # every 3-subset of a single 4-edge works: the twin orbit of (1, 2, 3)
        assert res.all_witnesses == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        for w in res.all_witnesses:
            assert hc.verdict(auto(hc.complete(4, 4)), hc.ControlMatrix(w)).full


def reference_grid():
    """Family, random, weighted mixed-cardinality and disconnected graphs."""
    for n in range(5, 10):
        for k in (3, 4):
            yield f"chain-{n}-{k}", hc.hyperchain(n, k)
            yield f"ring-{n}-{k}", hc.hyperring(n, k)
            if n < 9:
                yield f"star-{n}-{k}", hc.hyperstar(n, k)
            if n < 8:
                yield f"complete-{n}-{k}", hc.complete(n, k)
    for k, density in ((2, 0.3), (3, 0.15), (4, 0.05)):
        for seed in range(1, 7):
            n = 6 + seed % 3
            yield f"random-{n}-{k}-{seed}", hc.random_uniform(n, k, density, seed)
    for seed in range(1, 7):
        g = random_mixed_hypergraph(seed, 6 + seed % 2, 4)
        weights = tuple(seeded_floats(seed, len(g.edges), lo=0.5, hi=4.0))
        yield f"mixed-{seed}", hc.Hypergraph(g.n, g.edges, weights=weights)
    yield "disconnected", hc.Hypergraph(9, ((1, 2, 3), (2, 3, 4), (5, 6, 7)))


REFERENCE_GRID = dict(reference_grid())


class TestExactMatchesReference:
    """The depth-first search with warm starts and prunes returns what
    closing every subset cold in lexicographic order returns."""

    @pytest.mark.parametrize("name", list(REFERENCE_GRID))
    def test_value_witness_and_all_witnesses(self, name):
        A = auto(REFERENCE_GRID[name])
        assert hc.mcn_exact(A, all_witnesses=True) == exact_mcn_reference(A, all_witnesses=True)
        assert hc.mcn_exact(A) == exact_mcn_reference(A)

    def test_noise_column_is_no_witness(self):
        # closure({1, 6, 7}) has exact rank 7 of 8; a rounding-noise column
        # scaled to unit norm once made it full and listed it as a witness
        A = auto(hc.random_uniform(8, 3, 0.1, 9))
        assert exact_closure_rank(A, (1, 6, 7)) == 7
        res = hc.mcn_exact(A, all_witnesses=True)
        assert res.value == 3
        assert (1, 6, 7) not in res.all_witnesses
        assert all(exact_closure_rank(A, w) == 8 for w in res.all_witnesses)


def swap_twins(tensor):
    """Twin classes by the definition: every pair is swapped and the whole
    pattern map compared, with no bucketing and no early stop."""
    n = tensor.dim
    classes = [[j] for j in range(1, n + 1)]
    for i, j in itertools.combinations(range(1, n + 1), 2):
        swap = {i: j, j: i}
        image = {
            tuple(sorted(swap.get(v, v) for v in p)): c for p, c in tensor.entries.items()
        }
        ci = next(c for c in classes if i in c)
        cj = next(c for c in classes if j in c)
        if image == tensor.entries and ci is not cj:
            ci.extend(cj)
            classes.remove(cj)
    return sorted(tuple(sorted(c)) for c in classes)


class TestTwinClasses:
    def test_star_hub_and_leaves(self):
        assert _twin_classes(auto(hc.hyperstar(8, 3))) == [(1, 2), (3, 4, 5, 6, 7, 8)]
        assert _twin_classes(auto(hc.hyperstar(7, 4))) == [(1, 2, 3), (4, 5, 6, 7)]

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (6, 4)])
    def test_complete_is_one_class(self, n, k):
        assert _twin_classes(auto(hc.complete(n, k))) == [tuple(range(1, n + 1))]

    @pytest.mark.parametrize("n, k", [(6, 2), (9, 3), (10, 4), (40, 4)])
    def test_ring_has_no_twins(self, n, k):
        assert _twin_classes(auto(hc.hyperring(n, k))) == [(j,) for j in range(1, n + 1)]

    def test_unequal_weights_are_not_twins(self):
        # the patterns {1,2,3} and {1,2,4} swap onto each other, but carry
        # different coefficients
        edges = ((1, 2, 3), (1, 2, 4))
        equal = auto(hc.Hypergraph(4, edges, weights=(2.0, 2.0)))
        unequal = auto(hc.Hypergraph(4, edges, weights=(1.0, 2.0)))
        assert _twin_classes(equal) == [(1, 2), (3, 4)]
        assert _twin_classes(unequal) == [(1, 2), (3,), (4,)]

    def test_isolated_nodes_are_twins(self):
        A = hc.AdjacencyTensor(order=3, dim=5, entries={(1, 2, 3): 0.5})
        assert _twin_classes(A) == [(1, 2, 3), (4, 5)]

    def test_matches_the_definition(self):
        graphs = [hc.random_uniform(7, 2, 0.5, seed) for seed in range(1, 21)]
        graphs += [hc.random_uniform(6, 3, 0.5, seed) for seed in range(1, 21)]
        graphs += [random_mixed_hypergraph(seed, 6, 3) for seed in range(1, 21)]
        with_twins = 0
        for g in graphs:
            A = auto(g)
            want = swap_twins(A)
            assert _twin_classes(A) == want, g
            with_twins += len(want) < g.n
        assert with_twins >= 10


def greedy_grid():
    """Seeded graphs for the pruned-versus-plain greedy comparison: the
    closed-form families, random uniform graphs at k = 2, 3, 4, and
    weighted mixed-cardinality graphs, many of them with twins."""
    for n in range(5, 11):
        for k in (2, 3, 4):
            yield f"chain-{n}-{k}", hc.hyperchain(n, k)
            yield f"ring-{n}-{k}", hc.hyperring(n, k)
            yield f"star-{n}-{k}", hc.hyperstar(n, k)
            if math.comb(n, k) <= 60:
                yield f"complete-{n}-{k}", hc.complete(n, k)
    for k, density in ((2, 0.25), (2, 0.5), (3, 0.1), (3, 0.3), (4, 0.05), (4, 0.15)):
        for seed in range(1, 31):
            n = 7 + seed % 5
            yield f"random-{n}-{k}-{density}-{seed}", hc.random_uniform(n, k, density, seed)
    for seed in range(1, 21):
        g = random_mixed_hypergraph(seed, 6 + seed % 3, 4)
        # two weight levels, so that some twins survive the weighting
        weights = tuple(1.0 + (w > 0) for w in seeded_floats(seed, len(g.edges)))
        yield f"mixed-{seed}", hc.Hypergraph(g.n, g.edges, weights=weights)


GREEDY_GRID = dict(greedy_grid())


class TestGreedyMatchesReference:
    """Skipping twins and stopping a step at the first full candidate keeps
    the witness and the rank trace of the search that evaluates every
    candidate, under each tie-break."""

    def test_grid_size(self):
        assert len(GREEDY_GRID) >= 250
        twins = sum(len(_twin_classes(auto(g))) < g.n for g in GREEDY_GRID.values())
        assert twins >= 50

    @pytest.mark.parametrize("name", list(GREEDY_GRID))
    def test_witness_and_trace(self, name):
        A = auto(GREEDY_GRID[name])
        for tie_break, seed in (("degree", None), ("index", None), ("random", 7)):
            got = hc.mcn_greedy(A, tie_break=tie_break, seed=seed)
            want = greedy_reference(A, tie_break=tie_break, seed=seed)
            assert (got.witness, got.rank_trace) == (want.witness, want.rank_trace), tie_break

    @pytest.mark.parametrize(
        "graph, closures, twins",
        [
            (hc.hyperring(40, 4), 80, 0),
            (hc.hyperstar(40, 3), 76, 740),
            (hc.hyperchain(60, 3), 61, 0),
        ],
        ids=["ring-40-4", "star-40-3", "chain-60-3"],
    )
    def test_closure_counts(self, graph, closures, twins):
        # the plain search runs 117, 817 and 119 closures on these inputs
        A = auto(graph)
        got = hc.mcn_greedy(A)
        assert (got.closures, got.skipped["twins"]) == (closures, twins)
        n = graph.n
        evaluated = sum(n - step for step in range(got.value))
        assert got.closures + sum(got.skipped.values()) == evaluated
        want = greedy_reference(A)
        assert (got.witness, got.rank_trace) == (want.witness, want.rank_trace)

    def test_random_evaluates_every_candidate(self):
        A = auto(hc.hyperstar(12, 3))
        got = hc.mcn_greedy(A, tie_break="random", seed=3)
        assert got.skipped == {"early_stop": 0, "twins": 0}
        assert got.closures == sum(12 - step for step in range(got.value))


class TestOrderTwoMultiplicityBound:
    """At k = 2 no fewer control nodes than the largest eigenvalue
    multiplicity of A will do (PBH test). It is a lower bound only: the
    bound allows any input columns, the search unit columns."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_closed_forms(self, n):
        complete = auto(hc.complete(n, 2))
        star = auto(hc.hyperstar(n, 2))
        cycle = auto(hc.hyperring(n, 2))
        assert max_eigen_multiplicity(complete) == n - 1 == mcn_predicted("complete", n, 2)
        assert max_eigen_multiplicity(star) == n - 2 == mcn_predicted("star", n, 2)
        assert max_eigen_multiplicity(cycle) == 2
        assert hc.mcn_exact(complete).value == n - 1
        assert hc.mcn_exact(star).value == n - 2
        assert hc.mcn_exact(cycle).value == 2

    def test_bound_below_exact_per_component(self):
        components = 0
        for seed in range(1, 31):
            g = hc.random_uniform(6 + seed % 4, 2, 0.25, seed)
            for comp in hc.connected_components(auto(g)):
                A = comp.tensor
                assert max_eigen_multiplicity(A) <= hc.mcn_exact(A).value, (seed, comp.nodes)
                components += 1
        assert components >= 60

    def test_bound_is_not_the_unit_column_minimum(self):
        A = auto(hc.Hypergraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))))
        assert max_eigen_multiplicity(A) == 1
        assert hc.mcn_exact(A).value == 2

    @pytest.mark.parametrize("n, density, seed", [(40, 0.05, 1), (50, 0.04, 2), (60, 0.03, 3)])
    def test_bound_below_greedy(self, n, density, seed):
        A = auto(hc.random_uniform(n, 2, density, seed))
        mu = max_eigen_multiplicity(A)
        assert mu > 1
        assert mu <= hc.mcn_greedy(A).value


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


@pytest.mark.parametrize("tol", [2.0, float("nan")])
@pytest.mark.parametrize(
    "solve",
    [
        hc.mcn_exact,
        hc.mcn_greedy,
        lambda A, tol: hc.verdict(A, hc.ControlMatrix((1, 2)), tol=tol),
    ],
    ids=["mcn_exact", "mcn_greedy", "verdict"],
)
def test_tolerance_outside_unit_interval_rejected(solve, tol):
    # the library refuses what the CLI refuses, instead of a None value or rank 0
    with pytest.raises(ValueError, match=r"rank tolerance must lie in \[0, 1\)"):
        solve(auto(hc.hyperchain(6, 3)), tol=tol)


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
        A = auto(hc.hyperchain(6, 3))
        comps = hc.connected_components(A)
        assert len(comps) == 1
        assert comps[0].nodes == (1, 2, 3, 4, 5, 6)
        assert comps[0].tensor.entries == A.entries

    def test_disjoint_triples(self):
        g = hc.Hypergraph(6, ((1, 2, 3), (4, 5, 6)))
        comps = hc.connected_components(auto(g))
        assert [c.nodes for c in comps] == [(1, 2, 3), (4, 5, 6)]
        for c in comps:
            assert c.tensor == auto(hc.Hypergraph(3, ((1, 2, 3),)))

    def test_isolated_nodes_become_singletons(self):
        g = hc.Hypergraph(5, ((1, 2, 3),))
        comps = hc.connected_components(auto(g))
        assert [c.nodes for c in comps] == [(1, 2, 3), (4,), (5,)]
        # a singleton is the order-3 tensor restricted to one node
        assert [(c.tensor.order, c.tensor.dim, c.tensor.entries) for c in comps[1:]] == [
            (3, 1, {}),
            (3, 1, {}),
        ]

    def test_component_additivity_of_mcn(self):
        # disjoint union: chain(4,3) nodes 1-4, single 3-edge nodes 5-7
        A = auto(hc.Hypergraph(7, ((1, 2, 3), (2, 3, 4), (5, 6, 7))))
        whole = hc.mcn_exact(A).value
        parts = 0
        for comp in hc.connected_components(A):
            parts += hc.mcn_exact(comp.tensor).value
        assert whole == parts == 4

    def test_weights_preserved(self):
        g = hc.Hypergraph(5, ((1, 2), (4, 5)), weights=(2.0, 3.0))
        comps = hc.connected_components(auto(g))
        assert [c.nodes for c in comps] == [(1, 2), (3,), (4, 5)]
        assert comps[0].tensor.entries == {(1, 2): 2.0}
        assert comps[2].tensor.entries == {(1, 2): 3.0}

    def test_pieces_keep_the_order_of_the_whole_tensor(self):
        # a 2-uniform piece of a graph whose largest edge has 3 nodes is the
        # order-3 tensor restricted to it, coefficients unchanged
        g = hc.Hypergraph(6, ((1, 2, 3), (4, 6), (5, 6)))
        A = auto(g)
        comps = hc.connected_components(A)
        assert [c.nodes for c in comps] == [(1, 2, 3), (4, 5, 6)]
        assert all(c.tensor.order == 3 for c in comps)
        relabel = {4: 1, 5: 2, 6: 3}
        assert comps[1].tensor.entries == {
            tuple(relabel[j] for j in p): coef for p, coef in A.entries.items() if p[0] > 3
        }
