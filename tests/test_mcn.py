"""Exact and greedy control-node search, predictions, components."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

import hyperctrl as hc
from hyperctrl import mcn as mcn_mod
from hyperctrl.mcn import (
    ExactSearchGuardError,
    _lower_bound,
    _twin_classes,
    mcn_predicted,
)

from helpers import (
    REFERENCE_GRID,
    TWIN_HUBS,
    exact_closure_rank,
    exact_mcn_reference,
    greedy_reference,
    max_eigen_multiplicity,
    modular_closure_rank,
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

    def test_complete_walk_is_one_twin_chain(self, monkeypatch):
        calls = []
        closure = mcn_mod.closure_basis

        def counting_closure(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(mcn_mod, "closure_basis", counting_closure)
        res = hc.mcn_exact(auto(hc.complete(4, 4)))
        # one depth-first walk over all sizes; a prefix costs its warm
        # closure plus its completion bound. All four nodes are twins, so a
        # child must hold its lower twins and the walk is one chain: (1) with
        # its bound, (1, 2) with its bound, then (1, 2, 3), which is full and
        # meets the lower bound of 3 (one twin class of four), so the walk
        # stops there and looks at no other child
        assert len(calls) == res.closures == 2 + 2 + 1
        assert res.skipped == {"twins": 0, "bound": 0}
        assert res.lower_bound == 3
        assert (res.value, res.witness) == (3, (1, 2, 3))
        assert hc.verdict(auto(hc.complete(4, 4)), hc.ControlMatrix(res.witness)).full


SYMMETRIC = {
    "ring-12-3": hc.hyperring(12, 3),
    "ring-14-4": hc.hyperring(14, 4),
    "r-ring-12-3-1": hc.overlap_variant(12, 3, 1, "ring"),
    "r-ring-12-4-2": hc.overlap_variant(12, 4, 2, "ring"),
    "r-ring-14-3-1": hc.overlap_variant(14, 3, 1, "ring"),
    "cycle-10": hc.hyperring(10, 2),
}

# the 20-node k = 2 circulant that joins node i to i + 3, i + 4 and i + 8
CIRCULANT = hc.Hypergraph(20, tuple(sorted(
    tuple(sorted((i + 1, (i + d) % 20 + 1))) for i in range(20) for d in (3, 4, 8)
)))


class TestExactMatchesReference:
    """The depth-first search with warm starts and prunes returns what
    closing every subset cold in lexicographic order returns."""

    @pytest.mark.parametrize("name", list(REFERENCE_GRID))
    def test_value_witness_and_all_witnesses(self, name):
        A = auto(REFERENCE_GRID[name])
        # the name predates the removal of the all-witness mode and is kept
        # so that the test ids stay the same
        assert hc.mcn_exact(A) == exact_mcn_reference(A)

    @pytest.mark.parametrize(
        "graph, witness, closures, skipped",
        [
            (hc.overlap_variant(12, 3, 1, "ring"), (1, 2, 4, 6, 8, 10), 15, {"twins": 0, "bound": 0}),
            (hc.hyperstar(12, 3), (1, *range(3, 12)), 38, {"twins": 44, "bound": 0}),
        ],
        ids=["r-ring-12-3-1", "star-12-3"],
    )
    def test_closure_counts(self, graph, witness, closures, skipped):
        # one walk per subset size ran 1500 and 198 closures on these inputs;
        # walking on past the first set that meets the lower bound, with an
        # automorphism prune, ran 136 and 40
        got = hc.mcn_exact(auto(graph))
        assert (got.value, got.witness) == (len(witness), witness)
        assert (got.closures, got.skipped) == (closures, skipped)
        assert got.lower_bound == len(witness)

    @pytest.mark.parametrize("name", list(SYMMETRIC))
    def test_symmetric_families(self, name):
        # inputs whose automorphism group modulo twins is not trivial: the
        # walk stops at the lower bound or searches on, and never needs the
        # group to find the first minimum
        A = auto(SYMMETRIC[name])
        got = hc.mcn_exact(A)
        assert got == exact_mcn_reference(A)
        assert got.lower_bound <= got.value

    def test_circulant_exact_mcn(self):
        # dihedral with 40 elements; the lower bound is 1 against a value of
        # 2, so after (1, 2) the walk closes every other single node to show
        # that none is full. With a search over the group it ran 3 closures
        A = auto(CIRCULANT)
        got = hc.mcn_exact(A)
        assert got == exact_mcn_reference(A)
        assert (got.value, got.witness, got.closures, got.lower_bound) == (2, (1, 2), 22, 1)

    def test_noise_column_is_no_witness(self):
        # closure({1, 6, 7}) has exact rank 7 of 8; a rounding-noise column
        # scaled to unit norm once made it full and listed it as a witness
        A = auto(hc.random_uniform(8, 3, 0.1, 9))
        assert exact_closure_rank(A, (1, 6, 7)) == 7
        res = hc.mcn_exact(A)
        assert res.value == 3
        assert exact_closure_rank(A, res.witness) == 8


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
        # star(6,3) has adjacent twins (the hub) beside non-adjacent ones
        graphs += [hc.hyperstar(6, 3), hc.complete(6, 3), hc.complete(5, 2)]
        graphs += [hc.hyperchain(8, 3), hc.hyperring(9, 3), hc.hyperring(10, 4)]
        with_twins = 0
        for g in graphs:
            A = auto(g)
            want = swap_twins(A)
            assert _twin_classes(A) == want, g
            with_twins += len(want) < g.n
        assert with_twins >= 10


def bound_rules(tensor):
    """The three rules of ``_lower_bound`` from their statements: twins by
    swapping every pair, supports by listing each pattern's distinct nodes."""
    n = tensor.dim
    wide = {tuple(sorted(set(p))) for p in tensor.entries} - {(j,) for j in range(1, n + 1)}
    return {
        "twins": sum(len(c) - 1 for c in swap_twins(tensor)),
        "supports": n - len(wide),
        "smallest support": min([n] + [len(s) - 1 for s in wide]),
    }


class TestLowerBound:
    """No full control set is smaller than ``_lower_bound``."""

    def test_below_the_reference_per_component(self):
        loose = set()
        for name, g in REFERENCE_GRID.items():
            for comp in hc.connected_components(auto(g)):
                A = comp.tensor
                bound = _lower_bound(A, _twin_classes(A))
                want = exact_mcn_reference(A).value
                assert bound <= want, name
                if bound < want:
                    loose.add(name)
        # tight on every other component, 100 of 102
        assert loose <= {"mixed-4", "r-ring-10-4-2"}

    @pytest.mark.parametrize("seed", range(1, 41))
    def test_below_the_reference_on_mixed_graphs(self, seed):
        for comp in hc.connected_components(auto(random_mixed_hypergraph(seed, 7, 4))):
            A = comp.tensor
            assert _lower_bound(A, _twin_classes(A)) <= exact_mcn_reference(A).value

    @pytest.mark.parametrize(
        "graph, rule, value",
        [
            (hc.hyperstar(12, 3), "twins", 10),
            (hc.overlap_variant(12, 3, 1, "ring"), "supports", 6),
            (hc.hyperring(12, 4), "smallest support", 3),
        ],
        ids=["star-12-3", "r-ring-12-3-1", "ring-12-4"],
    )
    def test_each_rule_binds_alone(self, graph, rule, value):
        A = auto(graph)
        rules = bound_rules(A)
        assert rules.pop(rule) == value == _lower_bound(A, _twin_classes(A))
        assert max(rules.values()) < value
        got = hc.mcn_exact(A)
        assert (got.value, got.lower_bound) == (value, value)

    @pytest.mark.parametrize(
        "build, family, n, k",
        [
            (hc.hyperstar, "star", 200, 3),
            (hc.complete, "complete", 30, 3),
            (hc.hyperchain, "chain", 200, 3),
            (hc.hyperring, "ring", 200, 4),
        ],
        ids=["star-200-3", "complete-30-3", "chain-200-3", "ring-200-4"],
    )
    def test_closed_forms_past_the_guard(self, build, family, n, k):
        # twins prove the star and the complete graph, the smallest
        # support the chain and the ring
        A = auto(build(n, k))
        assert _lower_bound(A, _twin_classes(A)) == mcn_predicted(family, n, k)


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
    candidate."""

    def test_grid_size(self):
        assert len(GREEDY_GRID) >= 250
        twins = sum(len(_twin_classes(auto(g))) < g.n for g in GREEDY_GRID.values())
        assert twins >= 50

    @pytest.mark.parametrize("name", list(GREEDY_GRID))
    def test_witness_and_trace(self, name):
        A = auto(GREEDY_GRID[name])
        got = hc.mcn_greedy(A)
        want = greedy_reference(A)
        assert (got.witness, got.rank_trace) == (want.witness, want.rank_trace)
        # no control set, greedy's included, is below the lower bound
        assert got.lower_bound <= got.value

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


class TestGreedyTraceOverGFp:
    """At n in the hundreds every greedy rank, prefix by prefix, is the exact
    rank over GF(p), on inputs where the float closure is known to hold."""

    @pytest.mark.parametrize(
        "graph, value",
        [
            (hc.hyperring(150, 3), 2),
            (hc.hyperchain(200, 2), 1),
            (hc.random_uniform(100, 2, 0.03, 1), 11),
        ],
        ids=["ring-150-3", "chain-200-2", "random-100-2"],
    )
    def test_every_prefix_rank(self, graph, value):
        A = auto(graph)
        res = hc.mcn_greedy(A)
        assert res.value == value
        for step, (_, rank) in enumerate(res.rank_trace, start=1):
            assert modular_closure_rank(A, res.witness[:step]) == rank


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

    def test_gain_ties_go_to_highest_degree(self):
        res = hc.mcn_greedy(auto(hc.hyperchain(8, 4)))
        assert res.value == 3
        # ties go to the highest degree: the interior, not node 1
        assert res.witness[0] == 4

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


class TestEdgeOrder:
    """Degrees are sums rounded once, so they, greedy's tie-breaks and its
    answer depend on the stored patterns, not on the order of the edges."""

    def test_twin_hubs_tie_in_either_edge_order(self):
        pairs = list(zip(TWIN_HUBS["edges"], TWIN_HUBS["weights"]))
        for order in (pairs, sorted(pairs)):
            A = auto(hc.Hypergraph(8, [e for e, _ in order], weights=[w for _, w in order]))
            d = hc.degrees(A)
            assert d[0] == d[1]
            res = hc.mcn_greedy(A)
            assert res.witness == (6, 1, 3, 4, 5, 7)
            assert (res.closures, res.skipped) == (16, {"early_stop": 1, "twins": 16})

    @pytest.mark.parametrize(
        "seed", [10, 25, 31, 34, 52, 90, 98, 104, 133, 145, 163, 176, 200, 240, 261, 296]
    )
    def test_shuffled_edges_give_the_same_search(self, seed):
        g = random_mixed_hypergraph(seed, 8 + seed % 5, 4)
        edges = list(g.edges)
        random.Random(seed).shuffle(edges)
        got = hc.mcn_greedy(auto(hc.Hypergraph(g.n, edges)))
        want = hc.mcn_greedy(auto(g))
        # MCNResult equality covers the value, the witness and the rank trace
        assert got == want
        assert (got.closures, got.skipped) == (want.closures, want.skipped)


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
        assert mcn_predicted("chain", 2, 3) is None  # n < k
        assert mcn_predicted("bogus", 7, 3) is None

    def test_variant_table(self):
        assert mcn_predicted("r-chain", 10, 4, 1) == 7
        assert mcn_predicted("r-ring", 9, 4, 1) == 6
        assert mcn_predicted("r-chain", 10, 4, 2) == 6
        assert mcn_predicted("r-chain", 9, 3, 1) == 5
        assert mcn_predicted("r-star", 10, 3, 2) == 8  # falls back to star
        assert mcn_predicted("r-ring", 10, 4, 1) is None  # non-tiling
        assert mcn_predicted("r-chain", 9, 4, 1) is None
        assert mcn_predicted("r-chain", 7, 3) is None  # no r
        assert mcn_predicted("r-chain", 11, 5, 2) is None  # tiles, but no table entry

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


class TestOneNode:
    """A one-node tensor is answered by its node: no degree, twin class,
    kernel or closure is built, and the answer is the searches' own."""

    @pytest.mark.parametrize(
        "search, reference, skipped",
        [
            (hc.mcn_greedy, greedy_reference, {"early_stop": 0, "twins": 0}),
            (hc.mcn_exact, exact_mcn_reference, {"twins": 0, "bound": 0}),
        ],
        ids=["greedy", "exact"],
    )
    @pytest.mark.parametrize(
        "entries", [{}, {(1, 1, 1): 1048573.0}], ids=["bare", "self-pattern"]
    )
    def test_answered_without_a_search(self, search, reference, skipped, entries):
        A = hc.AdjacencyTensor(3, 1, entries)
        got = search(A)
        assert A._kernel is None and A._incidence is None
        assert (got.value, got.witness, got.closures, got.skipped) == (1, (1,), 0, skipped)
        assert got.lower_bound == 1
        assert got == reference(hc.AdjacencyTensor(3, 1, entries))

    def test_exact_guard_still_applies(self):
        with pytest.raises(ExactSearchGuardError):
            hc.mcn_exact(hc.AdjacencyTensor(2, 1, {}), guard=0)


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
