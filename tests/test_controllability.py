"""The closure over GF(p) and rank verdicts, against independent oracles."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

import hyperctrl as hc
from hyperctrl.controllability import closure_basis

from helpers import (
    contract_mod_p,
    dense_subspace_rank,
    dense_tensor,
    exact_closure_rank,
    kalman_rank,
    modular_closure_rank,
    random_hypergraph,
    seeded_floats,
    seeded_ints,
)


def rank_of(graph, nodes, **kw):
    return closure_basis(hc.adjacency_auto(graph), nodes, **kw).rank


def outside_span(res, vecs, p):
    """What is left of each column of ``vecs`` after reducing it mod p by
    the reduced echelon ``res.basis``: all zero exactly when it lies in the
    span."""
    pivots = (res.basis != 0).argmax(axis=0)
    vecs = np.asarray(vecs, dtype=object)
    return (vecs - res.basis.astype(object) @ vecs[pivots]) % p


class TestReducedControllability:
    def test_single_edge_three_controls_full(self):
        A = hc.adjacency_auto(hc.complete(4, 4))
        res = closure_basis(A, (1, 2, 3))
        assert res.rank == 4
        assert res.iterations == 1

    def test_single_edge_two_controls_stuck(self):
        # every expansion multiset repeats a unit column, so nothing is added
        A = hc.adjacency_auto(hc.complete(4, 4))
        res = closure_basis(A, (1, 2))
        assert res.rank == 2

    def test_empty_control_set(self):
        A = hc.adjacency_auto(hc.hyperchain(5, 3))
        res = closure_basis(A, ())
        assert res.rank == 0
        assert res.basis.shape == (5, 0)

    def test_classical_chain_graph_from_end_node(self):
        g = hc.hyperchain(4, 2)
        A = hc.adjacency_auto(g)
        res = closure_basis(A, (1,))
        assert res.rank == 4
        assert kalman_rank(dense_tensor(A), (1,)) == 4

    def test_classical_agreement_random_graphs(self):
        for seed in range(15):
            g = random_hypergraph(seed, 5, 2, density=0.5)
            A = hc.adjacency_auto(g) if g.edges else hc.AdjacencyTensor(2, 5, {})
            dense = dense_tensor(A)
            nodes = tuple(sorted(set(j + 1 for j in seeded_ints(seed, 2, 5))))
            got = closure_basis(A, nodes).rank
            assert got == kalman_rank(dense, nodes)

    def test_basis_is_echelon_and_holds_controls(self):
        for graph, nodes in ((hc.hyperstar(7, 4), (1, 2, 5)), (hc.hyperring(96, 3), (1, 2))):
            A = hc.adjacency_auto(graph)
            p = A.kernel().prime
            res = closure_basis(A, nodes)
            assert res.basis.shape == (A.dim, res.rank)
            assert ((0 <= res.basis) & (res.basis < p)).all()
            # each column's first nonzero entry is a 1, its pivot, and the
            # pivot rows hold the identity
            pivots = (res.basis != 0).argmax(axis=0)
            assert len(set(pivots.tolist())) == res.rank
            assert np.array_equal(res.basis[pivots], np.eye(res.rank, dtype=np.int64))
            # every control column lies in the span
            units = np.eye(A.dim, dtype=np.int64)[:, [j - 1 for j in nodes]]
            assert not outside_span(res, units, p).any()

    def test_rank_equals_basis_columns(self):
        A = hc.adjacency_auto(hc.hyperring(6, 3))
        res = closure_basis(A, (1, 2))
        assert res.rank == res.basis.shape[1]

    def test_matches_dense_definition_oracle(self):
        cases = 0
        for seed in range(30):
            n = 3 + seed % 3
            k = 2 + seed % 3
            g = random_hypergraph(seed, n, k, density=0.5)
            if not g.edges:
                continue
            A = hc.adjacency_auto(g)
            m = 1 + seed % 3
            nodes = tuple(sorted(set(j + 1 for j in seeded_ints(seed + 99, m, n))))
            got = closure_basis(A, nodes).rank
            assert got == dense_subspace_rank(A, nodes)
            cases += 1
        assert cases >= 20

    def test_fixed_point_is_stable_one_more_round(self):
        # the tensor applied to any multiset of basis columns stays in the
        # span mod p, contracted exactly from the stored patterns
        for seed in (1, 5, 9):
            g = random_hypergraph(seed, 6, 3, density=0.4)
            if not g.edges:
                continue
            A = hc.adjacency_auto(g)
            p = A.kernel().prime
            res = closure_basis(A, (1, 2))
            extra = [
                contract_mod_p(A, [res.basis[:, i] for i in combo], p)
                for combo in itertools.combinations_with_replacement(range(res.rank), 2)
            ]
            assert extra and not outside_span(res, np.array(extra).T, p).any()

    def test_idempotent_on_closed_basis(self):
        A = hc.adjacency_auto(hc.hyperchain(6, 3))
        first = closure_basis(A, (1, 2))
        again = closure_basis(A, (), closed=first.basis)
        assert again.rank == first.rank

    def test_monotone_in_control_nodes(self):
        for seed in range(12):
            g = random_hypergraph(seed, 6, 3, density=0.4)
            if not g.edges:
                continue
            A = hc.adjacency_auto(g)
            base = (2, 4)
            r0 = rank_of(g, base)
            for extra in (1, 3, 5, 6):
                assert rank_of(g, base + (extra,)) >= r0

    def test_permutation_equivariance(self):
        perm = {1: 3, 2: 5, 3: 1, 4: 6, 5: 2, 6: 4}
        g = random_hypergraph(7, 6, 3, density=0.4)
        relabeled = hc.Hypergraph(
            6, tuple(tuple(perm[j] for j in e) for e in g.edges)
        )
        nodes = (1, 4)
        assert rank_of(g, nodes) == rank_of(relabeled, tuple(perm[j] for j in nodes))

    def test_warm_start_matches_cold_start(self):
        A = hc.adjacency_auto(hc.hyperring(8, 4))
        cold = closure_basis(A, (1, 2, 3))
        # one node at a time, each closure warm-started from the last
        warm = closure_basis(A, (1,))
        for j in (2, 3):
            warm = closure_basis(A, (j,), closed=warm.basis)
        assert warm.rank == cold.rank

    def test_closed_basis_warm_start_adds_only_the_new_span(self):
        A = hc.adjacency_auto(hc.hyperring(8, 4))
        partial = closure_basis(A, (1, 2))
        cold = closure_basis(A, (1, 2, 3))
        warm = closure_basis(A, (3,), closed=partial.basis)
        assert warm.rank == cold.rank
        assert not outside_span(warm, partial.basis, A.kernel().prime).any()
        # a start column already in the closed span draws nothing
        inside = closure_basis(A, (1,), closed=partial.basis)
        assert inside.rank == partial.rank and inside.iterations == 0

    @pytest.mark.parametrize("shape", [(4, 2), (5,), (5, 2, 1)])
    def test_closed_of_the_wrong_shape_is_refused(self, shape):
        A = hc.adjacency_auto(hc.hyperchain(5, 3))
        with pytest.raises(ValueError, match=r"expected \(5, m\)"):
            closure_basis(A, (1,), closed=np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize(
        "c", [1e-300, 1e-200, 1e-30, 1e-16, 1.0, 1e16, 1e30, 1e200, 1e300]
    )
    def test_rank_does_not_depend_on_the_weight_scale(self, c):
        # the rank of A is the rank of cA; an eps-relative cutoff on the
        # whole basis gave 2, 2, 12, 1, 1 from 1e-30 to 1e30, and column
        # norms squared out of the double range gave 2 below 1e-169 and
        # from 1e160 up
        g = hc.hyperchain(12, 3)
        A = hc.adjacency_auto(hc.Hypergraph(12, g.edges, weights=(c,) * len(g.edges)))
        assert closure_basis(A, (1, 2)).rank == 12

    @pytest.mark.parametrize("c", [1e-300, 1e160, 1e300])
    def test_minimum_does_not_depend_on_the_weight_scale(self, c):
        # one pair edge on three nodes: {1, 3} is full; with every contracted
        # column dropped, as once happened at these weights, it took all three
        A = hc.adjacency_auto(hc.Hypergraph(3, ((1, 2),), weights=(c,)))
        assert hc.mcn_exact(A).value == 2

    @pytest.mark.parametrize("k, density", [(2, 0.25), (3, 0.1), (4, 0.03)])
    def test_rank_does_not_depend_on_node_labels(self, k, density):
        n = 12
        for seed in range(1, 11):
            g = hc.random_uniform(n, k, density, seed)
            # seeded relabelling: sort the nodes by a splitmix64 key
            keys = seeded_floats(seed + 1000, n)
            perm = {old + 1: new + 1 for new, old in enumerate(np.argsort(keys, kind="stable"))}
            relabeled = hc.Hypergraph(n, tuple(tuple(perm[j] for j in e) for e in g.edges))
            for nodes in ((1,), (2, 3)):
                want = rank_of(g, nodes)
                assert rank_of(relabeled, tuple(perm[j] for j in nodes)) == want
                assert want == exact_closure_rank(hc.adjacency_auto(g), nodes)


def closure_and_exact_rank(n, k, density, seed, node):
    A = hc.adjacency_auto(hc.random_uniform(n, k, density, seed))
    return closure_basis(A, (node,)).rank, exact_closure_rank(A, (node,))


# (n, density, seed, control node) -> (exact rank, rank an eps-relative
# cutoff on the whole basis gave) for k = 2, where rounding noise once let
# a floating-point closure overshoot
FLOAT_RANK_TOO_HIGH = {
    (12, 0.15, 16, 3): (7, 10),
    (14, 0.15, 5, 2): (10, 13),
    (14, 0.15, 10, 1): (9, 14),
    (14, 0.15, 14, 3): (10, 13),
    (14, 0.15, 18, 1): (13, 14),
    (10, 0.25, 14, 2): (7, 10),
    (10, 0.25, 15, 2): (6, 9),
    (12, 0.25, 4, 2): (11, 12),
    (12, 0.25, 5, 1): (11, 12),
    (14, 0.25, 10, 1): (13, 14),
    (14, 0.25, 10, 2): (13, 14),
    (14, 0.25, 10, 3): (12, 14),
    (12, 0.2, 5, 3): (9, 12),
}


class TestExactOracle:
    """Closure ranks against exact rational ones, on the grids where a
    floating-point closure once went wrong."""

    def test_float_rank_matches_exact_rank_for_k3_and_k4(self):
        grid = [
            (n, k, density, seed, node)
            for k, density in ((3, 0.05), (3, 0.1), (4, 0.02))
            for n in (10, 12, 14)
            for seed in range(1, 21)
            for node in (1, 2, 3)
        ]
        assert len(grid) == 540
        wrong = []
        for case in grid:
            got, want = closure_and_exact_rank(*case)
            if got != want:
                wrong.append((case, got, want))
        assert wrong == []

    def test_exact_ranks_of_the_k2_disagreements(self):
        for (n, density, seed, node), (exact, _) in FLOAT_RANK_TOO_HIGH.items():
            A = hc.adjacency_auto(hc.random_uniform(n, 2, density, seed))
            assert exact_closure_rank(A, (node,)) == exact, (n, density, seed, node)

    @pytest.mark.parametrize("n, density, seed, node", list(FLOAT_RANK_TOO_HIGH))
    def test_float_rank_matches_exact_rank_for_k2(self, n, density, seed, node):
        got, want = closure_and_exact_rank(n, 2, density, seed, node)
        assert got == want


class TestModularOracle:
    """The GF(p) closure rank equals the rational one wherever both run."""

    def test_matches_exact_rank(self):
        cases = 0
        for k, density in ((2, 0.3), (3, 0.15), (4, 0.06)):
            for seed in range(1, 9):
                g = hc.random_uniform(7 + seed % 3, k, density, seed)
                # weights that are not dyadic, so num / 2^e carries an inverse
                weights = tuple(seeded_floats(seed, len(g.edges), lo=0.1, hi=3.0))
                for graph in (g, hc.Hypergraph(g.n, g.edges, weights=weights)):
                    A = hc.adjacency_auto(graph)
                    for nodes in ((1,), (2,), (1, 5), (3, 6)):
                        assert modular_closure_rank(A, nodes) == exact_closure_rank(A, nodes)
                        cases += 1
        assert cases == 192

    def test_k2_disagreements(self):
        for (n, density, seed, node), (exact, _) in FLOAT_RANK_TOO_HIGH.items():
            A = hc.adjacency_auto(hc.random_uniform(n, 2, density, seed))
            assert modular_closure_rank(A, (node,)) == exact, (n, density, seed, node)

    @pytest.mark.parametrize("ratio", [1e9, 1e50, 1e100])
    def test_edge_weights_far_apart(self, ratio):
        g = hc.hyperchain(12, 3)
        weights = tuple(ratio if i % 2 else 1.0 for i in range(len(g.edges)))
        A = hc.adjacency_auto(hc.Hypergraph(12, g.edges, weights=weights))
        assert modular_closure_rank(A, (1, 2)) == exact_closure_rank(A, (1, 2)) == 12


class TestRoundingFloor:
    """Closures where a floating-point contraction once left rounding noise
    (norm about 1e-15) in a column that is zero in exact arithmetic, and so
    overshot the rank; over GF(p) such a column is an exact zero."""

    def test_cold_closure_drops_a_noise_column(self):
        A = hc.adjacency_auto(hc.random_uniform(8, 3, 0.1, 9))
        assert exact_closure_rank(A, (1, 6, 7)) == 7
        assert closure_basis(A, (1, 6, 7)).rank == 7

    def test_warm_closure_drops_a_noise_column(self):
        A = hc.adjacency_auto(hc.random_uniform(8, 2, 0.25, 17))
        first = closure_basis(A, (1,))
        warm = closure_basis(A, (5,), closed=first.basis)
        assert exact_closure_rank(A, (1, 5)) == 7
        assert warm.rank == 7

    def test_floor_keeps_a_light_edge(self):
        # e5 enters only through the edge {3, 4, 5}; its column is genuine
        # however light the edge
        A = hc.adjacency_auto(hc.Hypergraph(5, ((1, 2, 3), (3, 4, 5)), weights=(1.0, 1e-12)))
        assert exact_closure_rank(A, (1, 2, 4)) == 5
        assert closure_basis(A, (1, 2, 4)).rank == 5

    def test_warm_chains_match_exact_rank(self):
        # every 2-subset {a, b}, closed as {a} and then warm-extended by b
        wrong = []
        for k, density in ((2, 0.25), (2, 0.4), (3, 0.1)):
            for seed in range(1, 18):
                A = hc.adjacency_auto(hc.random_uniform(8, k, density, seed))
                single = [closure_basis(A, (a,)) for a in range(1, 9)]
                for a, b in itertools.combinations(range(1, 9), 2):
                    got = closure_basis(A, (b,), closed=single[a - 1].basis).rank
                    want = exact_closure_rank(A, (a, b))
                    if got != want:
                        wrong.append((k, density, seed, a, b, got, want))
        assert wrong == []


class TestWeightSkew:
    """Edge weights far apart once lost a genuine direction in a
    floating-point closure: a rounding floor dropped the column of an edge
    about 1e-14 lighter than the rest, and a fixed n * 1e-10 cutoff on
    unit-scaled residuals dropped one under a 1e9 skew. Over GF(p) every
    nonzero weight is a nonzero residue, so both keep the exact rank."""

    def test_floor_drops_an_edge_1e14_lighter(self):
        A = hc.adjacency_auto(hc.Hypergraph(5, ((1, 2, 3), (3, 4, 5)), weights=(1.0, 1e-14)))
        assert closure_basis(A, (1, 2, 4)).rank == exact_closure_rank(A, (1, 2, 4)) == 5

    def test_cutoff_drops_a_direction_under_1e9_weight_skew(self):
        g = hc.hyperchain(12, 3)
        weights = tuple(1e9 if i % 2 else 1.0 for i in range(len(g.edges)))
        A = hc.adjacency_auto(hc.Hypergraph(12, g.edges, weights=weights))
        assert closure_basis(A, (1, 2)).rank == exact_closure_rank(A, (1, 2)) == 12


class TestTwins:
    def test_twins_at_n_200_have_equal_ranks(self):
        # nodes 5 and 30 are twins; a floating-point closure gave 166 and 169
        A = hc.adjacency_auto(hc.random_uniform(200, 2, 0.01, 4))
        ranks = [closure_basis(A, (j,)).rank for j in (5, 30)]
        assert ranks == [modular_closure_rank(A, (5,))] * 2 == [165, 165]


class TestVerdict:
    def test_even_order_full(self):
        A = hc.adjacency_auto(hc.complete(4, 4))
        v = hc.verdict(A, hc.ControlMatrix((1, 2, 3)))
        assert v.full and v.rank == 4
        assert v.kind is hc.VerdictKind.STRONG

    def test_odd_order_accessibility_only(self):
        A = hc.adjacency_auto(hc.hyperchain(6, 3))
        v = hc.verdict(A, hc.ControlMatrix((1, 2)))
        assert v.full
        assert v.kind is hc.VerdictKind.ACCESSIBILITY

    def test_no_controls_never_full(self):
        A = hc.adjacency_auto(hc.hyperchain(5, 3))
        v = hc.verdict(A, hc.ControlMatrix(()))
        assert not v.full and v.rank == 0
