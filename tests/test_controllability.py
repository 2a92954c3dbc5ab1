"""Subspace iteration, rank verdicts, and the singular-vector lemma check."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

import hyperctrl as hc
from hyperctrl.controllability import closure_basis

from helpers import (
    dense_subspace_rank,
    dense_tensor,
    dense_ttv,
    kalman_rank,
    lemma1_check,
    random_hypergraph,
    seeded_floats,
    seeded_ints,
)


def rank_of(graph, nodes, **kw):
    A = hc.adjacency_auto(graph)
    return hc.reduced_controllability(A, hc.ControlMatrix(tuple(nodes)), **kw).rank


class TestReducedControllability:
    def test_single_edge_three_controls_full(self):
        A = hc.adjacency_auto(hc.complete(4, 4))
        res = hc.reduced_controllability(A, hc.ControlMatrix((1, 2, 3)))
        assert res.rank == 4
        assert res.iterations == 1

    def test_single_edge_two_controls_stuck(self):
        # every expansion multiset repeats a unit column, so nothing is added
        A = hc.adjacency_auto(hc.complete(4, 4))
        res = hc.reduced_controllability(A, hc.ControlMatrix((1, 2)))
        assert res.rank == 2

    def test_empty_control_set(self):
        A = hc.adjacency_auto(hc.hyperchain(5, 3))
        res = hc.reduced_controllability(A, hc.ControlMatrix(()))
        assert res.rank == 0
        assert res.basis.shape == (5, 0)

    def test_classical_chain_graph_from_end_node(self):
        g = hc.hyperchain(4, 2)
        A = hc.adjacency_auto(g)
        res = hc.reduced_controllability(A, hc.ControlMatrix((1,)))
        assert res.rank == 4
        assert kalman_rank(dense_tensor(A), (1,)) == 4

    def test_classical_agreement_random_graphs(self):
        for seed in range(15):
            g = random_hypergraph(seed, 5, 2, density=0.5)
            A = hc.adjacency_auto(g) if g.edges else hc.AdjacencyTensor(2, 5, {})
            dense = dense_tensor(A)
            nodes = tuple(sorted(set(j + 1 for j in seeded_ints(seed, 2, 5))))
            got = hc.reduced_controllability(A, hc.ControlMatrix(nodes)).rank
            assert got == kalman_rank(dense, nodes)

    def test_basis_is_orthonormal_and_contains_controls(self):
        A = hc.adjacency_auto(hc.hyperstar(7, 4))
        B = hc.ControlMatrix((1, 2, 5))
        res = hc.reduced_controllability(A, B)
        gram = res.basis.T @ res.basis
        assert gram == pytest.approx(np.eye(res.rank), abs=1e-10)
        # every control column reconstructs from the basis
        mat = B.matrix(7)
        recon = res.basis @ (res.basis.T @ mat)
        assert recon == pytest.approx(mat, abs=1e-10)

    def test_rank_equals_basis_columns(self):
        A = hc.adjacency_auto(hc.hyperring(6, 3))
        res = hc.reduced_controllability(A, hc.ControlMatrix((1, 2)))
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
            got = hc.reduced_controllability(A, hc.ControlMatrix(nodes)).rank
            assert got == dense_subspace_rank(A, nodes)
            cases += 1
        assert cases >= 20

    def test_fixed_point_is_stable_one_more_round(self):
        # expanding the returned basis once more must not raise the rank
        for seed in (1, 5, 9):
            g = random_hypergraph(seed, 6, 3, density=0.4)
            if not g.edges:
                continue
            A = hc.adjacency_auto(g)
            res = hc.reduced_controllability(A, hc.ControlMatrix((1, 2)))
            extra = [
                hc.ttv_multi(A, [res.basis[:, i] for i in combo])
                for combo in itertools.combinations_with_replacement(
                    range(res.rank), 2
                )
            ]
            stacked = np.column_stack([res.basis] + extra) if extra else res.basis
            assert np.linalg.matrix_rank(stacked, tol=1e-9) == res.rank

    def test_idempotent_on_closed_basis(self):
        A = hc.adjacency_auto(hc.hyperchain(6, 3))
        first = hc.reduced_controllability(A, hc.ControlMatrix((1, 2)))
        again = hc.reduced_controllability(A, first.basis)
        assert again.rank == first.rank

    def test_scale_invariance_of_rank(self):
        for seed in range(10):
            g = random_hypergraph(seed, 6, 3, density=0.4)
            if not g.edges:
                continue
            A = hc.adjacency_auto(g)
            nodes = (1, 3, 5)
            plain = hc.ControlMatrix(nodes).matrix(6)
            scales = seeded_floats(seed, 3, lo=0.2, hi=3.0)
            assert (
                hc.reduced_controllability(A, plain * scales).rank
                == hc.reduced_controllability(A, plain).rank
            )

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
        cold = hc.reduced_controllability(A, hc.ControlMatrix((1, 2, 3)))
        partial = hc.reduced_controllability(A, hc.ControlMatrix((1, 2)))
        e3 = np.zeros((8, 1))
        e3[2, 0] = 1.0
        warm = closure_basis(A, np.hstack([partial.basis, e3]))
        assert warm.rank == cold.rank

    def test_user_tolerance_is_absolute_cutoff(self):
        A = hc.adjacency_auto(hc.complete(4, 4))
        res = hc.reduced_controllability(A, hc.ControlMatrix((1, 2, 3)), tol=1e-12)
        assert res.tolerance == 1e-12
        assert res.rank == 4
        # an absurdly large cutoff suppresses every direction
        res = hc.reduced_controllability(A, hc.ControlMatrix((1, 2, 3)), tol=10.0)
        assert res.rank == 0


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


class TestLemma1:
    def test_orthonormal_input_trivially_true(self):
        A = hc.adjacency_auto(hc.hyperchain(5, 3))
        X = np.eye(5)[:, :3]
        assert lemma1_check(A, X)

    def test_zero_matrix(self):
        A = hc.adjacency_auto(hc.hyperchain(5, 3))
        assert lemma1_check(A, np.zeros((5, 3)))

    def test_rank_deficient_random(self):
        # low-rank X: singular-vector replacement must preserve the span
        left = np.array([seeded_floats(3, 5), seeded_floats(4, 5)]).T
        right = np.array([seeded_floats(5, 4), seeded_floats(6, 4)])
        X = left @ right
        g = random_hypergraph(11, 5, 3, density=0.6)
        A = hc.adjacency_auto(g)
        assert lemma1_check(A, X)
        # independent confirmation through the dense full-tuple products
        dense_p = np.column_stack(
            [
                dense_ttv(A, [X[:, i], X[:, j]])
                for i, j in itertools.product(range(4), repeat=2)
            ]
        )
        u, s, _ = np.linalg.svd(X, full_matrices=False)
        U = u[:, s > 1e-10]
        dense_q = np.column_stack(
            [
                dense_ttv(A, [U[:, i], U[:, j]])
                for i, j in itertools.product(range(U.shape[1]), repeat=2)
            ]
        )
        rp = np.linalg.matrix_rank(dense_p, tol=1e-9)
        rq = np.linalg.matrix_rank(dense_q, tol=1e-9)
        rboth = np.linalg.matrix_rank(np.hstack([dense_p, dense_q]), tol=1e-9)
        assert rp == rq == rboth
