"""Tensor storage and contraction."""
from __future__ import annotations

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperctrl as hc
from hyperctrl.controllability import closure_basis
from hyperctrl.tensor import _apply_polar, _build_kernel

from helpers import (
    REFERENCE_GRID,
    contract_mod_p,
    dense_tensor,
    dense_ttv,
    entry,
    exact_closure_rank,
    kernel_reference,
    random_hypergraph,
    random_mixed_hypergraph,
    seeded_floats,
    seeded_ints,
    ttv_multi,
)


def e(n, j):
    v = np.zeros(n)
    v[j - 1] = 1.0
    return v


def single_edge_tensor(n, edge):
    return hc.adjacency_auto(hc.Hypergraph(n, (tuple(edge),)))


class TestAdjacencyTensor:
    def test_entry_lookup_is_permutation_invariant(self):
        A = single_edge_tensor(3, (1, 2, 3))
        vals = {entry(A, p) for p in itertools.permutations((1, 2, 3))}
        assert vals == {0.5}
        assert entry(A, (1, 1, 2)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            hc.AdjacencyTensor(order=1, dim=3, entries={})
        with pytest.raises(ValueError):
            hc.AdjacencyTensor(order=2, dim=0, entries={})
        with pytest.raises(ValueError):
            hc.AdjacencyTensor(order=2, dim=3, entries={(2, 1): 1.0})
        with pytest.raises(ValueError):
            hc.AdjacencyTensor(order=2, dim=3, entries={(1, 4): 1.0})
        with pytest.raises(ValueError):
            hc.AdjacencyTensor(order=2, dim=3, entries={(1, 2): float("nan")})
        with pytest.raises(ValueError, match="has length 2, expected 3"):
            hc.AdjacencyTensor(order=3, dim=4, entries={(1, 2): 1.0})

    def test_dense_guard(self):
        A = hc.AdjacencyTensor(order=6, dim=12, entries={})
        with pytest.raises(ValueError, match="guard"):
            dense_tensor(A)


def incidence_oracle(tensor):
    """Per node, (pattern less one copy of the node, coefficient, number of
    distinct orders of that rest) for each stored pattern holding it."""
    rows = [[] for _ in range(tensor.dim)]
    for pattern, coef in tensor.entries.items():
        for j in sorted(set(pattern)):
            rest = list(pattern)
            rest.remove(j)
            rows[j - 1].append((tuple(rest), coef, len(set(itertools.permutations(rest)))))
    return rows


class TestIncidence:
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_matches_the_oracle(self, seed):
        graphs = [random_hypergraph(seed, 8, k, density=0.3) for k in (2, 3, 4)]
        g = random_mixed_hypergraph(seed, 7, 4)
        weights = tuple(seeded_floats(seed, len(g.edges), lo=0.5, hi=4.0))
        graphs.append(hc.Hypergraph(g.n, g.edges, weights=weights))
        for g in graphs:
            A = hc.adjacency_auto(g)
            assert [list(row) for row in A.incidence()] == incidence_oracle(A), g

    def test_is_built_once_and_covers_isolated_nodes(self):
        A = hc.AdjacencyTensor(order=3, dim=4, entries={(1, 1, 2): 0.5})
        assert A.incidence() is A.incidence()
        assert [list(row) for row in A.incidence()] == [
            [((1, 2), 0.5, 2)], [((1, 1), 0.5, 1)], [], []
        ]


class TestTtv:
    def test_single_edge_basis_vectors(self):
        # only the entry selected by the fixed index assignment survives
        A = single_edge_tensor(3, (1, 2, 3))
        got = ttv_multi(A, [e(3, 2), e(3, 3)])
        assert got == pytest.approx([0.5, 0.0, 0.0], abs=1e-15)
        assert dense_ttv(A, [e(3, 2), e(3, 3)]) == pytest.approx(got, abs=1e-14)

    def test_scaled_basis_vectors_order4(self):
        A = single_edge_tensor(4, (1, 2, 3, 4))
        b1, b2, b3 = 2.0, -3.0, 0.5
        got = ttv_multi(A, [b1 * e(4, 1), b2 * e(4, 2), b3 * e(4, 3)])
        want = np.zeros(4)
        want[3] = b1 * b2 * b3 / 6.0
        assert got == pytest.approx(want, abs=1e-15)

    def test_zero_vector_gives_zero(self):
        A = single_edge_tensor(4, (1, 2, 3, 4))
        got = ttv_multi(A, [np.ones(4), np.zeros(4), np.ones(4)])
        assert np.array_equal(got, np.zeros(4))

    def test_matches_dense_oracle_on_random_instances(self):
        for seed in range(40):
            n = 3 + seed % 3
            k = 2 + seed % 3
            g = random_hypergraph(seed, n, k, density=0.5)
            if not g.edges:
                continue
            A = hc.adjacency_auto(g)
            vs = [seeded_floats(seed * 7 + i, n) for i in range(k - 1)]
            assert ttv_multi(A, vs) == pytest.approx(
                dense_ttv(A, vs), abs=1e-13
            )

    def test_mixed_cardinality_matches_dense_oracle(self):
        g = hc.Hypergraph(5, ((1, 2), (2, 3, 4), (1, 3, 4, 5)))
        A = hc.adjacency_auto(g)
        for seed in range(10):
            vs = [seeded_floats(seed + 100 * i, 5) for i in range(A.order - 1)]
            assert ttv_multi(A, vs) == pytest.approx(
                dense_ttv(A, vs), abs=1e-13
            )


def seeded_residues(seed, n, p):
    return np.array(seeded_ints(seed, n, p), dtype=np.int64)


def step_down_tensors():
    """The weights of ``test_numerator_divisible_by_the_prime_takes_the_next_prime``."""
    edges = ((1, 2, 3), (3, 4, 5))
    return [
        hc.adjacency_auto(hc.Hypergraph(5, edges, weights=(1.0, weight)))
        for weight in (1048573.0, 1048573.0 * 1048571)
    ]


class TestPolarKernel:
    """The kernel's residues and its contraction T(x, ..., x) mod p."""

    def assert_matches_exact(self, A, seed):
        p = A.kernel().prime
        xs = np.column_stack([seeded_residues(seed + c, A.dim, p) for c in range(2)])
        got = _apply_polar(A, xs)
        for c in range(2):
            want = contract_mod_p(A, [xs[:, c]] * (A.order - 1), p)
            assert got[:, c].tolist() == want

    # k - 1 slots, odd and even, so both ends of the paired reduction run
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_matches_exact_contraction(self, k):
        for seed in range(6):
            g = random_hypergraph(seed, k + 2, k, density=0.5)
            if not g.edges:
                continue
            weights = tuple(seeded_floats(seed, len(g.edges), lo=0.1, hi=3.0))
            for graph in (g, hc.Hypergraph(g.n, g.edges, weights=weights)):
                self.assert_matches_exact(hc.adjacency_auto(graph), 100 * seed)

    def test_mixed_cardinality_matches_exact_contraction(self):
        # at k = 5 and 6 the smaller edges fill patterns whose rest repeats a
        # node, so a row's arrangement count lies strictly between 1 and (k-1)!
        for max_card in (4, 5, 6):
            for seed in range(4):
                g = random_mixed_hypergraph(seed, 6, max_card)
                weights = tuple(seeded_floats(seed, len(g.edges), lo=0.1, hi=3.0))
                for graph in (g, hc.Hypergraph(g.n, g.edges, weights=weights)):
                    A = hc.adjacency_auto(graph)
                    assert A.order > 2
                    self.assert_matches_exact(A, 100 * seed)

    def test_one_row_per_pattern_and_node(self):
        # one row stands for every order of its pattern's rest: a single
        # 8-node edge has 8 rows, not 8 * 7! = 40320
        tensors = [
            hc.adjacency_auto(random_mixed_hypergraph(seed, 7, max_card))
            for max_card in (4, 5, 6)
            for seed in range(3)
        ]
        tensors.append(single_edge_tensor(8, range(1, 9)))
        for A in tensors:
            assert A.kernel().coefs.size == sum(len(set(p)) for p in A.entries)

    def test_empty_tensor_contracts_to_zero(self):
        A = hc.AdjacencyTensor(order=3, dim=4, entries={})
        x = np.ones((4, 2), dtype=np.int64)
        assert not _apply_polar(A, x).any()

    def test_numerator_divisible_by_the_prime_takes_the_next_prime(self):
        # the light edge of a weight-skew case, with coefficient 1048573 / 2:
        # mod 1048573 it would vanish and the rank drop to 4. A weight of
        # 1048573 * 1048571 (exact as a double) rules out the next prime too,
        # and the step passes the composites 1048569 ... 1048561.
        plain = hc.adjacency_auto(hc.Hypergraph(5, ((1, 2, 3), (3, 4, 5))))
        assert plain.kernel().prime == 1048573
        for A, prime in zip(step_down_tensors(), (1048571, 1048559)):
            assert A.kernel().prime == prime
            assert closure_basis(A, (1, 2, 4)).rank == exact_closure_rank(A, (1, 2, 4)) == 5

    def test_zero_coefficient_is_an_exact_zero(self):
        g = random_hypergraph(3, 7, 3, density=0.3)
        A = hc.adjacency_auto(g)
        absent = next(
            p for p in itertools.combinations_with_replacement(range(1, 8), 3)
            if p not in A.entries
        )
        with_zero = hc.AdjacencyTensor(3, 7, {**A.entries, absent: 0.0})
        assert with_zero.kernel().coefs.size > A.kernel().coefs.size
        for nodes in ((1,), (2,), (1, 5), (3, 6)):
            assert closure_basis(with_zero, nodes).rank == closure_basis(A, nodes).rank

    def test_closure_repeats(self):
        A = hc.adjacency_auto(hc.random_uniform(12, 3, 0.1, 4))
        first, again = closure_basis(A, (1, 2)), closure_basis(A, (1, 2))
        assert np.array_equal(first.basis, again.basis)
        assert first.iterations == again.iterations > 0


class TestKernelBuild:
    """The array build gives the loop oracle's arrays, dtypes included."""

    def assert_matches_loop(self, A):
        got, want = _build_kernel(A), kernel_reference(A)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                assert np.array_equal(a, b), field.name
            else:
                assert (type(a), a) == (type(b), b), field.name

    def test_reference_grid(self):
        for graph in REFERENCE_GRID.values():
            self.assert_matches_loop(hc.adjacency_auto(graph))

    @pytest.mark.parametrize("max_card", [2, 3, 4, 5, 6])
    def test_mixed_cardinality(self, max_card):
        for seed in range(6):
            g = random_mixed_hypergraph(seed, 7, max_card)
            weights = tuple(seeded_floats(seed, len(g.edges), lo=0.1, hi=3.0))
            for graph in (g, hc.Hypergraph(g.n, g.edges, weights=weights)):
                self.assert_matches_loop(hc.adjacency_auto(graph))

    @pytest.mark.parametrize("order", [2, 3])
    def test_empty_tensor(self, order):
        self.assert_matches_loop(hc.AdjacencyTensor(order=order, dim=4, entries={}))

    def test_single_twelve_node_edge(self):
        self.assert_matches_loop(single_edge_tensor(12, range(1, 13)))

    def test_prime_step_down(self):
        for A in step_down_tensors():
            self.assert_matches_loop(A)

    def test_zero_coefficient(self):
        A = hc.adjacency_auto(random_hypergraph(3, 7, 3, density=0.3))
        self.assert_matches_loop(hc.AdjacencyTensor(3, 7, {**A.entries, (1, 1, 7): 0.0}))

    @pytest.mark.parametrize(
        "graph",
        [hc.random_uniform(30, 4, 0.05, 1), hc.Hypergraph(12, (tuple(range(1, 13)),))],
        ids=["random-30-4", "edge-12"],
    )
    def test_peak_memory_no_higher_than_the_loop(self, graph):
        A = hc.adjacency_auto(graph)

        def peak(build):
            build(A)  # once untraced, so no first-call cache counts
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                build(A)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(_build_kernel) <= peak(kernel_reference)


@st.composite
def tensor_and_vectors(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 5))
    seed = draw(st.integers(0, 10_000))
    g = random_hypergraph(seed, n, k, density=0.6)
    vecs = draw(
        st.lists(
            st.lists(
                st.floats(-2, 2, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            ),
            min_size=k + 1,
            max_size=k + 1,
        )
    )
    return hc.adjacency_auto(g), [np.array(v) for v in vecs]


class TestAlgebraicProperties:
    @settings(max_examples=60, deadline=None)
    @given(tensor_and_vectors())
    def test_multilinearity(self, case):
        A, vecs = case
        k = A.order
        v, w, *rest = vecs
        fixed = rest[: k - 2]
        a, b = 0.75, -1.25
        lhs = ttv_multi(A, [a * v + b * w] + fixed)
        rhs = a * ttv_multi(A, [v] + fixed) + b * ttv_multi(A, [w] + fixed)
        scale = max(1.0, np.abs(rhs).max())
        assert lhs == pytest.approx(rhs, abs=1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(tensor_and_vectors(), st.randoms(use_true_random=False))
    def test_argument_order_invariance(self, case, rnd):
        A, vecs = case
        args = vecs[: A.order - 1]
        shuffled = list(args)
        rnd.shuffle(shuffled)
        assert ttv_multi(A, shuffled) == pytest.approx(
            ttv_multi(A, args), abs=1e-14
        )

    @settings(max_examples=60, deadline=None)
    @given(tensor_and_vectors(), st.floats(-1.5, 1.5, allow_nan=False))
    def test_drift_homogeneity(self, case, c):
        A, vecs = case
        x = vecs[0]
        k = A.order
        lhs = ttv_multi(A, [c * x] * (k - 1))
        rhs = c ** (k - 1) * ttv_multi(A, [x] * (k - 1))
        scale = max(1.0, np.abs(rhs).max())
        assert lhs == pytest.approx(rhs, abs=1e-12 * scale)


class TestDrift:
    # the drift A x^(k-1) is the tensor contracted with k - 1 copies of x
    def test_triangle_polynomials(self):
        # one 3-edge: coordinate fields are the opposite-pair products
        A = single_edge_tensor(3, (1, 2, 3))
        x = np.array([2.0, 3.0, 5.0])
        assert ttv_multi(A, [x] * 2) == pytest.approx([15.0, 10.0, 6.0])

    def test_all_ones_fixed_point_shape(self):
        A = single_edge_tensor(3, (1, 2, 3))
        assert ttv_multi(A, [np.ones(3)] * 2) == pytest.approx([1.0, 1.0, 1.0])

    def test_zero_state(self):
        A = single_edge_tensor(3, (1, 2, 3))
        assert np.array_equal(ttv_multi(A, [np.zeros(3)] * 2), np.zeros(3))


class TestControlMatrix:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            hc.ControlMatrix((1, 1))

    def test_out_of_range(self):
        # node 0 must not wrap around to row n
        A = single_edge_tensor(3, (1, 2, 3))
        for node in (0, 4):
            with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
                hc.closure_basis(A, (1, node))
            with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
                hc.verdict(A, hc.ControlMatrix((1, node)))
