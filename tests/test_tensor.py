"""Tensor storage and contraction."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperctrl as hc
from hyperctrl import tensor as tensor_mod
from hyperctrl.tensor import _apply_multisets

from helpers import (
    dense_tensor,
    dense_ttv,
    entry,
    random_hypergraph,
    random_mixed_hypergraph,
    seeded_floats,
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

    def test_dense_guard(self):
        A = hc.AdjacencyTensor(order=6, dim=12, entries={})
        with pytest.raises(ValueError, match="guard"):
            dense_tensor(A)


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

    def test_chunked_contraction_is_bit_identical(self, monkeypatch):
        g = hc.Hypergraph(5, ((1, 2), (2, 3, 4), (1, 3, 4, 5)))
        A = hc.adjacency_auto(g)
        basis = np.column_stack([seeded_floats(i, 5) for i in range(4)])
        ms = np.array(
            list(itertools.combinations_with_replacement(range(4), A.order - 1)),
            dtype=np.intp,
        ).T
        whole = _apply_multisets(A, basis, ms)
        # a few columns per chunk, with a ragged last chunk
        rows = A.kernel().coefs.size
        monkeypatch.setattr(tensor_mod, "_CHUNK_ENTRIES", 3 * rows)
        assert ms.shape[1] % 3 != 0
        chunked = _apply_multisets(A, basis, ms)
        assert np.array_equal(chunked, whole)
        # a cap below one kernel's rows still makes progress, one column at a time
        monkeypatch.setattr(tensor_mod, "_CHUNK_ENTRIES", 1)
        assert np.array_equal(_apply_multisets(A, basis, ms), whole)

    def test_cols_variant_matches_vector_calls(self):
        g = random_hypergraph(3, 5, 3, density=0.6)
        A = hc.adjacency_auto(g)
        basis = np.column_stack([seeded_floats(i, 5) for i in range(4)])
        ms = np.array([[0, 1, 2, 3, 1], [1, 1, 3, 0, 2]], dtype=np.intp)
        batch = _apply_multisets(A, basis, ms)
        for c in range(ms.shape[1]):
            args = [basis[:, ms[0, c]], basis[:, ms[1, c]]]
            assert batch[:, c] == pytest.approx(ttv_multi(A, args), abs=1e-14)

    def test_kernel_scale_is_the_norm_of_the_row_sums_of_abs_coefs(self):
        # the rounding floor of the closure rests on this bound
        weighted = random_mixed_hypergraph(4, 6, 4)
        weighted = hc.Hypergraph(
            6, weighted.edges, weights=tuple(seeded_floats(4, len(weighted.edges), 0.1, 5.0))
        )
        for g in (random_hypergraph(2, 6, 3, density=0.5), hc.hyperstar(6, 2), weighted):
            A = hc.adjacency_auto(g)
            dense = np.abs(dense_tensor(A)).reshape(A.dim, -1)
            assert A.kernel().scale == pytest.approx(
                np.linalg.norm(dense.sum(axis=1)), rel=1e-13
            )
        # signed entries: the sums are of |coef|, so terms never cancel
        signed = hc.AdjacencyTensor(
            order=3, dim=3, entries={(1, 1, 2): 1.0, (1, 2, 2): -1.0, (2, 2, 3): -2.0}
        )
        dense = np.abs(dense_tensor(signed)).reshape(3, -1)
        assert signed.kernel().scale == pytest.approx(np.linalg.norm(dense.sum(axis=1)), rel=1e-13)
        assert hc.AdjacencyTensor(order=3, dim=4, entries={}).kernel().scale == 0.0

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_kernel_scale_stays_in_range(self, c):
        # the squares of the row sums leave the double range at these weights
        g = hc.hyperchain(12, 3)
        unit = hc.adjacency_auto(g).kernel().scale
        A = hc.adjacency_auto(hc.Hypergraph(12, g.edges, weights=(c,) * len(g.edges)))
        assert A.kernel().scale == pytest.approx(c * unit, rel=1e-13)


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
