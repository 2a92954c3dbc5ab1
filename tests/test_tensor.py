"""Tensor storage, contraction, and dynamics integration."""
from __future__ import annotations

import itertools
import math
import warnings

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
        lhs = hc.drift(A, c * x)
        rhs = c ** (A.order - 1) * hc.drift(A, x)
        scale = max(1.0, np.abs(rhs).max())
        assert lhs == pytest.approx(rhs, abs=1e-12 * scale)


class TestDrift:
    def test_triangle_polynomials(self):
        # one 3-edge: coordinate fields are the opposite-pair products
        A = single_edge_tensor(3, (1, 2, 3))
        x = np.array([2.0, 3.0, 5.0])
        assert hc.drift(A, x) == pytest.approx([15.0, 10.0, 6.0])

    def test_all_ones_fixed_point_shape(self):
        A = single_edge_tensor(3, (1, 2, 3))
        assert hc.drift(A, np.ones(3)) == pytest.approx([1.0, 1.0, 1.0])

    def test_zero_state(self):
        A = single_edge_tensor(3, (1, 2, 3))
        assert np.array_equal(hc.drift(A, np.zeros(3)), np.zeros(3))


class TestSimulate:
    def test_symmetric_blowup_closed_form(self):
        # x' = x^2 per coordinate from the symmetric start: x(t) = 1/(1-t)
        A = single_edge_tensor(3, (1, 2, 3))
        traj = hc.simulate(
            A, hc.ControlMatrix(()), np.ones(3), T=0.5, dt=1e-4
        )
        assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)
        assert traj.states[-1] == pytest.approx([2.0, 2.0, 2.0], abs=1e-6)

    def test_zero_state_is_equilibrium(self):
        A = single_edge_tensor(3, (1, 2, 3))
        traj = hc.simulate(A, hc.ControlMatrix(()), np.zeros(3), T=1.0, dt=0.01)
        assert np.all(traj.states == 0.0)

    def test_T_zero_single_sample(self):
        A = single_edge_tensor(3, (1, 2, 3))
        traj = hc.simulate(A, hc.ControlMatrix(()), np.ones(3), T=0.0, dt=0.1)
        assert len(traj.times) == 1
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.states[0], np.ones(3))

    def test_rk4_convergence_order(self):
        A = single_edge_tensor(3, (1, 2, 3))
        exact = 2.0

        def err(dt):
            traj = hc.simulate(A, hc.ControlMatrix(()), np.ones(3), T=0.5, dt=dt)
            return abs(traj.states[-1][0] - exact)

        ratio = err(0.02) / err(0.01)
        assert 8.0 <= ratio <= 32.0

    def test_blowup_carries_last_finite_sample(self):
        A = single_edge_tensor(3, (1, 2, 3))
        with pytest.raises(hc.BlowupError) as info:
            hc.simulate(A, hc.ControlMatrix(()), np.ones(3), T=2.0, dt=1e-3)
        assert 0.9 < info.value.last_time < 1.1
        assert np.isfinite(info.value.last_state).all()

    def test_blowup_raises_without_numpy_warnings(self):
        A = single_edge_tensor(3, (1, 2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hc.BlowupError):
                hc.simulate(A, hc.ControlMatrix(()), np.ones(3), T=2.0, dt=1e-3)

    @pytest.mark.parametrize(
        "T, dt, name",
        [(math.inf, 0.1, "T"), (math.nan, 0.1, "T"), (1.0, math.nan, "dt")],
    )
    def test_non_finite_horizon_or_step_rejected(self, T, dt, name):
        A = single_edge_tensor(3, (1, 2, 3))
        # from the zero equilibrium an unbounded horizon would never blow up
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            hc.simulate(A, hc.ControlMatrix(()), np.zeros(3), T=T, dt=dt)

    def test_constant_input_linear_growth(self):
        # no edges: dx/dt = B u exactly
        A = hc.AdjacencyTensor(order=2, dim=2, entries={})
        sched = hc.InputSchedule.constant([0.5])
        traj = hc.simulate(
            A, hc.ControlMatrix((2,)), np.zeros(2), schedule=sched, T=1.0, dt=0.01
        )
        assert traj.states[-1] == pytest.approx([0.0, 0.5], abs=1e-12)

    def test_piecewise_schedule_switches(self):
        A = hc.AdjacencyTensor(order=2, dim=1, entries={})
        sched = hc.InputSchedule((0.0, 0.5), np.array([[1.0], [-1.0]]))
        assert sched.value_at(0.49)[0] == 1.0
        assert sched.value_at(0.5)[0] == -1.0
        traj = hc.simulate(
            A, hc.ControlMatrix((1,)), np.zeros(1), schedule=sched, T=1.0, dt=0.01
        )
        # one RK4 stage straddles the switch, leaving an O(dt) residue
        assert traj.states[-1][0] == pytest.approx(0.0, abs=0.01)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="t=0"):
            hc.InputSchedule((0.5,), np.array([[1.0]]))
        with pytest.raises(ValueError, match="increasing"):
            hc.InputSchedule((0.0, 0.0), np.array([[1.0], [2.0]]))

    def test_channel_mismatch(self):
        A = hc.AdjacencyTensor(order=2, dim=2, entries={})
        sched = hc.InputSchedule.constant([1.0, 2.0])
        with pytest.raises(ValueError, match="channels"):
            hc.simulate(A, hc.ControlMatrix((1,)), np.zeros(2), schedule=sched, T=0.1)


class TestControlMatrix:
    def test_matrix_columns(self):
        B = hc.ControlMatrix((3, 1))
        expect = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(B.matrix(3), expect)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            hc.ControlMatrix((1, 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="exceed"):
            hc.ControlMatrix((4,)).matrix(3)
