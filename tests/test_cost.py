import functools
import importlib.util
import itertools
import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulidiag.cost as cost_mod
from paulidiag import operators, optimize
from paulidiag.cost import CostReport, KParams, eval_F, eval_grad
from paulidiag.operators import (_ALGEBRA, _SPAN, _TABLES, PauliSum, build_support_sets,
                                 sum_multiply)
from paulidiag.optimize import IncrementalState, OptConfig, run_gd, run_rcd
from paulidiag.pauli import MAX_QUBITS, PHASES, PauliString, parse, string_masks, unpack_keys

from conftest import (dense_terms, fd_gradient, gf2_span, k_as_sum, key_strings,
                      random_instance, string_to_dense, workload_instance)


def dense(a):
    return dense_terms([(p.word, c) for p, c in a.items()], a.n)


def dense_F(h, ansatz, r, theta):
    """Independent dense computation of F: Frobenius masses of the off-diagonal
    part of K'HK and of the non-identity part of K'K."""
    n = h.n
    dim = 2**n
    K = dense_terms(
        [(p.word, rr * np.exp(1j * tt)) for p, rr, tt in zip(ansatz, r, theta)], n
    )
    A = K.conj().T @ dense(h) @ K
    off = A - np.diag(np.diag(A))
    f = dim * np.linalg.norm(off, "fro") ** 2
    G = K.conj().T @ K
    G0 = G - (np.trace(G) / dim) * np.eye(dim)
    pen = np.linalg.norm(G0, "fro") ** 2 / dim
    return float(f + pen)


class TestKParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            KParams((), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            KParams((parse("X"), parse("X")), np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            KParams((parse("X"), parse("XX")), np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            KParams((parse("X"),), np.ones(2), np.zeros(1))

    def test_immutability(self):
        kp = KParams((parse("X"),), np.ones(1), np.zeros(1))
        with pytest.raises(ValueError):
            kp.r[0] = 2.0

    def test_normalized(self):
        kp = KParams((parse("X"), parse("Z")), np.array([3.0, 4.0]), np.zeros(2))
        assert kp.normalized().r_norm == pytest.approx(1.0)
        assert kp.normalized().r[0] == pytest.approx(0.6)

    def test_k_as_sum(self):
        kp = KParams((parse("X"), parse("Z")), np.array([0.5, 0.5]), np.array([0.0, np.pi / 2]))
        k = k_as_sum(kp)
        assert k.coefficient(parse("X")) == pytest.approx(0.5)
        assert k.coefficient(parse("Z")) == pytest.approx(0.5j)


class TestValues:
    def test_eval_f_identity_k(self):
        # h = X, K = I: g1 = {X, Y} for ansatz (I, Z); f = tr(X X)^2 = 4
        h = PauliSum.from_words({"X": 1.0})
        ansatz = (parse("I"), parse("Z"))
        s = build_support_sets(h, ansatz)
        assert tuple(p.word for p in key_strings(1, s.g1)) == ("X", "Y")
        kp = KParams(ansatz, np.array([1.0, 0.0]), np.zeros(2))
        assert eval_F(h, kp, s).f_value == pytest.approx(4.0)

    def test_exact_diagonalizer_zero_cost(self):
        # K = (X+Z)/sqrt2 maps X to Z; unitary, so penalty vanishes too
        h = PauliSum.from_words({"X": 1.0})
        ansatz = (parse("X"), parse("Z"))
        s = build_support_sets(h, ansatz)
        kp = KParams(ansatz, np.array([1.0, 1.0]) / np.sqrt(2), np.zeros(2))
        rep = eval_F(h, kp, s)
        assert rep.total == pytest.approx(0.0, abs=1e-14)

    def test_phi_identity_and_pairs(self):
        # K'K = (a^2 + b^2) I + 2ab X: the penalty is phi_X^2, the identity's
        # coefficient left out
        h = PauliSum.from_words({"Z": 1.0})
        ansatz = (parse("I"), parse("X"))
        s = build_support_sets(h, ansatz)
        a, b = 0.6, 0.8
        kp = KParams(ansatz, np.array([a, b]), np.zeros(2))
        assert tuple(p.word for p in key_strings(1, s.g2)) == ("X",)
        assert eval_F(h, kp, s).penalty == pytest.approx((2 * a * b) ** 2)

    def test_phi_matches_kk_coefficient(self, rng):
        # g2 holds every non-identity string of K'K, and the penalty is the
        # sum of their squared (real) coefficients
        h, kp, s = random_instance(rng, 3, 6)
        k = k_as_sum(kp)
        kk = sum_multiply(k.adjoint(), k)
        g2 = key_strings(kp.n, s.g2)
        assert set(kk.strings()) - {PauliString.identity(kp.n)} <= set(g2)
        phi = np.array([kk.coefficient(p) for p in g2])
        assert np.abs(phi.imag).max() < 1e-12  # K'K is Hermitian
        assert eval_F(h, kp, s).penalty == pytest.approx(np.sum(phi.real**2), rel=1e-12)

    def test_report_totals(self, rng):
        h, kp, s = random_instance(rng, 2, 4)
        rep = eval_F(h, kp, s)
        assert rep.total == pytest.approx(rep.f_value + rep.penalty)
        assert rep.f_value >= 0 and rep.penalty >= 0
        with pytest.raises(ValueError):
            rep.grad_norm

    def test_dense_oracle(self, rng):
        for n in (1, 2, 3):
            for _ in range(4):
                h, kp, s = random_instance(rng, n, min(4, 4**n), m=min(5, 4**n))
                got = eval_F(h, kp, s).total
                want = dense_F(h, kp.ansatz, kp.r, kp.theta)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_validation(self, rng):
        h, kp, s = random_instance(rng, 2, 3)
        other_h = PauliSum.from_words({"XX": 1.0})
        with pytest.raises(ValueError, match="Hamiltonian differs"):
            eval_F(other_h, kp, s)
        other_kp = KParams((parse("II"),), np.ones(1), np.zeros(1))
        with pytest.raises(ValueError, match="ansatz differs"):
            eval_F(h, other_kp, s)


class TestGradients:
    def test_matches_finite_differences(self, rng):
        for n, d in ((2, 3), (3, 6), (3, 10)):
            h, kp, s = random_instance(rng, n, d)

            def F(r, theta):
                return eval_F(h, kp.with_params(r, theta), s).total

            rep = eval_grad(h, kp, s)
            gr_fd, gt_fd = fd_gradient(F, kp.r, kp.theta)
            scale = max(1.0, np.max(np.abs(gr_fd)), np.max(np.abs(gt_fd)))
            assert np.max(np.abs(rep.grad_r - gr_fd)) / scale < 1e-7
            assert np.max(np.abs(rep.grad_theta - gt_fd)) / scale < 1e-7

    def test_euler_identity(self, rng):
        # degree-4 homogeneity in r forces sum_j r_j dF/dr_j = 4F
        for _ in range(5):
            h, kp, s = random_instance(rng, 3, 5)
            rep = eval_grad(h, kp, s)
            assert np.dot(kp.r, rep.grad_r) == pytest.approx(4 * rep.total, rel=1e-11)

    def test_self_similarity(self, rng):
        h, kp, s = random_instance(rng, 3, 5)
        base = eval_F(h, kp, s).total
        for scale in (-1.0, 0.5, 2.0):
            scaled = eval_F(h, kp.with_params(scale * kp.r, kp.theta), s).total
            assert scaled == pytest.approx(scale**4 * base, rel=1e-10)

    def test_theta_periodicity(self, rng):
        h, kp, s = random_instance(rng, 2, 4)
        shifted = kp.with_params(kp.r, kp.theta + 2 * np.pi)
        assert eval_F(h, shifted, s).total == pytest.approx(eval_F(h, kp, s).total, rel=1e-12)

    def test_gradient_zero_at_diagonal_fixed_point(self):
        # h already diagonal, K = I: F = 0 exactly, gradient must vanish
        h = PauliSum.from_words({"ZZ": 1.0, "ZI": 0.3})
        ansatz = (parse("II"), parse("ZI"))
        s = build_support_sets(h, ansatz)
        kp = KParams(ansatz, np.array([1.0, 0.0]), np.zeros(2))
        rep = eval_grad(h, kp, s)
        assert rep.total == pytest.approx(0.0, abs=1e-14)
        assert rep.grad_norm == pytest.approx(0.0, abs=1e-12)

    def test_grad_norm_field(self, rng):
        h, kp, s = random_instance(rng, 2, 4)
        rep = eval_grad(h, kp, s)
        manual = np.sqrt(np.sum(rep.grad_r**2) + np.sum(rep.grad_theta**2))
        assert rep.grad_norm == pytest.approx(manual)


def full_span_instance(rng, n, d, m=None):
    """(h, kp, s) whose ansatz spans the whole Pauli group: X_q and Z_q on
    every qubit, then d - 2n further random strings."""
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
    gens = {"I" * q + a + "I" * (n - q - 1) for q in range(n) for a in "XZ"}
    rest = rng.permutation([w for w in words if w not in gens])[:d - 2 * n]
    ansatz = tuple(sorted(parse(w) for w in [*gens, *rest]))
    m = min(2 * n + 1, 4**n) if m is None else m
    hw = rng.choice(4**n, size=m, replace=False)
    h = PauliSum(n, [(parse(words[i]), c) for i, c in zip(hw, rng.uniform(-1, 1, m))])
    r = rng.uniform(0.2, 1.0, d)
    kp = KParams(ansatz, r / np.linalg.norm(r), rng.uniform(0.0, 2 * np.pi, d))
    s = build_support_sets(h, ansatz)
    assert s.span_pairs == n
    return h, kp, s


def assert_dense_matches_tables(s, kp):
    """The dense engine's F, penalty and partials within 1e-12 (relative)
    of the table path's."""
    f, penalty, gr, gt = cost_mod._evaluate_dense(s, kp.r, kp.theta, True)
    want_f, want_p, want_gr, want_gt = cost_mod._evaluate_sparse(s, kp.r, kp.theta, True)
    scale = max(1.0, want_f + want_p)
    assert f == pytest.approx(want_f, rel=1e-12, abs=1e-13 * scale)
    assert penalty == pytest.approx(want_p, rel=1e-12, abs=1e-13 * scale)
    gscale = max(1.0, np.abs(want_gr).max(), np.abs(want_gt).max())
    assert np.abs(gr - want_gr).max() < 1e-12 * gscale
    assert np.abs(gt - want_gt).max() < 1e-12 * gscale


@st.composite
def full_span_instances(draw):
    """(h, kp, s) on 5 or 6 qubits whose ansatz spans the whole group, d
    from 2^n to 4^n / 4, with 1 to 2n + 1 Hamiltonian terms."""
    n = draw(st.integers(5, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2**n, 4**n // 4))
    return full_span_instance(rng, n, d, m=draw(st.integers(1, 2 * n + 1)))


class TestDensePath:
    def test_matches_support_path(self, rng):
        # instances the rule sends to the dense engine agree with the tables
        # to roundoff
        for n, d in ((3, 64), (4, 40), (4, 128), (5, 128)):
            h, kp, s = random_instance(rng, n, d)
            assert cost_mod._path(s) is cost_mod._evaluate_dense
            assert_dense_matches_tables(s, kp)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(full_span_instances())
    def test_full_span_takes_the_dense_engine_where_the_models_allow(self, instance):
        h, kp, s = instance
        matrix, table = cost_mod._predicted_us(s)
        want = cost_mod._evaluate_dense if matrix <= table else cost_mod._evaluate_sparse
        assert cost_mod._path(s) is want
        assert_dense_matches_tables(s, kp)

    def test_grid_path_matches_string_sum_reference(self, rng):
        def string_sum_reference(h, ansatz, r, theta):
            # H and K summed from string_to_dense, F from its
            # definition and dF = 2 Re tr(dK' G) read string by string
            dim = 2**h.n
            hd = sum(c * string_to_dense(q) for q, c in h.items())
            strings = [string_to_dense(p) for p in ansatz]
            kc = r * np.exp(1j * theta)
            k = sum(c * m for c, m in zip(kc, strings))
            m_off = k.conj().T @ hd @ k
            m_off -= np.diag(np.diag(m_off))
            t_less = k.conj().T @ k
            t_less -= (np.trace(t_less) / dim) * np.eye(dim)
            f = dim * np.linalg.norm(m_off) ** 2
            penalty = np.linalg.norm(t_less) ** 2 / dim
            g = (2.0 * dim) * (hd @ k @ m_off) + (2.0 / dim) * (k @ t_less)
            gvec = np.array([np.trace(m @ g) for m in strings]) * np.exp(-1j * theta)
            return f, penalty, 2.0 * gvec.real, 2.0 * r * gvec.imag

        # the engine on every whole-group ansatz, whichever path the rule
        # takes there
        for n in (1, 2, 3, 4):
            for d in (2 * n, int(rng.integers(2 * n, 4**n + 1)), 4**n):
                h, kp, s = full_span_instance(rng, n, d)
                r, theta = kp.r, kp.theta
                f, penalty, gr, gt = cost_mod._evaluate_dense(s, r, theta, True)
                assert cost_mod._evaluate_dense(s, r, theta, False) == (f, penalty, None, None)
                want = string_sum_reference(h, kp.ansatz, r, theta)
                scale = max(1.0, want[0] + want[1])
                assert f == pytest.approx(want[0], rel=1e-12, abs=1e-13 * scale)
                assert penalty == pytest.approx(want[1], rel=1e-12, abs=1e-13 * scale)
                gscale = max(1.0, np.abs(want[2]).max(), np.abs(want[3]).max())
                assert np.abs(gr - want[2]).max() <= 1e-12 * gscale
                assert np.abs(gt - want[3]).max() <= 1e-12 * gscale


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_whole_group_maps_are_the_dense_rule(self, rng, n):
        # the whole group's maps are the closed-form dense rule, bit for bit:
        # slot z 2^n + x, phase i^|x & z|, the Sylvester-Hadamard matrix S,
        # and A[row, col] = D[col, row ^ col] for D = S C (its adjoint
        # E[c, x] = G[c, c ^ x]); H's matrix is that of its coefficient grid.
        # The span is read first (the path rule's inputs), the maps on their
        # own first read
        h, kp, s = full_span_instance(rng, n, int(rng.integers(2 * n, 4**n + 1)))
        assert set(vars(s)) & (_TABLES | _SPAN | _ALGEBRA) == _SPAN
        dim = 2**n
        hadamard = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n,
                                    np.ones((1, 1))).astype(complex)
        rows, cols = np.arange(dim)[:, None], np.arange(dim)[None, :]
        to_matrix = cols * dim + (rows ^ cols)

        def slots(strings):
            x, z = string_masks(strings)
            return z * dim + x, PHASES[np.bitwise_count(x & z) & 3]

        k_slot, k_phase = slots(s.ansatz)
        h_slot, h_phase = slots(s.h_strings)
        grid = np.zeros(dim * dim, dtype=complex)
        grid[h_slot] = h_phase * s.h_coeffs
        h_mat = (hadamard @ grid.reshape(dim, dim)).take(to_matrix)
        assert np.array_equal(s.alg_hadamard, hadamard)
        assert np.array_equal(s.alg_to_matrix, to_matrix[None])
        assert np.array_equal(s.alg_to_grid, rows * dim + (rows ^ cols))
        assert np.array_equal(s.alg_k_slot, k_slot)
        assert np.array_equal(s.alg_k_phase, k_phase)
        assert np.array_equal(s.alg_h, h_mat[None])
        assert set(vars(s)) & (_TABLES | _SPAN | _ALGEBRA) == _SPAN | _ALGEBRA

    def test_maps_are_built_once_per_support_sets(self, rng, monkeypatch):
        # the dense path reads s's alg_* fields, built on the first
        # evaluation and kept: one build serves every evaluation and run on
        # s, the sampled RCD run's steps included, and none builds the
        # product tables
        h, kp, s = random_instance(rng, 4, 40)
        assert cost_mod._path(s) is cost_mod._evaluate_dense
        calls = []
        build = operators._algebra_tables
        monkeypatch.setattr(operators, "_algebra_tables",
                            lambda *args: calls.append(args) or build(*args))
        eval_F(h, kp, s)
        for _ in range(3):
            eval_grad(h, kp, s)
        run_gd(h, kp, OptConfig(max_iters=3), s)
        run_rcd(h, kp, OptConfig(max_iters=3, block_size=2 * kp.d), s)
        run_rcd(h, kp, OptConfig(max_iters=3, block_size=4, seed=0), s)
        assert built_tables(s) == set()
        assert len(calls) == 1


# --- the algebra path ---------------------------------------------------------


def key_string(n, key):
    return PauliString(n, key >> MAX_QUBITS, key & ((1 << MAX_QUBITS) - 1))


@st.composite
def span_instances(draw, subgroup):
    """(h, kp, s): the ansatz spans the subgroup of 2-10 random generators
    (all of it, or a random subset), and H's terms lie in a few of its
    cosets, the identity coset included."""
    n = draw(st.integers(2, 24))
    full = (1 << n) - 1
    key = st.tuples(st.integers(0, full), st.integers(0, full)).map(
        lambda xz: (xz[0] << MAX_QUBITS) | xz[1])
    gens = draw(st.lists(key.filter(bool), min_size=2, max_size=10, unique=True))
    elements = sorted(gf2_span(gens))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if subgroup:
        chosen = elements
    else:
        size = draw(st.integers(1, len(elements)))
        chosen = sorted(rng.choice(elements, size=size, replace=False).tolist())
    shifts = [0] + draw(st.lists(key, min_size=1, max_size=3))
    terms = {key_string(n, int(rng.choice(shifts)) ^ int(rng.choice(elements))): c
             for c in rng.uniform(-1.0, 1.0, draw(st.integers(1, 6)))}
    h = PauliSum(n, terms.items())
    ansatz = tuple(key_string(n, k) for k in chosen)
    r = rng.uniform(0.2, 1.0, len(ansatz))
    kp = KParams(ansatz, r / np.linalg.norm(r), rng.uniform(0.0, 2 * np.pi, len(ansatz)))
    return h, kp, build_support_sets(h, ansatz)


def assert_paths_agree(s, kp):
    """The algebra path's F, penalty and gradients within 1e-12 (relative)
    of the table path's; values alone are the same numbers."""
    f, penalty, gr, gt = cost_mod._evaluate_algebra(s, kp.r, kp.theta, True)
    want_f, want_p, want_gr, want_gt = cost_mod._evaluate_sparse(s, kp.r, kp.theta, True)
    scale = want_f + want_p
    assert f == pytest.approx(want_f, rel=1e-12, abs=1e-12 * scale)
    assert penalty == pytest.approx(want_p, rel=1e-12, abs=1e-12 * scale)
    gscale = max(np.abs(want_gr).max(), np.abs(want_gt).max())
    assert np.abs(gr - want_gr).max() <= 1e-12 * gscale
    assert np.abs(gt - want_gt).max() <= 1e-12 * gscale
    assert cost_mod._evaluate_algebra(s, kp.r, kp.theta, False) == (f, penalty, None, None)


def built_tables(s) -> set[str]:
    return _TABLES & set(vars(s))


class TestAlgebraPath:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(span_instances(subgroup=True))
    def test_subgroup_ansatz_matches_table_path(self, instance):
        h, kp, s = instance
        assert_paths_agree(s, kp)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(span_instances(subgroup=False))
    def test_subset_of_a_subgroup_matches_table_path(self, instance):
        h, kp, s = instance
        assert_paths_agree(s, kp)

    @pytest.mark.parametrize("name", ["xxz4_dense", "udu10_rcd", "udu14_gd"])
    def test_workload_instances_match_table_path(self, name):
        h, kp = workload_instance(name)
        assert_paths_agree(build_support_sets(h, kp.ansatz), kp)

    def test_span_of_the_workloads(self):
        # udu14_gd: 128 strings spanning rank 7, three pairs and one central
        # element, so two 8 x 8 blocks; H's 309 terms lie in 20 cosets
        h, kp = workload_instance("udu14_gd")
        s = build_support_sets(h, kp.ansatz)
        assert (s.span_pairs, len(s.span_basis), len(s.coset_rep)) == (3, 7, 20)
        assert s.alg_h.shape == (2, 20 * 8, 8)
        # each representative commutes with every pair element
        pairs = s.span_basis[:6]
        rx, rz = unpack_keys(s.coset_rep)
        bx, bz = unpack_keys(pairs)
        assert not (np.bitwise_count((rx[:, None] & bz) ^ (rz[:, None] & bx)) & 1).any()

    @pytest.mark.parametrize("name, path, block", [
        ("udu14_gd", "_evaluate_algebra", None),
        ("udu10_rcd", "_evaluate_algebra", 4),
    ])
    def test_huge_coefficients_stop_without_warnings(self, name, path, block):
        # each path overflows to inf and NaN, and a run stops on it; numpy's
        # warnings stay silent, as on the dense path
        h, kp = workload_instance(name)
        h = h * 1e300
        s = build_support_sets(h, kp.ansatz)
        assert cost_mod._path(s) is getattr(cost_mod, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = eval_grad(h, kp, s)
            gd = run_gd(h, kp, OptConfig(max_iters=5), s)
            rcd = run_rcd(h, kp, OptConfig(max_iters=5, block_size=block or 2 * kp.d), s)
        assert not np.isfinite(report.total)
        for trace in (gd, rcd):
            assert trace.stop_reason == "non_finite" and len(trace.records) == 1
        assert caught == []


def assert_sampled_step_agrees(s, kp, evaluate, coords):
    """A sampled step by evaluate: F and penalty within 1e-12 (relative) of
    the table path's caches, the partials at coords within 1e-12 of the
    largest full partial, zeros elsewhere, and the norm of the kept ones."""
    f, penalty, gr, gt, norm = optimize._sampled_step(s, evaluate)(kp.r, kp.theta, coords)
    state = IncrementalState(s, kp.r, kp.theta)
    want_gr, want_gt, want_norm = state.sparse_grad(coords)
    scale = state.f_value + state.penalty
    assert f == pytest.approx(state.f_value, rel=1e-12, abs=1e-12 * scale)
    assert penalty == pytest.approx(state.penalty, rel=1e-12, abs=1e-12 * scale)
    _, _, full_gr, full_gt = cost_mod._evaluate_sparse(s, kp.r, kp.theta, True)
    gscale = max(np.abs(full_gr).max(), np.abs(full_gt).max())
    got, want = np.concatenate((gr, gt)), np.concatenate((want_gr, want_gt))
    assert np.abs(got - want).max() <= 1e-12 * gscale
    assert not np.delete(got, coords).any()
    assert norm == pytest.approx(want_norm, rel=1e-12, abs=1e-12 * gscale)


def sampled_coords(data, d):
    return np.array(data.draw(st.lists(st.integers(0, 2 * d - 1), min_size=1,
                                       max_size=2 * d, unique=True)))


class TestSampledSteps:
    """Sampled RCD on a matrix engine: one evaluation with the gradient at
    the loop's point, the sampled partials kept."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(span_instances(subgroup=True), st.data())
    def test_algebra_step_matches_table_caches(self, instance, data):
        h, kp, s = instance
        assert_sampled_step_agrees(s, kp, cost_mod._evaluate_algebra, sampled_coords(data, kp.d))

    def test_dense_step_matches_table_caches(self, rng):
        h, kp, s = random_instance(rng, 4, 40)
        assert cost_mod._path(s) is cost_mod._evaluate_dense
        for width in (1, 4, 2 * kp.d - 1):
            coords = rng.choice(2 * kp.d, size=width, replace=False)
            assert_sampled_step_agrees(s, kp, cost_mod._evaluate_dense, coords)

    def test_sampled_run_on_the_algebra_path_builds_no_table(self):
        h, kp = workload_instance("udu10_rcd")
        s = build_support_sets(h, kp.ansatz)
        assert cost_mod._path(s) is cost_mod._evaluate_algebra
        trace = run_rcd(h, kp, OptConfig(max_iters=3, block_size=4, seed=0), s)
        assert len(trace.records) == 4
        assert built_tables(s) == set()
        assert _ALGEBRA <= set(vars(s))


@pytest.fixture(scope="module")
def path_model():
    """tools/path_model.py as a module; the BLAS thread variables it sets on
    import are restored, so that CLI subprocesses do not inherit them."""
    spec = importlib.util.spec_from_file_location(
        "path_model", Path(__file__).resolve().parents[1] / "tools" / "path_model.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


class TestPathRule:
    # (matrix, table) predictions per call as constant models; the explicit
    # ids keep the names the cases had under the two-inequality rule
    @pytest.mark.parametrize("matrix, table, algebra", [
        pytest.param(1.0, 2.0, True, id="first0-steady0-True"),  # faster
        pytest.param(2.0, 2.0, True, id="first1-steady1-True"),  # a tie: no slower is enough
        pytest.param(3.0, 2.0, False, id="first3-steady3-False"),  # slower
        pytest.param(2.0 + 1e-9, 2.0, False, id="first4-steady4-False"),  # slower by a hair
    ])
    def test_rule_needs_both_evaluations_no_slower(self, monkeypatch, matrix, table, algebra):
        h, kp = workload_instance("udu10_rcd")
        s = build_support_sets(h, kp.ansatz)
        monkeypatch.setattr(cost_mod, "_ALGEBRA_US", (matrix, 0.0, 0.0))
        monkeypatch.setattr(cost_mod, "_TABLE_US", (table, 0.0))
        assert cost_mod._matrix_path_applies(s) is algebra

    @pytest.mark.parametrize("name, path", [
        ("xxz4_dense", "_evaluate_dense"),
        ("udu10_rcd", "_evaluate_algebra"),
        ("udu14_gd", "_evaluate_algebra"),
    ])
    def test_workload_paths(self, name, path):
        h, kp = workload_instance(name)
        s = build_support_sets(h, kp.ansatz)
        assert cost_mod._path(s) is getattr(cost_mod, path)
        assert built_tables(s) == set()

    def test_full_span_takes_the_table_path(self, path_model):
        # k = n, so the matrix side is the dense engine on 64 x 64 matrices;
        # the models keep the tables, measured faster on the tool's held-out
        # (6, 64) row (seed 35, BENCH_27_pathfit.json), and check 13's
        # instance (seed 99, tests/test_acceptance.py) runs on them
        for seed in (35, 99):
            h, kp = path_model.full_span_instance(6, 64, seed)
            s = build_support_sets(h, kp.ansatz)
            assert (s.span_pairs, len(s.span_basis)) == (6, 12)
            assert cost_mod._path(s) is cost_mod._evaluate_sparse
            assert built_tables(s) == set()

    def test_large_central_part_takes_the_table_path(self):
        # 32 X-type strings spanning all 16 x bits (k = 0, l = 16) and 200
        # X-type terms in the span (C = 1): the Hadamard matrix of 2^16 would
        # take 64 GiB, while one table evaluation takes about a millisecond
        n = 16
        rng = np.random.default_rng(5)
        x_masks = sorted({1 << q for q in range(n)} | set(rng.integers(1, 1 << n, 16).tolist()))
        h = PauliSum(n, [(PauliString(n, int(x), 0), c) for x, c in
                         zip(rng.choice(np.arange(1, 1 << n), 200, replace=False),
                             rng.uniform(-1, 1, 200))])
        s = build_support_sets(h, tuple(PauliString(n, x, 0) for x in x_masks[:32]))
        assert (s.span_pairs, len(s.span_basis), len(s.coset_rep)) == (0, 16, 1)
        assert cost_mod._path(s) is cost_mod._evaluate_sparse
        assert built_tables(s) == set() and not _ALGEBRA & set(vars(s))

    def test_hadamard_matmuls_count_in_the_rule(self, path_model):
        # k = 0, l = 10, C = 11: the block products are small (C 2^l 8^k =
        # 11264), the Hadamard matmuls are not (C 2^k 4^m = 11.5e6); at this
        # fit point (BENCH_26_pathfit.json) an algebra evaluation took
        # 10.9 ms a call against 1.9 ms for a table evaluation
        h, kp = path_model.large_l_instance(14, 10, 0, 48, 200, 22)
        s = build_support_sets(h, kp.ansatz)
        assert (s.span_pairs, len(s.span_basis), len(s.coset_rep)) == (0, 10, 11)
        assert cost_mod._path(s) is cost_mod._evaluate_sparse
        assert built_tables(s) == set()

    def test_a_slower_steady_evaluation_keeps_the_table_path(self, path_model):
        # k = 3, l = 6, C = 7: an algebra evaluation is predicted dearer per
        # call (and at this fit point took 6.4 ms a call against 3.9 ms), so
        # a run stays on the tables, though there the algebra path's first
        # evaluation, build included, took 13.8 ms against 29.5 ms
        h, kp = path_model.large_l_instance(16, 6, 3, 64, 160, 26)
        s = build_support_sets(h, kp.ansatz)
        assert (s.span_pairs, len(s.span_basis), len(s.coset_rep)) == (3, 12, 7)
        matrix, table = cost_mod._predicted_us(s)
        assert matrix > table
        assert cost_mod._path(s) is cost_mod._evaluate_sparse

    def test_small_full_span_takes_the_dense_engine(self, path_model):
        # n = 4, d = 24: 64 against 72 us predicted per call; its maps cost
        # more to build than its product tables, paid once
        # (BENCH_29_pathfit.json's held-out (4, 24) row)
        h, kp = path_model.full_span_instance(4, 24, 42)
        s = build_support_sets(h, kp.ansatz)
        assert cost_mod._path(s) is cost_mod._evaluate_dense
        assert built_tables(s) == set()

    def test_small_subgroup_takes_the_algebra_engine(self, path_model):
        # d = 16, k = 2, m = 3: 59 against 76 us predicted per call
        # (BENCH_29_pathfit.json's held-out (7, 16) row)
        h, kp = path_model.instance(7, 12, 5, 0, 0.5)
        s = build_support_sets(h, kp.ansatz)
        assert (s.d, s.span_pairs, len(s.span_basis)) == (16, 2, 5)
        assert cost_mod._path(s) is cost_mod._evaluate_algebra
        assert built_tables(s) == set()

    def test_path_model_measures_the_rule(self, path_model):
        # the tool reads its work terms, its matrix engine and its rule from
        # cost, on an instance whose maps outweigh its product tables
        h, kp = path_model.full_span_instance(3, 42, 40)
        point = path_model.measure(h, kp, repeat=1)
        s = build_support_sets(h, kp.ansatz)
        assert point["rule"] == cost_mod._path(s).__name__ == "_evaluate_dense"
        assert point["engine"] == "_evaluate_dense"
        assert (point["block_work"], point["hadamard_work"], point["table_work"]) == cost_mod._work(s)
        assert point["matrix_us"] > 0 and point["table_us"] > 0

    def test_gd_on_the_algebra_path_builds_no_table(self):
        h, kp = workload_instance("udu14_gd")
        s = build_support_sets(h, kp.ansatz)
        trace = run_gd(h, kp, OptConfig(max_iters=3), s)
        assert len(trace.records) == 4
        assert built_tables(s) == set()
        assert _ALGEBRA <= set(vars(s))
