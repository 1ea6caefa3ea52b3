import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest

from paulidiag import cost
from paulidiag.cost import KParams, eval_F, eval_grad
from paulidiag.operators import (
    HERMITIAN_TOL,
    PRUNE_TOL,
    PauliSum,
    SupportSets,
    _ALGEBRA,
    _SPAN,
    _TABLES,
    build_support_sets,
    load_hamiltonian,
    save_hamiltonian,
    sum_multiply,
)
from paulidiag.optimize import IncrementalState, OptConfig, run_gd, run_rcd
from paulidiag.pauli import MAX_QUBITS, PHASES, PauliString, multiply, parse

from conftest import conjugate, dense_terms, key_strings, random_instance, trace_with


def dense(a: PauliSum) -> np.ndarray:
    return dense_terms([(p.word, c) for p, c in a.items()], a.n)


def random_sum(rng, n, m, complex_coeffs=False) -> PauliSum:
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
    picks = rng.choice(len(words), size=min(m, len(words)), replace=False)
    coeffs = rng.uniform(-1, 1, size=len(picks))
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.uniform(-1, 1, size=len(picks))
    return PauliSum(n, [(parse(words[i]), c) for i, c in zip(picks, coeffs)])


class TestPauliSum:
    def test_merge_and_prune(self):
        x = parse("X")
        a = PauliSum(1, [(x, 1.0), (x, -1.0 + 5e-15)])
        assert len(a) == 0  # |5e-15| < PRUNE_TOL drops the merged term
        b = PauliSum(1, [(x, 1.0), (x, 1.0)])
        assert b.coefficient(x) == 2.0

    def test_prune_threshold_boundary(self):
        x = parse("X")
        assert len(PauliSum(1, [(x, PRUNE_TOL)])) == 1
        assert len(PauliSum(1, [(x, PRUNE_TOL / 10)])) == 0

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), complex(0, float("nan"))])
    def test_rejects_non_finite(self, c):
        # a NaN fails abs(c) >= PRUNE_TOL and would otherwise be pruned silently
        with pytest.raises(ValueError, match="non-finite"):
            PauliSum(1, [(parse("X"), c)])

    def test_constructors(self):
        assert len(PauliSum.zero(3)) == 0
        ident = PauliSum.identity(2, 2.5)
        assert ident.coefficient(PauliString.identity(2)) == 2.5
        h = PauliSum.from_words({"XX": 1.0, "ZZ": -0.5})
        assert h.n == 2 and len(h) == 2

    def test_n_mismatch(self):
        with pytest.raises(ValueError):
            PauliSum(2, [(parse("X"), 1.0)])
        with pytest.raises(ValueError):
            PauliSum.from_words({"X": 1.0}) + PauliSum.from_words({"XX": 1.0})

    def test_arithmetic(self):
        a = PauliSum.from_words({"X": 1.0, "Z": 2.0})
        b = PauliSum.from_words({"X": -1.0, "Y": 1.0})
        s = a + b
        assert s.coefficient(parse("X")) == 0j
        assert parse("X") not in s
        assert (a - a).coefficient(parse("Z")) == 0j
        assert (2j * a).coefficient(parse("Z")) == 4j

    def test_adjoint_and_hermitian(self):
        a = PauliSum.from_words({"X": 1 + 2j})
        assert a.adjoint().coefficient(parse("X")) == 1 - 2j
        assert not a.is_hermitian()
        assert PauliSum.from_words({"X": 1.0, "ZZ"[:1]: 0.5}).is_hermitian()
        almost = PauliSum.from_words({"X": 1.0 + HERMITIAN_TOL / 2 * 1j})
        assert almost.is_hermitian()


class TestSumMultiply:
    def test_identity(self):
        a = PauliSum.from_words({"XY": 1.5, "ZI": -0.5})
        assert sum_multiply(a, PauliSum.identity(2)) == a

    def test_unitary_rotation(self):
        c = 0.37
        u = PauliSum.from_words({"X": 1j * np.sin(c), "I": np.cos(c)})
        prod = sum_multiply(u.adjoint(), u)
        assert len(prod) == 1
        assert prod.coefficient(PauliString.identity(1)) == pytest.approx(1.0)

    def test_dense_equivalence_random(self, rng):
        for _ in range(8):
            a = random_sum(rng, 3, 6, complex_coeffs=True)
            b = random_sum(rng, 3, 5, complex_coeffs=True)
            np.testing.assert_allclose(
                dense(sum_multiply(a, b)), dense(a) @ dense(b), atol=1e-12
            )

    def test_conjugate_hermitian(self, rng):
        h = random_sum(rng, 3, 8)
        k = random_sum(rng, 3, 6, complex_coeffs=True)
        khk = conjugate(h, k)
        assert khk.is_hermitian(tol=1e-10)
        np.testing.assert_allclose(
            dense(khk), dense(k).conj().T @ dense(h) @ dense(k), atol=1e-12
        )


class TestTraceWith:
    def test_examples(self):
        a = PauliSum.from_words({"X": 3.0})
        assert trace_with(a, parse("X")) == 6.0  # 2^1 * 3
        assert trace_with(a, parse("Z")) == 0j

    def test_parseval(self, rng):
        a = random_sum(rng, 3, 10, complex_coeffs=True)
        lhs = sum(abs(c) ** 2 for _, c in a.items())
        rhs = np.linalg.norm(dense(a), "fro") ** 2 / 2**3
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_n_mismatch(self):
        with pytest.raises(ValueError):
            trace_with(PauliSum.from_words({"X": 1.0}), parse("XX"))


class TestHamiltonianFiles:
    def test_round_trip(self, tmp_path, rng):
        h = random_sum(rng, 3, 7)
        path = tmp_path / "h.txt"
        save_hamiltonian(path, h)
        back = load_hamiltonian(path)
        assert back.n == h.n
        for p, c in h.items():
            assert back.coefficient(p) == pytest.approx(c, abs=1e-15)

    def test_comments_blanks_duplicates(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text(
            "# header\n"
            "\n"
            "0.5 XX  # trailing comment\n"
            "0.25 XX\n"
            "-1.0 ZI\n"
        )
        h = load_hamiltonian(path)
        assert h.coefficient(parse("XX")) == 0.75
        assert h.coefficient(parse("ZI")) == -1.0

    def test_malformed_coefficient(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 XX\nqq ZZ\n")
        with pytest.raises(ValueError, match="line 2"):
            load_hamiltonian(path)

    @pytest.mark.parametrize("coeff", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient(self, tmp_path, coeff):
        path = tmp_path / "h.txt"
        path.write_text(f"0.5 XX\n{coeff} ZZ\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_hamiltonian(path)

    def test_malformed_word(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 XW\n")
        with pytest.raises(ValueError, match="line 1"):
            load_hamiltonian(path)

    def test_inconsistent_length(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 XX\n0.5 XXX\n")
        with pytest.raises(ValueError, match="line 2"):
            load_hamiltonian(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no terms"):
            load_hamiltonian(path)

    def test_save_rejects_complex(self, tmp_path):
        with pytest.raises(ValueError):
            save_hamiltonian(tmp_path / "h.txt", PauliSum.from_words({"X": 1j}))


class TestSupportSets:
    def test_small_example(self):
        # h=Z, ansatz (I, X): closure {Z, Y}, g1 = {Y}, g2 = {X}
        h = PauliSum.from_words({"Z": 1.0})
        s = build_support_sets(h, (parse("I"), parse("X")))
        assert tuple(p.word for p in key_strings(1, s.g1)) == ("Y",)
        assert tuple(p.word for p in key_strings(1, s.g2)) == ("X",)
        assert set(p.word for p in key_strings(1, s.closure)) == {"Z", "Y"}
        # phi_X = conj(k_I) k_X + conj(k_X) k_I: the pair grid's two
        # off-diagonal entries; the penalty is phi_X^2
        kp = KParams(s.ansatz, np.array([0.6, 0.8]), np.array([0.3, -0.4]))
        assert eval_F(h, kp, s).penalty == pytest.approx((2 * 0.6 * 0.8 * np.cos(0.7)) ** 2)

    def test_full_basis_xxz2(self):
        h = PauliSum.from_words({"XX": 1.0, "YY": 1.0, "ZZ": 1.0})
        basis = [parse("".join(w)) for w in itertools.product("IXYZ", repeat=2)]
        s = build_support_sets(h, basis)
        assert len(s.g1) == 12  # every off-diagonal 2-qubit string
        assert len(s.g2) == 15  # every non-identity string

    def test_validation(self):
        # every input error raises from build_support_sets itself, before
        # any table is read
        h = PauliSum.from_words({"Z": 1.0})
        with pytest.raises(ValueError, match="distinct"):
            build_support_sets(h, (parse("X"), parse("X")))
        with pytest.raises(ValueError, match="qubits"):
            build_support_sets(h, (parse("XX"),))
        with pytest.raises(ValueError, match="empty ansatz"):
            build_support_sets(h, ())
        with pytest.raises(ValueError, match="empty Hamiltonian"):
            build_support_sets(PauliSum.zero(1), (parse("X"),))

    def test_rejects_non_hermitian(self):
        # the cost reads only Re tr(K'HK P), so the 0.5i ZI term would vanish
        h = PauliSum.from_words({"XX": 1.0, "ZI": 0.5j})
        with pytest.raises(ValueError, match="Hermitian"):
            build_support_sets(h, (parse("II"), parse("XY")))

    def test_closure_soundness(self, rng):
        # every string K'HK can produce lies inside closure, off-diagonal ones in g1
        for _ in range(6):
            h = random_sum(rng, 3, 5)
            ansatz = sorted(
                {p for p, _ in random_sum(rng, 3, 4, complex_coeffs=True).items()}
            )
            s = build_support_sets(h, ansatz)
            r = rng.uniform(0.1, 1, len(ansatz))
            th = rng.uniform(0, 2 * np.pi, len(ansatz))
            k = PauliSum(3, [(p, rr * np.exp(1j * tt)) for p, rr, tt in zip(ansatz, r, th)])
            khk = conjugate(h, k)
            closure, g1 = set(key_strings(3, s.closure)), set(key_strings(3, s.g1))
            for p, _ in khk.items():
                assert p in closure
                if not p.is_diagonal:
                    assert p in g1

    def test_vectors_match_dict_path(self, rng):
        for _ in range(6):
            h = random_sum(rng, 3, 6)
            ansatz = sorted(
                {p for p, _ in random_sum(rng, 3, 5, complex_coeffs=True).items()}
            )
            s = build_support_sets(h, ansatz)
            d = len(ansatz)
            r = rng.uniform(0.1, 1, d)
            th = rng.uniform(0, 2 * np.pi, d)
            kc = r * np.exp(1j * th)
            k = PauliSum(3, list(zip(ansatz, kc)))
            w, vec, _, _ = cost._table_values(s, r, th)

            # the grid's rows W[a, s] = c y_s, where P_a Y_s = c P and y
            # holds the coefficients of Y = hk_strings ++ ansatz in [HK | K]
            hk = sum_multiply(h, k)
            hk_strings = key_strings(3, s.hk_strings)
            y = [hk.coefficient(p) for p in hk_strings] + list(kc)
            rows = w.view(complex)[..., 0]
            assert rows.shape == (d, len(hk_strings) + d)
            for a, pa in enumerate(ansatz):
                for si, ys in enumerate(hk_strings + tuple(ansatz)):
                    want = multiply(pa, ys)[0] * y[si]
                    assert rows[a, si] == pytest.approx(want, abs=1e-13)

            # K'HK and K'K are Hermitian: the table holds real coefficients
            # over [closure | identity | g2], the real parts of the complex
            # reference, whose imaginary parts are rounding noise
            assert vec.dtype == np.float64 and len(vec) == len(s.closure) + 1 + len(s.g2)
            khk = conjugate(h, k)
            kk = sum_multiply(k.adjoint(), k)
            want = [khk.coefficient(p) for p in key_strings(3, s.closure)]
            want += [kk.coefficient(p) for p in (PauliString.identity(3),) + key_strings(3, s.g2)]
            for got, c in zip(vec, want):
                assert abs(got - c.real) <= 1e-13
                assert abs(c.imag) <= 1e-13
            # identity entry of K'K is ||r||^2, kept out of g2
            assert want[len(s.closure)] == pytest.approx(np.dot(r, r), abs=1e-13)

    def test_deterministic_order(self, rng):
        h = random_sum(rng, 3, 5)
        ansatz = sorted({p for p, _ in random_sum(rng, 3, 4).items()})
        s1 = build_support_sets(h, ansatz)
        s2 = build_support_sets(h, ansatz)
        for name in ("hk_strings", "closure", "g1", "g2"):
            np.testing.assert_array_equal(getattr(s1, name), getattr(s2, name))


def sorted_products(left, right) -> tuple[list, tuple, dict]:
    """The products left[i] * right[j] as (phase, string) rows, their distinct
    strings in sorted order and each string's index among them."""
    products = [[multiply(a, b) for b in right] for a in left]
    strings = tuple(sorted({p for row in products for _, p in row}))
    return products, strings, {p: t for t, p in enumerate(strings)}


def packed(strings) -> np.ndarray:
    return np.array([p.x_mask << MAX_QUBITS | p.z_mask for p in strings], dtype=np.int64)


def reference_tables(h: PauliSum, ansatz) -> tuple[dict, list, list]:
    """Every SupportSets table built entry by entry with pauli.multiply: the
    loop reference the mask-array build must reproduce exactly. Every string
    table is numbered in sorted (PauliString) order and held as the strings'
    packed keys x << MAX_QUBITS | z. The khk grid is
    K'[HK | K]: entry (a, s) is P_a * Y_s = i^m P with Y = hk_strings ++
    ansatz, its slot P's index in [closure | identity | g2] and its selector
    m * (|hk| + d) + s. Also returns the hk and khk entry rows
    (i, b, phase, tgt) and (a, s, phase, tgt), in row-major grid order."""
    h_strings = tuple(sorted(h.strings()))
    hk_products, hk_strings, hk_index = sorted_products(h_strings, ansatz)
    hk_rows = [
        (i, b, ph, hk_index[p])
        for i, row in enumerate(hk_products)
        for b, (ph, p) in enumerate(row)
    ]
    _, closure, closure_index = sorted_products(ansatz, hk_strings)
    g1 = tuple(p for p in closure if not p.is_diagonal)
    _, pair_strings, _ = sorted_products(ansatz, ansatz)
    g2 = tuple(p for p in pair_strings if not p.is_identity)
    # slots: the closure, then the identity, then g2
    pair_index = {p: len(closure) + 1 + t for t, p in enumerate(g2)}
    pair_index[PauliString.identity(h.n)] = len(closure)
    width = len(hk_strings) + len(ansatz)
    khk_rows, khk_sel = [], []
    for a, pa in enumerate(ansatz):
        for si, y in enumerate(hk_strings + tuple(ansatz)):
            ph, p = multiply(pa, y)
            slot = closure_index[p] if si < len(hk_strings) else pair_index[p]
            khk_rows.append((a, si, ph, slot))
            khk_sel.append(PHASES.tolist().index(ph) * width + si)
    slot_scale = np.zeros(len(closure) + 1 + len(g2))
    slot_scale[[closure_index[p] for p in g1]] = 4.0 * 4**h.n
    slot_scale[len(closure) + 1:] = 4.0

    tables = {
        "h_strings": h_strings,
        "hk_strings": packed(hk_strings),
        "closure": packed(closure),
        "g1": packed(g1),
        "g2": packed(g2),
        "hk_phase": np.array([row[2] for row in hk_rows], dtype=complex),
        "hk_tgt": np.array([row[3] for row in hk_rows], dtype=np.intp),
        "khk_sel": np.array(khk_sel, dtype=np.intp),
        "khk_tgt": np.array([row[3] for row in khk_rows], dtype=np.intp),
        "slot_scale": slot_scale,
    }
    return tables, hk_rows, khk_rows


def assert_vectors_match_rows(s, hk_rows, khk_rows, rng) -> None:
    """cost._table_values' w and v against the entry-row formula, gathered
    per row, with k = r e^{i theta} and y = [hk | k]: row (i, b, phase, tgt)
    adds h_i k_b phase to slot tgt of H*K; row (a, s, phase, tgt) is
    W[a, s] = phase y_s and adds the real Re(conj(k_a) W[a, s]) to slot tgt
    of [K'HK | K'K]."""
    d = len(s.ansatz)
    r, theta = rng.uniform(0.1, 1.0, d), rng.uniform(0.0, 2 * np.pi, d)
    k = r * np.exp(1j * theta)
    i, b, phase, tgt = (np.array(col) for col in zip(*hk_rows))
    terms = s.h_coeffs[i] * k[b] * phase
    hk = (np.bincount(tgt, weights=terms.real, minlength=len(s.hk_strings))
          + 1j * np.bincount(tgt, weights=terms.imag, minlength=len(s.hk_strings)))
    a, si, phase, tgt = (np.array(col) for col in zip(*khk_rows))
    rows = phase * np.concatenate((hk, k))[si]
    length = len(s.closure) + 1 + len(s.g2)
    khk = np.bincount(tgt, weights=(k.conj()[a] * rows).real, minlength=length)
    w, v, _, _ = cost._table_values(s, r, theta)
    assert np.array_equal(w, rows.view(float).reshape(d, -1, 2))
    assert np.array_equal(v, khk)


def loop_gradient(h: PauliSum, ansatz, r, theta) -> np.ndarray:
    """(grad_r, grad_theta) of F from per-term loops over PauliSum products:
    the off-diagonal part per (P, j), P an off-diagonal string of K'HK (so
    in g1) and P P_j = c R, 4 t_P (Re, r_j Im)(e^{-i theta_j} c tr(HK R));
    the penalty part per pair (i, j) with P_i P_j = c P != I, through
    a = conj(phi_P) c e^{i(theta_j - theta_i)}."""
    n, d = h.n, len(ansatz)
    k = PauliSum(n, list(zip(ansatz, r * np.exp(1j * theta))))
    hk = sum_multiply(h, k)
    khk = conjugate(h, k)
    kk = sum_multiply(k.adjoint(), k)
    grad_r, grad_theta = np.zeros(d), np.zeros(d)
    for p, c in khk.items():
        if p.is_diagonal:
            continue
        t = 2**n * c.real
        for j, pj in enumerate(ansatz):
            ph, rs = multiply(p, pj)
            w = np.exp(-1j * theta[j]) * ph * trace_with(hk, rs)
            grad_r[j] += 4 * t * w.real
            grad_theta[j] += 4 * t * r[j] * w.imag
    for i, pi in enumerate(ansatz):
        for j, pj in enumerate(ansatz):
            ph, p = multiply(pi, pj)
            if p.is_identity:
                continue
            a = kk.coefficient(p).conjugate() * ph * np.exp(1j * (theta[j] - theta[i]))
            grad_r[j] += 2 * a.real * r[i]
            grad_r[i] += 2 * a.real * r[j]
            grad_theta[j] -= 2 * a.imag * r[i] * r[j]
            grad_theta[i] += 2 * a.imag * r[i] * r[j]
    return np.concatenate([grad_r, grad_theta])


def assert_gradient_matches_loop(s, h: PauliSum, ansatz, rng) -> None:
    """The table gradient, full and on a sampled block, against loop_gradient."""
    d = len(ansatz)
    r, theta = rng.uniform(0.1, 1.0, d), rng.uniform(0.0, 2 * np.pi, d)
    want = loop_gradient(h, ansatz, r, theta)
    atol = 1e-12 * max(np.max(np.abs(want)), 1.0)
    _, _, gr, gt = cost._evaluate_sparse(s, r, theta, True)
    np.testing.assert_allclose(np.concatenate([gr, gt]), want, rtol=1e-12, atol=atol)
    coords = rng.choice(2 * d, size=int(rng.integers(1, 2 * d + 1)), replace=False)
    gr, gt, _ = IncrementalState(s, r, theta).sparse_grad(coords)
    got = np.concatenate([gr, gt])
    np.testing.assert_allclose(got[coords], want[coords], rtol=1e-12, atol=atol)


def assert_matches_reference(h: PauliSum, ansatz, rng) -> None:
    s = build_support_sets(h, ansatz)
    # one numbering rule: every string table sorted, g1 a view of the
    # closure's suffix
    assert list(s.h_strings) == sorted(s.h_strings)
    for name in ("hk_strings", "closure", "g1", "g2"):
        strings = key_strings(h.n, getattr(s, name))
        assert list(strings) == sorted(strings), name
    np.testing.assert_array_equal(s.g1, s.closure[len(s.closure) - len(s.g1):])
    assert len(s.g1) == 0 or np.shares_memory(s.g1, s.closure)
    ref, hk_rows, khk_rows = reference_tables(h, ansatz)
    assert_fields_equal(s, ref)
    assert_vectors_match_rows(s, hk_rows, khk_rows, rng)
    assert_gradient_matches_loop(s, h, ansatz, rng)


def assert_fields_equal(s, ref: dict) -> None:
    """Every field of s named in ref equals the reference bit for bit."""
    for name, want in ref.items():
        got = getattr(s, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
            if want.dtype.kind == "c":  # the phases match down to signed zeros
                for part in ("real", "imag"):
                    np.testing.assert_array_equal(
                        np.signbit(getattr(got, part)), np.signbit(getattr(want, part)),
                        err_msg=name,
                    )
        else:
            assert got == want, name


def strings_of(words) -> tuple[PauliString, ...]:
    return tuple(parse(w) for w in words)


class TestMaskArrayBuild:
    """build_support_sets against the loop reference, field by field."""

    @pytest.mark.parametrize("h_words,ansatz_words", [
        # n = 1, one ansatz string: g2 empty, a one-entry pair grid
        ({"Z": 1.0}, ("X",)),
        # the full basis on one qubit: every product collides, |closure| = d
        ({"Z": 1.0, "X": 0.3}, ("I", "X", "Y", "Z")),
        # identity term in H, identity in the ansatz, colliding pair
        # products (XI*IX = II*XX = IX*XI = XX)
        ({"II": 0.7, "ZZ": -1.0, "XY": 0.25}, ("II", "IX", "XI", "XX", "YZ")),
        # diagonal-only H and ansatz: no g1, every khk entry lands on a
        # diagonal string
        ({"ZI": 1.0, "IZ": 0.5}, ("II", "ZZ")),
        # dense H (all 16 strings) with three ansatz strings: HK is the
        # whole group, so every ansatz row of the closure grid is a
        # permutation of it
        ({"".join(w): 0.1 * (i + 1) - 0.75
          for i, w in enumerate(itertools.product("IXYZ", repeat=2))}, ("XI", "IZ", "YY")),
        # the Z group as ansatz: its pair products are the group, so the
        # closure is HK itself (12 strings)
        ({"XX": 1.0, "XI": 0.5, "IY": -0.3}, ("II", "ZI", "IZ", "ZZ")),
        # the X group against H = YI, YX, ZI: each of the four HK slots is
        # reached from three (i, b), with phases 1, i and -i among them
        ({"YI": 1.0, "YX": -0.5, "ZI": 0.3}, ("II", "XI", "IX", "XX")),
    ])
    def test_handpicked_instances(self, rng, h_words, ansatz_words):
        assert_matches_reference(PauliSum.from_words(h_words), strings_of(ansatz_words), rng)

    def test_random_instances(self, rng):
        for n in (1, 2, 3, 4):
            for _ in range(4):
                h = random_sum(rng, n, int(rng.integers(1, 2 * n + 3)))
                if rng.random() < 0.5:
                    h = h + PauliSum.identity(n, 0.4)
                ansatz = {p for p, _ in random_sum(rng, n, int(rng.integers(1, 7))).items()}
                if rng.random() < 0.5:
                    ansatz.add(PauliString.identity(n))
                ansatz = tuple(rng.permutation(sorted(ansatz)))
                assert_matches_reference(h, ansatz, rng)

    def test_full_width_strings(self, rng):
        # X or Y on qubit 23 sets bit 47 of the packed key x << 24 | z
        n = MAX_QUBITS
        full = (1 << n) - 1

        def draw(count):
            return {
                PauliString(n, int(x) | (1 << (n - 1)), int(z))
                for x, z in rng.integers(0, full + 1, size=(count, 2))
            }

        h = PauliSum(n, [(p, c) for p, c in zip(sorted(draw(4)), (1.0, -0.5, 0.25, 2.0))])
        ansatz = tuple(sorted(draw(5) | {PauliString.identity(n)}))
        assert_matches_reference(h, ansatz, rng)

    def test_reference_covers_every_table(self):
        # guards the reference against a field added to SupportSets later
        h = PauliSum.from_words({"Z": 1.0})
        ref, _, _ = reference_tables(h, (parse("X"),))
        inputs = {"n", "ansatz", "h_ref", "h_coeffs"}
        # the span and algebra fields are checked through the algebra path's
        # values against the table path's (tests/test_cost.py)
        assert set(ref) | inputs | _SPAN | _ALGEBRA == {
            f.name for f in dataclasses.fields(SupportSets)}


def dense_instance():
    """A 3-qubit H with the full basis as ansatz (d = 64): the models send
    it to the dense engine."""
    h = PauliSum.from_words({"XXI": 1.0, "YYI": 1.0, "IZZ": 0.7, "ZII": 0.3})
    ansatz = tuple(parse("".join(w)) for w in itertools.product("IXYZ", repeat=3))
    r = np.linspace(1.0, 2.0, len(ansatz))
    kp = KParams(ansatz, r / np.linalg.norm(r), np.linspace(0.0, 1.0, len(ansatz)))
    assert cost._path(build_support_sets(h, ansatz)) is cost._evaluate_dense
    return h, kp


def built(s) -> set[str]:
    """The derived tables s holds as instance attributes."""
    return _TABLES & set(vars(s))


class TestLazyTables:
    """build_support_sets checks its inputs at once; the nine derived
    fields are built together on the first read of any of them."""

    def test_nine_fields(self):
        assert _TABLES == {"hk_strings", "closure", "g1", "g2", "hk_phase", "hk_tgt",
                           "khk_sel", "khk_tgt", "slot_scale"}

    def test_dense_path_builds_nothing(self):
        h, kp = dense_instance()
        s = build_support_sets(h, kp.ansatz)
        eval_F(h, kp, s)
        eval_grad(h, kp, s)
        run_gd(h, kp, OptConfig(max_iters=3), s)
        run_rcd(h, kp, OptConfig(max_iters=3, block_size=2 * kp.d), s)
        assert built(s) == set()

    def test_first_read_of_g2_builds_all(self):
        h, kp = dense_instance()
        s = build_support_sets(h, kp.ansatz)
        s.g2
        assert built(s) == _TABLES
        ref, _, _ = reference_tables(h, kp.ansatz)
        assert_fields_equal(s, {name: ref[name] for name in _TABLES})

    def test_small_block_rcd_same_trace(self):
        # the sampled step and the automatic step both take the dense path:
        # built tables change nothing, and a fresh run builds none
        h, kp = dense_instance()
        cfg = OptConfig(max_iters=40, block_size=4, seed=3)
        fresh = build_support_sets(h, kp.ansatz)
        read = build_support_sets(h, kp.ansatz)
        read.khk_tgt
        traces = [run_rcd(h, kp, cfg, s) for s in (fresh, read)]
        assert built(fresh) == set()
        want = [rec.as_dict() for rec in traces[1].records]
        assert [rec.as_dict() for rec in traces[0].records] == want
        assert np.array_equal(traces[0].final_params.r, traces[1].final_params.r)
        assert np.array_equal(traces[0].final_params.theta, traces[1].final_params.theta)

    def test_table_build_and_table_path_construct_no_strings(self, rng, monkeypatch):
        # the string tables are packed keys: neither the build nor a
        # table-path run forms a PauliString
        h, kp, _ = random_instance(rng, 3, 6)
        assert cost._path(build_support_sets(h, kp.ansatz)) is cost._evaluate_sparse
        made = []
        check = PauliString.__post_init__
        monkeypatch.setattr(PauliString, "__post_init__",
                            lambda p: made.append(p) or check(p))
        s = build_support_sets(h, kp.ansatz)
        s.khk_tgt
        assert built(s) == _TABLES
        run_gd(h, kp, OptConfig(max_iters=5), s)
        assert made == []
        PauliString.identity(3)  # the counter sees a construction
        assert len(made) == 1

    def test_three_groups_build_apart(self, rng):
        # the span (the path rule's inputs), the algebra path's fields and
        # the product tables: a read builds its own group, the algebra also
        # the span it reads, and nothing else
        h, kp, _ = random_instance(rng, 3, 6)
        s = build_support_sets(h, kp.ansatz)
        s.coset_rep
        assert set(vars(s)) & (_TABLES | _SPAN | _ALGEBRA) == _SPAN
        s.alg_h
        assert set(vars(s)) & (_TABLES | _SPAN | _ALGEBRA) == _SPAN | _ALGEBRA
        t = build_support_sets(h, kp.ansatz)
        t.g1
        assert set(vars(t)) & (_TABLES | _SPAN | _ALGEBRA) == _TABLES

    @pytest.mark.parametrize("roundtrip", [copy.copy, lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "pickle"])
    def test_copies_of_an_unbuilt_object(self, roundtrip):
        h, kp = dense_instance()
        s = build_support_sets(h, kp.ansatz)
        c = roundtrip(s)
        assert built(s) == set() and built(c) == set()
        assert not hasattr(c, "no_such_field")
        assert built(c) == set()
        np.testing.assert_array_equal(c.g1, s.g1)
        np.testing.assert_array_equal(c.khk_tgt, s.khk_tgt)
