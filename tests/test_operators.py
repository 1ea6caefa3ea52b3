import dataclasses
import itertools

import numpy as np
import pytest

from paulidiag.operators import (
    HERMITIAN_TOL,
    PRUNE_TOL,
    PauliSum,
    SupportSets,
    _accumulate,
    build_support_sets,
    conjugate,
    load_hamiltonian,
    save_hamiltonian,
    sum_multiply,
    trace_with,
)
from paulidiag.pauli import MAX_QUBITS, PauliString, multiply, parse

from conftest import dense_terms, dense_word


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
        assert tuple(p.word for p in s.g1) == ("Y",)
        assert tuple(p.word for p in s.g2) == ("X",)
        assert set(p.word for p in s.closure) == {"Z", "Y"}
        pairs = s.g2_pairs[parse("X")]
        assert sorted(pairs) == [(0, 1, (1 + 0j)), (1, 0, (1 + 0j))]

    def test_full_basis_xxz2(self):
        h = PauliSum.from_words({"XX": 1.0, "YY": 1.0, "ZZ": 1.0})
        basis = [parse("".join(w)) for w in itertools.product("IXYZ", repeat=2)]
        s = build_support_sets(h, basis)
        assert len(s.g1) == 12  # every off-diagonal 2-qubit string
        assert len(s.g2) == 15  # every non-identity string

    def test_validation(self):
        h = PauliSum.from_words({"Z": 1.0})
        with pytest.raises(ValueError, match="distinct"):
            build_support_sets(h, (parse("X"), parse("X")))
        with pytest.raises(ValueError):
            build_support_sets(h, (parse("XX"),))
        with pytest.raises(ValueError):
            build_support_sets(h, ())
        with pytest.raises(ValueError):
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
            for p, _ in khk.items():
                assert p in set(s.closure)
                if not p.is_diagonal:
                    assert p in set(s.g1)

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
            kc = s.k_coeffs(r, th)
            k = PauliSum(3, list(zip(ansatz, kc)))

            hk_vec = s.hk_vector(kc)
            hk = sum_multiply(h, k)
            for idx, p in enumerate(s.hk_strings):
                assert hk_vec[idx] == pytest.approx(hk.coefficient(p), abs=1e-13)
            assert hk_vec[-1] == 0j  # sentinel

            khk_vec = s.khk_vector(kc, hk_vec)
            khk = conjugate(h, k)
            for idx, p in enumerate(s.closure):
                assert khk_vec[idx] == pytest.approx(khk.coefficient(p), abs=1e-13)

            phi_vec = s.phi_vector(r, th)
            kk = sum_multiply(k.adjoint(), k)
            for idx, p in enumerate(s.g2):
                assert phi_vec[idx] == pytest.approx(kk.coefficient(p), abs=1e-13)
            # identity entry of K'K is ||r||^2, kept out of g2
            assert kk.coefficient(PauliString.identity(3)) == pytest.approx(
                np.dot(r, r), abs=1e-13
            )

    def test_deterministic_order(self, rng):
        h = random_sum(rng, 3, 5)
        ansatz = sorted({p for p, _ in random_sum(rng, 3, 4).items()})
        s1 = build_support_sets(h, ansatz)
        s2 = build_support_sets(h, ansatz)
        assert s1.g1 == s2.g1
        assert s1.g2 == s2.g2
        assert s1.closure == s2.closure


def reference_tables(h: PauliSum, ansatz) -> tuple[dict, list, list]:
    """Every SupportSets table built entry by entry with pauli.multiply: the
    loop reference the mask-array build must reproduce exactly. Also returns
    the hk and khk entry rows (i, b, phase, tgt) and (a, s, phase, tgt)."""
    d = len(ansatz)
    h_strings = tuple(sorted(h.strings()))
    hk_index: dict = {}
    hk_rows = []
    for i, q in enumerate(h_strings):
        for b, pb in enumerate(ansatz):
            ph, t = multiply(q, pb)
            hk_rows.append((i, b, ph.value, hk_index.setdefault(t, len(hk_index))))
    closure_index: dict = {}
    khk_rows = []
    for a, pa in enumerate(ansatz):
        for si, hs in enumerate(hk_index):
            ph, t = multiply(pa, hs)
            khk_rows.append((a, si, ph.value, closure_index.setdefault(t, len(closure_index))))
    closure = tuple(closure_index)
    g1 = tuple(sorted(p for p in closure if not p.is_diagonal))
    grad = [[multiply(p, pj) for pj in ansatz] for p in g1]
    pair_map: dict = {}
    for i, pi in enumerate(ansatz):
        for j, pj in enumerate(ansatz):
            ph, p = multiply(pi, pj)
            if not p.is_identity:
                pair_map.setdefault(p, []).append((j, i, ph.value))
    g2 = tuple(sorted(pair_map))
    phi_rows = [(t, j, jp, c) for t, p in enumerate(g2) for j, jp, c in pair_map[p]]

    tables = {
        "h_strings": h_strings,
        "hk_strings": tuple(hk_index),
        "closure": closure,
        "g1": g1,
        "g2": g2,
        "g2_pairs": {p: tuple(pair_map[p]) for p in g2},
        "grad_tgt": np.array(
            [[hk_index.get(t, len(hk_index)) for _, t in row] for row in grad],
            dtype=np.intp,
        ).reshape(len(g1), d),
        "grad_phase": np.array(
            [[ph.value for ph, _ in row] for row in grad], dtype=complex
        ).reshape(len(g1), d),
        "g1_closure_idx": np.array([closure_index[p] for p in g1], dtype=np.intp),
        "diag_closure_idx": np.array(
            [i for i, p in enumerate(closure) if p.is_diagonal], dtype=np.intp
        ),
    }
    for prefix, rows, names in (
        ("hk", hk_rows, {"phase": 2, "tgt": 3}),
        ("khk", khk_rows, {"phase": 2, "tgt": 3}),
        ("phi", phi_rows, {"p": 0, "j": 1, "jp": 2, "phase": 3}),
    ):
        for name, c in names.items():
            dtype = complex if name == "phase" else np.intp
            tables[f"{prefix}_{name}"] = np.array([r[c] for r in rows], dtype=dtype)
    return tables, hk_rows, khk_rows


def assert_vectors_match_rows(s, hk_rows, khk_rows, rng) -> None:
    """hk_vector and khk_vector against the entry-row formula, gathered per
    row: row (i, b, phase, tgt) adds h_i k_b phase to slot tgt of H*K, row
    (a, s, phase, tgt) adds conj(k_a) hk_s phase to slot tgt of K'(HK)."""
    d = len(s.ansatz)
    k = rng.uniform(0.1, 1.0, d) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, d))
    i, b, phase, tgt = (np.array(col) for col in zip(*hk_rows))
    hk = np.append(_accumulate(tgt, s.h_coeffs[i] * k[b] * phase, len(s.hk_strings)), 0j)
    a, si, phase, tgt = (np.array(col) for col in zip(*khk_rows))
    khk = _accumulate(tgt, k.conj()[a] * hk[si] * phase, len(s.closure))
    assert np.array_equal(s.hk_vector(k), hk)
    assert np.array_equal(s.khk_vector(k, hk), khk)


def assert_matches_reference(h: PauliSum, ansatz, rng) -> None:
    s = build_support_sets(h, ansatz)
    ref, hk_rows, khk_rows = reference_tables(h, ansatz)
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
        elif isinstance(want, dict):
            assert list(got) == list(want), name
            for key, value in want.items():
                assert repr(got[key]) == repr(value), (name, key)
        else:
            assert got == want, name
    assert_vectors_match_rows(s, hk_rows, khk_rows, rng)


def strings_of(words) -> tuple[PauliString, ...]:
    return tuple(parse(w) for w in words)


class TestMaskArrayBuild:
    """build_support_sets against the loop reference, field by field."""

    @pytest.mark.parametrize("h_words,ansatz_words", [
        # n = 1, one ansatz string: no pair products, empty phi tables
        ({"Z": 1.0}, ("X",)),
        ({"Z": 1.0, "X": 0.3}, ("I", "X", "Y", "Z")),
        # identity term in H, identity in the ansatz, colliding pair
        # products (XI*IX = II*XX = IX*XI = XX)
        ({"II": 0.7, "ZZ": -1.0, "XY": 0.25}, ("II", "IX", "XI", "XX", "YZ")),
        # diagonal-only H and ansatz: no g1, grad tables of shape (0, d)
        ({"ZI": 1.0, "IZ": 0.5}, ("II", "ZZ")),
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
        assert set(ref) | inputs == {f.name for f in dataclasses.fields(SupportSets)}
