import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from paulidiag.cli import load_params, main, save_params
from paulidiag.cost import KParams, eval_F
from paulidiag.models import (build_random_udu, build_xxz, expand_rotation_product,
                              warm_start_from_dense)
from paulidiag.operators import PauliSum, build_support_sets, load_hamiltonian, save_hamiltonian
from paulidiag.pauli import PauliString, commutes, multiply, parse
import paulidiag.verify as verify_mod
from paulidiag.verify import (
    DENSE_MAX_QUBITS,
    DenseLimitError,
    LieClosure,
    diag_report,
    frob_error,
    generating_set_check,
    kparams_to_dense,
    lie_closure_dim,
    pauli_decompose,
    projector_distances,
    to_dense,
)

from conftest import dense_terms, dense_word, random_instance, string_to_dense


class TestToDense:
    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_strings(self, n):
        for word in itertools.product("IXYZ", repeat=n):
            word = "".join(word)
            got = string_to_dense(PauliString.from_word(word))
            np.testing.assert_allclose(got, dense_word(word), atol=1e-15)

    def test_random_strings(self, rng):
        for _ in range(30):
            word = "".join(rng.choice(list("IXYZ"), size=4))
            got = string_to_dense(PauliString.from_word(word))
            np.testing.assert_allclose(got, dense_word(word), atol=1e-15)

    def test_identity_sum(self):
        np.testing.assert_array_equal(
            to_dense(PauliSum.identity(2, 3.0)), 3.0 * np.eye(4)
        )

    def test_single_z(self):
        np.testing.assert_array_equal(
            to_dense(PauliSum.from_words({"Z": 1.0})), np.diag([1.0, -1.0])
        )

    def test_sum_matches_oracle(self, rng):
        words = ["XYZ", "ZZI", "IXI", "YYY", "IIZ"]
        coeffs = rng.uniform(-1, 1, len(words))
        s = PauliSum.from_words(dict(zip(words, coeffs)))
        np.testing.assert_allclose(
            to_dense(s), dense_terms(zip(words, coeffs), 3), atol=1e-14
        )

    def test_parseval(self, rng):
        h, _, _ = random_instance(rng, 3, 4)
        frob_sq = np.linalg.norm(to_dense(h)) ** 2
        coeff_sq = sum(abs(c) ** 2 for _, c in h.items())
        assert frob_sq == pytest.approx(2**3 * coeff_sq, rel=1e-12)

    def test_dense_limit(self):
        with pytest.raises(DenseLimitError):
            to_dense(PauliSum.identity(13))

    @pytest.mark.parametrize("block", ["default", "one term", "three terms"])
    def test_equals_term_by_term_sum(self, rng, monkeypatch, block):
        # the per-term loop the vectorised scatter replaced: each entry adds
        # its terms in order, so the two agree exactly, also when the terms
        # are split into blocks and terms that share an x mask fall in
        # different blocks
        for n in (1, 2, 3, 5):
            if block != "default":
                terms_per_block = 1 if block == "one term" else 3
                monkeypatch.setattr(verify_mod, "_DENSE_BLOCK", terms_per_block * 2**n)
            words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
            picks = rng.choice(len(words), size=min(40, len(words)), replace=False)
            coeffs = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
            terms = [(words[i], c) for i, c in zip(picks, coeffs)]
            want = np.zeros((2**n, 2**n), dtype=complex)
            for word, c in terms:
                want += c * dense_word(word)
            s = PauliSum(n, [(parse(w), c) for w, c in terms])
            assert np.array_equal(to_dense(s), want)
            ansatz = tuple(parse(w) for w, _ in terms)
            kp = KParams(ansatz, np.abs(coeffs), np.angle(coeffs))
            k = np.zeros((2**n, 2**n), dtype=complex)
            for word, c in zip((w for w, _ in terms), kp.r * np.exp(1j * kp.theta)):
                k += c * dense_word(word)
            assert np.array_equal(kparams_to_dense(kp), k)


class TestPauliDecompose:
    def test_round_trip_from_sum(self, rng):
        for n in range(1, 7):
            h, _, _ = random_instance(rng, n, 4)
            back = pauli_decompose(to_dense(h), n)
            assert set(back.strings()) == set(h.strings())
            for p, c in h.items():
                assert back.coefficient(p) == pytest.approx(c, abs=1e-12)

    def test_round_trip_from_matrix(self, rng):
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        expansion = pauli_decompose(mat, 3)
        np.testing.assert_allclose(to_dense(expansion), mat, atol=1e-12)

    def test_prune(self):
        mat = np.eye(2, dtype=complex) + 1e-9 * dense_word("X")
        kept = pauli_decompose(mat, 1, prune_tol=1e-6)
        assert list(kept.strings()) == [PauliString.identity(1)]

    def test_shape_check(self):
        with pytest.raises(ValueError, match="4x4"):
            pauli_decompose(np.eye(8), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry(self, bad):
        # a NaN entry was dropped by the prune test and an infinite one
        # gave an empty sum after two RuntimeWarnings
        mat = np.eye(4, dtype=complex)
        mat[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"mat\[1, 2\] must be finite"):
                pauli_decompose(mat, 2)

    def test_nan_prune_tol(self):
        with pytest.raises(ValueError, match="prune_tol must not be NaN"):
            pauli_decompose(np.eye(4), 2, prune_tol=np.nan)

    def test_warm_start_names_a_nan_prune_tol(self):
        # the empty expansion was blamed on pruning
        with pytest.raises(ValueError, match="prune_tol must not be NaN"):
            warm_start_from_dense(build_xxz(2, 1.0, 0.5), prune_tol=np.nan)


def reference_report(h, kp, f_value, penalty):
    """The eleven report fields by the direct formula: every dense product
    formed as written, on full 2^n x 2^n matrices, with explicit conjugate
    copies of K, np.diag and np.eye. diag_report must match it while holding
    fewer matrices. Each matrix is dropped once read, so n = 12 fits."""
    dim = 2 ** h.n
    hd = to_dense(h)
    h_frob = float(np.linalg.norm(hd))
    k = kparams_to_dense(kp)
    g = k.conj().T @ hd @ k
    diag = np.diag(g).real
    offdiag_mass = float(np.linalg.norm(g - np.diag(diag)))
    del g
    diff = hd - (k * diag) @ k.conj().T
    del hd
    frob = float(np.linalg.norm(diff))
    spec = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    del diff
    total = f_value + penalty
    eps = dim * penalty
    bound_offdiag = math.sqrt(max(total, 0.0) / dim)
    return {
        "n": h.n,
        "f_value": f_value,
        "penalty": penalty,
        "frob_error": frob,
        "spec_error": spec,
        "unitarity_error": float(np.linalg.norm(k.conj().T @ k - np.eye(dim))),
        "offdiag_mass": offdiag_mass,
        "bound_offdiag": bound_offdiag,
        "eps": float(eps),
        "bound_spec": 2.0 * bound_offdiag
        + 6.0 * (1.0 + math.sqrt(max(total, 0.0))) * h_frob * math.sqrt(max(eps, 0.0)),
        "bound_spec_applicable": bool(eps <= 0.25),
    }


DENSE_FIELDS = ("frob_error", "spec_error", "unitarity_error", "offdiag_mass")


def assert_near_reference(h, got, want, frob=None):
    """Every field within 1e-12 max(|want|, ||H||_F), unitarity_error within
    1e-12 sqrt(2^n), n and bound_spec_applicable exact; frob_error's value
    when given is held to the frob_error field's tolerance."""
    h_frob = float(np.linalg.norm(to_dense(h)))
    got = dict(got)
    if frob is not None:
        got["frob"] = frob
        want = {**want, "frob": want["frob_error"]}
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in ("n", "bound_spec_applicable"):
            assert got[key] == value, key
            continue
        scale = math.sqrt(2 ** h.n) if key == "unitarity_error" else max(abs(value), h_frob)
        assert abs(got[key] - value) <= 1e-12 * scale, (key, got[key], value)


def report_fields(rep):
    return {key: value for key, value in rep.as_dict().items() if key != "F_total"}


def nearly_exact_instance(rng, n, noise):
    """Diagonal h plus noise-sized off-diagonal strings, and K = e^{i theta} P
    plus noise-sized other strings: K'HK is diagonal up to the noise, and at
    noise = 0 its diagonal's imaginary parts are pure rounding."""
    words = ["".join(w) for w in itertools.product("IZ", repeat=n)]
    terms = [(parse(w), c) for w, c in zip(words, rng.uniform(-1, 1, len(words)))]
    if noise:
        terms += [(parse("X" + "I" * (n - 1)), noise), (parse("Y" * n), -noise)]
    h = PauliSum(n, terms)
    lead = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
    others = [PauliString(n, 1, 0), PauliString(n, 0, 1), PauliString(n, 1, 1)]
    ansatz = tuple(sorted({lead, *others}))
    r = np.array([1.0 if p == lead else noise for p in ansatz])
    r /= np.linalg.norm(r)
    theta = rng.uniform(0.0, 2 * np.pi, len(ansatz))
    return h, KParams(ansatz, r, theta)


class TestDiagReport:
    def test_fields_equal_reference_formula(self, rng):
        # the in-place conjugations and diagonal updates are exact, so every
        # field equals the direct formula bit for bit
        for n in range(1, 8):
            for d in (3, 2 * n + 1):
                h, kp, s = random_instance(rng, n, d)
                cost_rep = eval_F(h, kp, s)
                want = reference_report(h, kp, cost_rep.f_value, cost_rep.penalty)
                got = report_fields(diag_report(h, kp, cost_rep.f_value, cost_rep.penalty))
                assert got == want

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_fields_equal_reference_near_exact_diagonalizer(self, rng, noise):
        # offdiag_mass is tiny here, so the imaginary rounding left on the
        # diagonal of K'HK is a visible part of it and must be kept. These
        # spans are deficient, so the report sums over sector blocks in
        # another order than the full matrices: the dense fields and
        # ||H||_F (in bound_spec) move by rounding only
        for n in range(1, 8):
            h, kp = nearly_exact_instance(rng, n, noise)
            cost_rep = eval_F(h, kp, build_support_sets(h, kp.ansatz))
            want = reference_report(h, kp, cost_rep.f_value, cost_rep.penalty)
            got = report_fields(diag_report(h, kp, cost_rep.f_value, cost_rep.penalty))
            assert want["offdiag_mass"] < 1e-6
            h_frob = float(np.linalg.norm(to_dense(h)))
            for key in DENSE_FIELDS:
                assert abs(got[key] - want[key]) <= 1e-14 * h_frob, key
            assert got["bound_spec"] == pytest.approx(want["bound_spec"], rel=1e-14, abs=0.0)
            exact = set(want) - set(DENSE_FIELDS) - {"bound_spec"}
            assert {key: got[key] for key in exact} == {key: want[key] for key in exact}

    def test_holds_at_most_four_dense_matrices(self, rng):
        n = 8
        h, kp, s = random_instance(rng, n, 12)
        cost_rep = eval_F(h, kp, s)
        matrix_bytes = 16 * 4 ** n
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            diag_report(h, kp, cost_rep.f_value, cost_rep.penalty)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * matrix_bytes, f"peak {peak / matrix_bytes:.2f} matrices"

    @pytest.mark.parametrize("field", ["r", "theta", "f_value", "penalty"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, monkeypatch, field, bad):
        def dense(*args):
            raise AssertionError("dense work before the input check")

        monkeypatch.setattr(verify_mod, "_strings_to_dense", dense)
        h = PauliSum.from_words({"ZX": 1.0, "XI": 0.5})
        values = {"r": np.array([0.6, 0.8]), "theta": np.array([0.1, 0.2]),
                  "f_value": 0.5, "penalty": 0.01}
        if field in ("r", "theta"):
            values[field] = values[field].copy()
            values[field][0] = bad
        else:
            values[field] = bad
        kp = KParams((parse("II"), parse("XY")), values["r"], values["theta"])
        with pytest.raises(ValueError, match=rf"\b{field}\b.*finite"):
            diag_report(h, kp, values["f_value"], values["penalty"])
        if field in ("r", "theta"):
            with pytest.raises(ValueError, match=rf"\b{field}\b.*finite"):
                frob_error(h, kp)

    @pytest.mark.parametrize("given, missing", [("f_value", "penalty"), ("penalty", "f_value")])
    def test_cost_value_alone_is_rejected(self, given, missing):
        # one of the pair alone was discarded and both recomputed:
        # f_value=123.0 was reported as 2.47e-31
        h = PauliSum.from_words({"ZX": 1.0, "XI": 0.5})
        kp = KParams((parse("II"), parse("XY")), np.array([0.6, 0.8]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match=rf"{given} given without {missing}"):
            diag_report(h, kp, **{given: 123.0})

    def test_dense_limit_checked_before_support_tables(self, monkeypatch):
        def build_support_sets(h, ansatz):
            raise AssertionError("support tables built for an infeasible report")

        monkeypatch.setattr(verify_mod, "build_support_sets", build_support_sets)
        n = DENSE_MAX_QUBITS + 1
        h = PauliSum.from_words({"XX" + "I" * (n - 2): 1.0})
        kp = KParams((PauliString.identity(n),), np.array([1.0]), np.array([0.0]))
        with pytest.raises(DenseLimitError):
            diag_report(h, kp)

    def test_exact_diagonalizer(self):
        h = PauliSum.from_words({"Z": 0.7, "I": 0.1})
        kp = KParams((PauliString.identity(1),), np.array([1.0]), np.array([0.0]))
        rep = diag_report(h, kp)
        assert rep.frob_error == pytest.approx(0.0, abs=1e-10)
        assert rep.spec_error == pytest.approx(0.0, abs=1e-10)
        assert rep.offdiag_mass == pytest.approx(0.0, abs=1e-10)
        assert rep.unitarity_error == pytest.approx(0.0, abs=1e-10)
        assert rep.bound_spec_applicable

    def test_offdiag_mass_identity(self, rng):
        # ||offdiag(K^dag H K)||_F^2 equals f / 2^n exactly, penalty or not
        h, kp, s = random_instance(rng, 2, 4)
        rep_cost = eval_F(h, kp, s)
        rep = diag_report(h, kp, rep_cost.f_value, rep_cost.penalty)
        assert rep.offdiag_mass**2 == pytest.approx(
            rep_cost.f_value / 2**2, rel=1e-10, abs=1e-12
        )

    def test_bounds_hold(self, rng):
        for n, d in [(2, 3), (2, 4), (3, 5)]:
            h, kp, s = random_instance(rng, n, d)
            rep_cost = eval_F(h, kp, s)
            rep = diag_report(h, kp, rep_cost.f_value, rep_cost.penalty)
            assert rep.offdiag_mass <= rep.bound_offdiag + 1e-10
            if rep.bound_spec_applicable:
                assert rep.spec_error <= rep.bound_spec + 1e-10

    def test_spec_bound_small_offdiagonal_mass(self):
        # exactly unitary K with a small purely off-diagonal h: the bound's
        # leading term must be linear in the Frobenius mass, since F / 2^(n-1)
        # (quadratic in the mass) would sit at 0.04, below the true error 0.1
        h = PauliSum.from_words({"X": 0.1})
        kp = KParams((PauliString.identity(1),), np.array([1.0]), np.array([0.0]))
        rep = diag_report(h, kp)
        assert rep.bound_spec_applicable
        assert rep.spec_error == pytest.approx(0.1, rel=1e-12)
        assert rep.total / 2 ** (rep.n - 1) < rep.spec_error
        assert rep.spec_error <= rep.bound_spec + 1e-12

    def test_requires_unit_norm(self):
        h = PauliSum.from_words({"Z": 1.0})
        kp = KParams((PauliString.identity(1),), np.array([2.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="unit norm"):
            diag_report(h, kp)

    def test_qubit_mismatch(self):
        h = PauliSum.from_words({"ZZ": 1.0})
        kp = KParams((PauliString.identity(1),), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="qubit count"):
            diag_report(h, kp)

    def test_as_dict_serializable(self, rng):
        h, kp, s = random_instance(rng, 2, 3)
        rep = diag_report(h, kp)
        payload = json.dumps(rep.as_dict())
        assert "offdiag_mass" in payload


class TestFrobError:
    def test_equals_full_report(self, rng):
        for n in range(1, 8):
            for d in (3, 2 * n + 1):
                h, kp, s = random_instance(rng, n, d)
                full = diag_report(h, kp, 0.0, 0.0).frob_error
                assert frob_error(h, kp) == pytest.approx(full, rel=1e-12, abs=0.0)
        h, kp = nearly_exact_instance(rng, 5, 1e-9)
        full = diag_report(h, kp, 0.0, 0.0).frob_error
        assert frob_error(h, kp) == pytest.approx(full, rel=1e-12, abs=1e-15)

    def test_exact_diagonalizer(self):
        h = PauliSum.from_words({"ZX": 0.7, "IZ": 0.1})
        kp = KParams((parse("IY"), parse("XI")), np.array([1.0, 0.0]), np.array([0.3, 0.0]))
        assert frob_error(h, kp) == pytest.approx(2 * 0.7, rel=1e-12)

    def test_validation(self):
        h = PauliSum.from_words({"Z": 1.0})
        with pytest.raises(ValueError, match="unit norm"):
            frob_error(h, KParams((parse("I"),), np.array([2.0]), np.array([0.0])))
        with pytest.raises(ValueError, match="qubit count"):
            frob_error(PauliSum.from_words({"ZZ": 1.0}),
                       KParams((parse("I"),), np.array([1.0]), np.array([0.0])))
        with pytest.raises(DenseLimitError):
            n = DENSE_MAX_QUBITS + 1
            frob_error(PauliSum.from_words({"Z" * n: 1.0}),
                       KParams((PauliString.identity(n),), np.array([1.0]), np.array([0.0])))


def udu_instance(n, n_rot, seed=2, n_diag=12, noise=1e-2):
    """random_udu h and its known diagonalizer's strings, with r and theta
    moved by up to noise: every x lies in the span of the n_rot rotation
    strings' x masks."""
    h, u, _ = build_random_udu(n, n_diag, n_rot, seed=seed)
    items = sorted(expand_rotation_product(u).items())
    c = np.array([v for _, v in items])
    rng = np.random.default_rng(seed)
    r = np.abs(np.abs(c) + rng.uniform(-noise, noise, len(c)))
    theta = np.angle(c) + rng.uniform(-noise, noise, len(c))
    return h, KParams(tuple(p for p, _ in items), r / np.linalg.norm(r), theta)


def span_size(strings):
    """|span| of the strings' x masks over GF(2), by closing the set under XOR."""
    span = {0}
    for p in strings:
        span |= {v ^ p.x_mask for v in span}
    return len(span)


def report_blocks(h, kp):
    """(B, s) of the report's sector layout, checked to cover every index once."""
    idx = verify_mod._report_sectors(h, kp).idx
    assert np.array_equal(np.sort(idx.ravel()), np.arange(2 ** h.n))
    return idx.shape


def assert_report_near_reference(h, kp):
    cost_rep = eval_F(h, kp, build_support_sets(h, kp.ansatz))
    want = reference_report(h, kp, cost_rep.f_value, cost_rep.penalty)
    got = report_fields(diag_report(h, kp, cost_rep.f_value, cost_rep.penalty))
    assert_near_reference(h, got, want, frob=frob_error(h, kp))


class TestSectors:
    """Reports on deficient spans: H, K and every product are block diagonal
    over the cosets of the span of the x masks, B blocks of s."""

    @pytest.mark.parametrize("n, n_rot", [(6, 2), (7, 3), (8, 4), (9, 5)])
    def test_random_udu(self, n, n_rot):
        h, kp = udu_instance(n, n_rot)
        s = span_size(kp.ansatz)
        assert s == 2 ** n_rot and span_size(h.strings()) == s
        assert report_blocks(h, kp) == (2 ** n // s, s)
        assert_report_near_reference(h, kp)

    def test_ansatz_outside_hamiltonian_span(self):
        # the layout spans H's and the ansatz's x masks together
        h, kp = udu_instance(6, 2)
        s_h = span_size(h.strings())
        outside = next(PauliString(6, x, 5) for x in range(1, 64)
                       if span_size([*h.strings(), PauliString(6, x, 0)]) > s_h)
        ansatz = (*kp.ansatz, outside)
        r = np.append(kp.r, 0.1)
        kp = KParams(ansatz, r / np.linalg.norm(r), np.append(kp.theta, 0.4))
        assert report_blocks(h, kp) == (64 // (2 * s_h), 2 * s_h)
        assert_report_near_reference(h, kp)

    def test_diagonal_only(self, rng):
        # every x is 0: 2^n blocks of one entry each
        n = 5
        words = ["".join(w) for w in itertools.product("IZ", repeat=n)]
        h = PauliSum(n, [(parse(w), c) for w, c in zip(words, rng.uniform(-1, 1, len(words)))])
        ansatz = tuple(parse(w) for w in words[:6])
        r = rng.uniform(0.2, 1.0, len(ansatz))
        kp = KParams(ansatz, r / np.linalg.norm(r), rng.uniform(0, 2 * np.pi, len(ansatz)))
        assert report_blocks(h, kp) == (2 ** n, 1)
        assert_report_near_reference(h, kp)

    def test_cli_verify(self, tmp_path, capsys):
        h, kp = udu_instance(7, 3)
        save_hamiltonian(tmp_path / "h.txt", h)
        save_params(tmp_path / "params.json", kp)
        h = load_hamiltonian(tmp_path / "h.txt")
        kp = load_params(tmp_path / "params.json")
        assert report_blocks(h, kp) == (16, 8)
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "h.txt"), str(tmp_path / "params.json")]) == 0
        printed = json.loads(capsys.readouterr().out)
        cost_rep = eval_F(h, kp, build_support_sets(h, kp.ansatz))
        want = reference_report(h, kp, cost_rep.f_value, cost_rep.penalty)
        assert printed.pop("F_total") == cost_rep.total
        assert_near_reference(h, printed, want)

    def test_full_sectors_skip_the_elimination(self):
        # the full span's layout, written down directly, equals the
        # eliminated one field for field
        for n in range(1, DENSE_MAX_QUBITS + 1):
            got = verify_mod._full_sectors(n)
            want = verify_mod._sectors(n, np.int64(1) << np.arange(n, dtype=np.int64))
            for name in verify_mod._Sectors._fields:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, name)
        with pytest.raises(DenseLimitError):
            verify_mod._full_sectors(DENSE_MAX_QUBITS + 1)

    def test_string_outside_the_sectors_rejected(self):
        # qubit 0 is the most significant bit: XI has dense x mask 2
        sectors = verify_mod._sectors(2, np.array([1]))
        with pytest.raises(ValueError, match="outside"):
            verify_mod._strings_to_dense(2, [parse("XI")], [1.0], sectors)

    def test_holds_at_most_four_block_stacks(self):
        # the udu10_rcd instance: 32 blocks of 32
        n = 10
        h, kp = udu_instance(n, 5)
        nblocks, s = report_blocks(h, kp)
        assert (nblocks, s) == (32, 32)
        cost_rep = eval_F(h, kp, build_support_sets(h, kp.ansatz))
        stack_bytes = 16 * 2 ** n * s
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            diag_report(h, kp, cost_rep.f_value, cost_rep.penalty)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * stack_bytes, f"peak {peak / stack_bytes:.2f} block stacks"


class TestProjectorDistances:
    def test_identical_operators(self):
        h = PauliSum.from_words({"ZZ": 1.0, "IZ": 0.5})
        out = projector_distances(h, to_dense(h))
        assert all(dist == pytest.approx(0.0, abs=1e-10) for _, dist in out)

    def test_degenerate_clusters(self):
        h = PauliSum.from_words({"ZZ": 1.0})
        out = projector_distances(h, to_dense(h))
        assert len(out) == 2  # eigenvalues -1 and +1, multiplicity 2 each
        assert [lam for lam, _ in out] == pytest.approx([-1.0, 1.0])

    def test_first_order_perturbation(self):
        # nondegenerate diagonal h, small off-diagonal push on h_tilde
        h = PauliSum.from_words({"ZI": 1.0, "IZ": 0.4})
        hd = to_dense(h)
        delta = 1e-3
        v = dense_word("XI") + 0.5 * dense_word("IX")
        out = projector_distances(h, hd + delta * v)
        evals = np.diag(hd).real
        for k, (lam, dist) in enumerate(sorted(out)):
            idx = int(np.argmin(np.abs(evals - lam)))
            acc = 0.0
            for j in range(4):
                if j != idx:
                    acc += abs(v[j, idx]) ** 2 / (evals[idx] - evals[j]) ** 2
            expect = delta * math.sqrt(2.0 * acc)
            assert dist == pytest.approx(expect, rel=1e-2, abs=1e-9)

    def test_tie_raises(self):
        h = PauliSum.from_words({"Z": 1.0})
        with pytest.raises(ValueError, match="ambiguous|equidistant"):
            projector_distances(h, np.zeros((2, 2)))

    def test_cross_claim_raises(self):
        h = PauliSum.from_words({"I": 0.5, "Z": -0.5})  # eigenvalues 0, 1
        ht = np.diag([0.5, 100.0]).astype(complex)
        with pytest.raises(ValueError, match="claimed by"):
            projector_distances(h, ht)

    def test_dense_limit(self):
        with pytest.raises(DenseLimitError):
            projector_distances(PauliSum.identity(11), np.eye(2))

    def test_non_hermitian_h_tilde(self):
        # eigh reads only the lower triangle, so an upper-triangle change
        # went unseen and every distance read 0; rounding passes
        h = build_xxz(2, 1.0, 0.5)
        ht = to_dense(h)
        ht[0, 1] += 1e-15
        assert len(projector_distances(h, ht)) == 3
        ht[0, 1] += 1.0
        with pytest.raises(ValueError, match="h_tilde is not Hermitian"):
            projector_distances(h, ht)

    def test_h_tilde_shape(self):
        h = build_xxz(2, 1.0, 0.5)
        for bad in (np.eye(3), np.eye(4)[:, :3], np.ones(4)):
            with pytest.raises(ValueError, match="h_tilde must be a 4x4 matrix"):
                projector_distances(h, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_h_tilde(self, bad):
        h = build_xxz(2, 1.0, 0.5)
        ht = to_dense(h)
        ht[2, 2] = bad
        with pytest.raises(ValueError, match=r"h_tilde\[2, 2\] must be finite"):
            projector_distances(h, ht)

    def test_tol_degen_range(self):
        # a NaN tolerance merged every eigenvalue into one cluster
        h = PauliSum.from_words({"ZZ": 1.0})
        assert len(projector_distances(h, to_dense(h), tol_degen=0.0)) == 2
        for bad in (np.nan, np.inf, -1e-3):
            with pytest.raises(ValueError, match="tol_degen must be a finite number >= 0"):
                projector_distances(h, to_dense(h), tol_degen=bad)


def pairwise_closure(generators, cap):
    """Reference closure: the pairwise loop over PauliString objects that
    lie_closure_dim replaced, one commutes/multiply call per pair."""
    queue = sorted({g for g in generators if not g.is_identity})[:cap]
    if not queue:
        return LieClosure(0, False)
    known = set(queue)
    if len(queue) >= cap:
        return LieClosure(cap, True)
    i = 0
    while i < len(queue):
        for j in range(i):
            if commutes(queue[i], queue[j]):
                continue
            _, c = multiply(queue[i], queue[j])
            if c not in known:
                known.add(c)
                queue.append(c)
                if len(queue) >= cap:
                    return LieClosure(cap, True)
        i += 1
    return LieClosure(len(queue), False)


def random_generators(rng, n):
    count = int(rng.integers(1, 2 * n + 2))
    return [PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            for _ in range(count)]


class TestLieClosure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_pairwise_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(12):
            gens = random_generators(rng, n)
            assert lie_closure_dim(gens, 4 ** n) == pairwise_closure(gens, 4 ** n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_pairwise_reference_under_binding_cap(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(12):
            gens = random_generators(rng, n)
            full = lie_closure_dim(gens, 4 ** n).dim
            if full == 0:
                continue
            cap = int(rng.integers(1, min(full, 40) + 1))
            want = pairwise_closure(gens, cap)
            assert want.hit_cap
            assert lie_closure_dim(gens, cap) == want

    def test_single_generator(self):
        assert lie_closure_dim([parse("X")], cap=16) == LieClosure(1, False)

    def test_su2(self):
        out = lie_closure_dim([parse("X"), parse("Z")], cap=16)
        assert out == LieClosure(3, False)

    def test_identity_stripped(self):
        assert lie_closure_dim([parse("I")], cap=16).dim == 0
        assert lie_closure_dim([parse("I"), parse("X")], cap=16).dim == 1

    def test_cap(self):
        out = lie_closure_dim([parse("X"), parse("Z")], cap=2)
        assert out == LieClosure(2, True)

    def test_monotone_in_generators(self):
        base = [parse("XX"), parse("ZI")]
        bigger = base + [parse("IZ")]
        assert (
            lie_closure_dim(bigger, cap=256).dim
            >= lie_closure_dim(base, cap=256).dim
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="generator"):
            lie_closure_dim([], cap=4)
        with pytest.raises(ValueError, match="share"):
            lie_closure_dim([parse("X"), parse("XX")], cap=4)
        with pytest.raises(ValueError, match="cap"):
            lie_closure_dim([parse("X")], cap=0)

    def test_generating_set_n3(self):
        assert generating_set_check(3)

    def test_generating_set_n6(self):
        assert generating_set_check(6)

    def test_reduced_set_falls_short(self):
        # same family as generating_set_check(3) minus X on qubit 0
        gens = [parse("ZII"), parse("IZI"), parse("IXI"), parse("ZZI"),
                parse("IXZ"), parse("IZX")]
        out = lie_closure_dim(gens, cap=64)
        assert out.dim < 63 and not out.hit_cap

    def test_generating_set_range(self):
        with pytest.raises(ValueError):
            generating_set_check(2)
        with pytest.raises(ValueError):
            generating_set_check(7)
