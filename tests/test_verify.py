import itertools
import math
import tracemalloc

import numpy as np
import pytest

from paulidiag.cost import KParams, eval_F, k_as_sum
from paulidiag.operators import PauliSum, build_support_sets
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
    string_to_dense,
    to_dense,
)

from conftest import dense_terms, dense_word, random_instance


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


def reference_report(h, kp, f_value, penalty):
    """The eleven report fields by the direct formula: every dense product
    formed as written, with explicit conjugate copies of K, np.diag and
    np.eye. diag_report must match it while holding fewer matrices."""
    dim = 2 ** h.n
    hd = to_dense(h)
    k = kparams_to_dense(kp)
    g = k.conj().T @ hd @ k
    diag = np.diag(g).real
    delta = g - np.diag(diag)
    h_tilde = (k * diag) @ k.conj().T
    diff = hd - h_tilde
    total = f_value + penalty
    eps = dim * penalty
    bound_offdiag = math.sqrt(max(total, 0.0) / dim)
    h_frob = float(np.linalg.norm(hd))
    return {
        "n": h.n,
        "f_value": f_value,
        "penalty": penalty,
        "frob_error": float(np.linalg.norm(diff)),
        "spec_error": float(np.max(np.abs(np.linalg.eigvalsh(diff)))),
        "unitarity_error": float(np.linalg.norm(k.conj().T @ k - np.eye(dim))),
        "offdiag_mass": float(np.linalg.norm(delta)),
        "bound_offdiag": bound_offdiag,
        "eps": float(eps),
        "bound_spec": 2.0 * bound_offdiag
        + 6.0 * (1.0 + math.sqrt(max(total, 0.0))) * h_frob * math.sqrt(max(eps, 0.0)),
        "bound_spec_applicable": bool(eps <= 0.25),
    }


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
        # diagonal of K'HK is a visible part of it and must be kept
        for n in range(1, 8):
            h, kp = nearly_exact_instance(rng, n, noise)
            cost_rep = eval_F(h, kp, build_support_sets(h, kp.ansatz))
            want = reference_report(h, kp, cost_rep.f_value, cost_rep.penalty)
            got = report_fields(diag_report(h, kp, cost_rep.f_value, cost_rep.penalty))
            assert want["offdiag_mass"] < 1e-6
            assert got == want

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
        import json

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
