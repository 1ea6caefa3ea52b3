import math
import warnings

import numpy as np
import pytest

from paulidiag.cost import eval_F
from paulidiag.models import (
    RotationProduct,
    build_example_hams,
    build_hubbard,
    build_random_udu,
    build_xxz,
    conjugate_by_rotation,
    expand_rotation_product,
    warm_start_from_dense,
)
from paulidiag.operators import PauliSum, build_support_sets
from paulidiag.pauli import PauliString, commutes, parse
from paulidiag.verify import DenseLimitError, diag_report, to_dense

from conftest import dense_terms, dense_word, k_as_sum


def dense_rotation(rp: RotationProduct) -> np.ndarray:
    """Independent dense product of rotation factors, leftmost first."""
    dim = 2**rp.n
    acc = np.eye(dim, dtype=complex)
    for angle, p in rp:
        factor = math.cos(angle) * np.eye(dim) + 1j * math.sin(angle) * dense_word(p.word)
        acc = acc @ factor
    return acc


class TestXXZ:
    def test_two_sites(self):
        h = build_xxz(2, 1.0, 1.0)
        assert h == PauliSum.from_words({"XX": 1.0, "YY": 1.0, "ZZ": 1.0})

    def test_term_count_and_coeffs(self):
        h = build_xxz(4, 0.5, -0.3)
        assert len(h) == 9
        assert h.coefficient(parse("IXXI")) == 0.5
        assert h.coefficient(parse("IIZZ")) == -0.3
        assert h.is_hermitian()

    def test_dense_matches_oracle(self):
        h = build_xxz(3, 1.0, 0.7)
        words = {
            "XXI": 1.0, "YYI": 1.0, "ZZI": 0.7,
            "IXX": 1.0, "IYY": 1.0, "IZZ": 0.7,
        }
        np.testing.assert_allclose(to_dense(h), dense_terms(words, 3), atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_xxz(1, 1.0, 1.0)


class TestHubbard:
    def test_two_sites_exact(self):
        h = build_hubbard(2, 1.0, 4.0)
        assert len(h) == 10
        for w in ("XIXI", "IXIX", "YIYI", "IYIY"):
            assert h.coefficient(parse(w)) == -0.5
        for w in ("ZIII", "IZII", "IIZI", "IIIZ"):
            assert h.coefficient(parse(w)) == -1.0
        for w in ("ZZII", "IIZZ"):
            assert h.coefficient(parse(w)) == 1.0

    def test_single_site(self):
        h = build_hubbard(1, 1.0, 4.0)
        assert len(h) == 3

    def test_term_count(self):
        sites = 3
        h = build_hubbard(sites, 0.7, 2.0)
        assert len(h) == 4 * (sites - 1) + 3 * sites

    def test_spin_swap_symmetry(self):
        h = build_hubbard(2, 1.0, 6.0)
        swapped = {}
        for p, c in h.items():
            w = p.word
            # exchange up/down qubits within each site: (0,1) and (2,3)
            swapped["".join(w[i ^ 1] for i in range(4))] = c
        assert h == PauliSum.from_words(swapped)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_hubbard(0, 1.0, 1.0)


class TestRotationProduct:
    def test_empty_expansion(self):
        assert expand_rotation_product(RotationProduct(2, ())) == PauliSum.identity(2)

    def test_single_factor(self):
        rp = RotationProduct(1, ((math.pi / 4, parse("X")),))
        s = expand_rotation_product(rp)
        half = math.sqrt(2) / 2
        assert s.coefficient(parse("I")) == pytest.approx(half)
        assert s.coefficient(parse("X")) == pytest.approx(1j * half)

    def test_two_factors_dense(self):
        rp = RotationProduct(2, ((0.3, parse("XZ")), (0.8, parse("ZY"))))
        np.testing.assert_allclose(
            to_dense(expand_rotation_product(rp)), dense_rotation(rp), atol=1e-12
        )

    def test_expansion_unitary(self):
        rp = RotationProduct(2, ((0.3, parse("XZ")), (0.8, parse("ZY")), (-1.1, parse("YI"))))
        u = to_dense(expand_rotation_product(rp))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_qubit_count_validation(self):
        with pytest.raises(ValueError):
            RotationProduct(2, ((0.1, parse("X")),))


class TestConjugateByRotation:
    def test_commuting_passthrough(self):
        a = PauliSum.from_words({"ZZ": 0.7})
        out = conjugate_by_rotation(a, 0.4, parse("ZI"))
        assert out == a

    def test_anticommuting_dense(self):
        a = PauliSum.from_words({"XI": 0.9, "ZZ": -0.2})
        angle, p = 0.37, parse("ZY")
        out = conjugate_by_rotation(a, angle, p)
        dim = 4
        rot = math.cos(angle) * np.eye(dim) + 1j * math.sin(angle) * dense_word("ZY")
        expect = rot @ dense_terms({"XI": 0.9, "ZZ": -0.2}, 2) @ rot.conj().T
        np.testing.assert_allclose(to_dense(out), expect, atol=1e-12)

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError):
            conjugate_by_rotation(PauliSum.identity(2), 0.1, parse("X"))


class TestRandomUDU:
    def test_no_rotations(self):
        h, u, d = build_random_udu(3, 4, 0, seed=1)
        assert len(u) == 0
        assert h == d

    def test_dense_conjugation_matches(self):
        for seed in (0, 1, 2):
            h, u, d = build_random_udu(3, 4, 2, seed=seed)
            ud = dense_rotation(u)
            np.testing.assert_allclose(
                to_dense(h), ud @ to_dense(d) @ ud.conj().T, atol=1e-12
            )

    def test_spectrum_preserved(self):
        h, _, d = build_random_udu(4, 5, 3, seed=7)
        got = np.linalg.eigvalsh(to_dense(h))
        expect = np.sort(np.diag(to_dense(d)).real)
        np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_hermitian_and_counts(self):
        h, u, d = build_random_udu(3, 4, 2, seed=3)
        assert h.is_hermitian()
        assert len(d) == 4
        assert len(u) == 2
        assert len(h) <= 4 * 2**2
        assert all(p.is_diagonal for p in d.strings())
        assert all(not p.is_diagonal for _, p in u)

    def test_determinism(self):
        h1, _, _ = build_random_udu(3, 4, 2, seed=11)
        h2, _, _ = build_random_udu(3, 4, 2, seed=11)
        assert h1 == h2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_random_udu(2, 0, 1, seed=0)
        with pytest.raises(ValueError):
            build_random_udu(2, 5, 1, seed=0)
        with pytest.raises(ValueError):
            build_random_udu(2, 2, -1, seed=0)

    @pytest.mark.parametrize("n", [0, 25, 64, 1000000000, 437343046872964])
    def test_qubit_count_checked_before_any_power_of_two(self, n):
        with pytest.raises(ValueError, match=f"qubit count {n} outside"):
            build_random_udu(n, 2, 2, seed=0)

    def test_more_rotations_than_strings(self):
        # (2^n - 1) 2^n distinct non-diagonal strings exist; one more used to
        # loop forever drawing them
        h, u, _ = build_random_udu(1, 1, 2, seed=0)
        assert sorted(p.word for _, p in u) == ["X", "Y"]
        assert len(build_random_udu(2, 1, 12, seed=0)[1]) == 12
        with pytest.raises(ValueError, match="only 2 non-diagonal strings exist on 1 qubits"):
            build_random_udu(1, 1, 3, seed=0)
        with pytest.raises(ValueError, match="only 12 non-diagonal"):
            build_random_udu(2, 1, 13, seed=0)


def valid_example_args(n=3, rng=None):
    rng = rng or np.random.default_rng(5)
    c = rng.uniform(0.3, 1.0, n + 1)
    c /= np.linalg.norm(c)
    d = rng.uniform(0.5, 1.5, n)
    return dict(n=n, theta=0.7, c=c, d=d)


class TestExampleHams:
    def test_unitary(self):
        _, u, _ = build_example_hams(**valid_example_args())
        ud = to_dense(u)
        np.testing.assert_allclose(ud @ ud.conj().T, np.eye(8), atol=1e-10)

    def test_identity_coefficient(self):
        args = valid_example_args()
        _, u, _ = build_example_hams(**args)
        expect = 1j * args["c"][2] * math.sin(args["theta"])
        assert u.coefficient(PauliString.identity(3)) == pytest.approx(expect)

    def test_conjugation_dense(self):
        h, u, d = build_example_hams(**valid_example_args())
        ud, dd = to_dense(u), to_dense(d)
        np.testing.assert_allclose(to_dense(h), ud @ dd @ ud.conj().T, atol=1e-10)
        assert h.is_hermitian()

    def test_generators_anticommute(self):
        n = 4
        gens = [parse("XYII"), parse("ZYII"), parse("IZII"), parse("IXZI"), parse("IXYZ")]
        for i in range(len(gens)):
            for j in range(i):
                assert not commutes(gens[i], gens[j])

    def test_support_contains_y_family(self):
        h, _, _ = build_example_hams(**valid_example_args())
        support = set(h.strings())
        for w in ("YII", "IYI", "IIY"):
            assert parse(w) in support

    def test_rotation_prefix_gives_full_closure(self):
        from paulidiag.verify import lie_closure_dim

        h, _, _ = build_example_hams(
            **valid_example_args(), clifford_prefix=[("rot", 0.4, "XII")]
        )
        assert lie_closure_dim(list(h.strings()), cap=64).dim == 63

    def test_prefix_gates(self):
        args = valid_example_args()
        prefix = [("h", 0), ("cnot", 0, 1), ("s", 2), ("rot", 0.3, "XIZ")]
        h, u, d = build_example_hams(**args, clifford_prefix=prefix)
        ud = to_dense(u)
        np.testing.assert_allclose(ud @ ud.conj().T, np.eye(8), atol=1e-10)
        np.testing.assert_allclose(to_dense(h), ud @ to_dense(d) @ ud.conj().T, atol=1e-10)

    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ValueError, match="control and target"):
            build_example_hams(**valid_example_args(), clifford_prefix=[("cnot", 2, 2)])

    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="gate"):
            build_example_hams(**valid_example_args(), clifford_prefix=[("t", 0)])

    def test_validation(self):
        args = valid_example_args()
        with pytest.raises(ValueError, match="n >= 3"):
            build_example_hams(2, 0.7, args["c"][:3], args["d"][:2])
        with pytest.raises(ValueError, match="unit square sum"):
            build_example_hams(3, 0.7, args["c"] * 1.2, args["d"])
        bad_c = args["c"].copy()
        bad_c[1] = 0.0
        bad_c /= np.linalg.norm(bad_c)
        with pytest.raises(ValueError, match="nonzero"):
            build_example_hams(3, 0.7, bad_c, args["d"])
        with pytest.raises(ValueError, match="theta"):
            build_example_hams(3, math.pi, args["c"], args["d"])
        bad_d = args["d"].copy()
        bad_d[0] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            build_example_hams(3, 0.7, args["c"], bad_d)
        with pytest.raises(ValueError, match="entries"):
            build_example_hams(3, 0.7, args["c"][:3], args["d"])


    def test_large_d_stays_hermitian(self):
        # the exact expansion's imaginary rounding grows with d: at 1e6 it
        # passed HERMITIAN_TOL and build_support_sets rejected the model
        args = valid_example_args()
        d = args["d"].copy()
        d[0] = 1e6
        h, u, d_sum = build_example_hams(3, 0.7, args["c"], d)
        assert h.is_hermitian()
        build_support_sets(h, tuple(u.strings()))
        ud = to_dense(u)
        np.testing.assert_allclose(to_dense(h), ud @ to_dense(d_sum) @ ud.conj().T,
                                   atol=1e-9 * 1e6)

    def test_overflowing_square_sum_is_rejected_without_warning(self):
        args = valid_example_args()
        c = args["c"].copy()
        c[0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unit square sum"):
                build_example_hams(3, 0.7, c, args["d"])


class TestWarmStart:
    def test_diagonal_hamiltonian(self):
        h = PauliSum.from_words({"ZI": 1.0, "IZ": 0.3})
        kp = warm_start_from_dense(h)
        s = build_support_sets(h, kp.ansatz)
        rep = eval_F(h, kp, s)
        assert rep.total == pytest.approx(0.0, abs=1e-20)

    def test_reconstruction_unitary(self):
        h = build_xxz(3, 1.0, 0.8)
        kp = warm_start_from_dense(h)
        kd = to_dense(k_as_sum(kp))
        np.testing.assert_allclose(kd @ kd.conj().T, np.eye(8), atol=1e-10)
        assert kp.r_norm == pytest.approx(1.0, abs=1e-12)

    def test_table_initial_error(self):
        target = build_xxz(4, 1.0, 1.0)
        kp = warm_start_from_dense(build_xxz(4, 1.0, 0.8))
        rep = diag_report(target, kp)
        assert rep.frob_error == pytest.approx(0.8001, abs=5e-4)

    def test_prune_shrinks_ansatz(self):
        h = build_xxz(3, 1.0, 0.8)
        full = warm_start_from_dense(h)
        pruned = warm_start_from_dense(h, prune_tol=0.05)
        assert pruned.d < full.d
        assert pruned.r_norm == pytest.approx(1.0, abs=1e-12)

    def test_dense_limit(self):
        with pytest.raises(DenseLimitError):
            warm_start_from_dense(PauliSum.identity(13))
