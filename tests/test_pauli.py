import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulidiag.pauli import (
    MAX_QUBITS,
    PHASES,
    PauliParseError,
    PauliString,
    commutes,
    echelon,
    echelon_reduce,
    multiply,
    multiply_masks,
    pack_keys,
    parse,
    string_masks,
    symplectic_masks,
    unpack_keys,
)

from conftest import dense_word, gf2_span


def words(n):
    return ("".join(w) for w in itertools.product("IXYZ", repeat=n))


@st.composite
def pauli_strings(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    return PauliString(n, draw(st.integers(0, full)), draw(st.integers(0, full)))


def pauli_pairs(n_max=6):
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(pauli_strings(n=n), pauli_strings(n=n))
    )


class TestParseFormat:
    def test_round_trip(self):
        for w in ("I", "X", "XIZY", "ZZZZZZ"):
            assert parse(w).word == w

    def test_qubit0_is_lowest_bit(self):
        p = parse("XIZ")
        assert p.x_mask == 0b001
        assert p.z_mask == 0b100

    def test_length_check(self):
        with pytest.raises(PauliParseError):
            parse("XY", n=3)

    def test_bad_letter_position(self):
        with pytest.raises(PauliParseError) as e:
            parse("XIQZ")
        assert e.value.pos == 2

    def test_empty(self):
        with pytest.raises(PauliParseError):
            parse("")

    def test_too_long(self):
        with pytest.raises(PauliParseError):
            parse("I" * (MAX_QUBITS + 1))

    def test_from_ops(self):
        assert PauliString.from_ops(4, {0: "X", 2: "Z"}).word == "XIZI"
        with pytest.raises(ValueError):
            PauliString.from_ops(2, {5: "X"})
        with pytest.raises(ValueError):
            PauliString.from_ops(2, {0: "Q"})

    def test_mask_range_validation(self):
        with pytest.raises(ValueError):
            PauliString(2, 1 << 2, 0)
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)


class TestMultiply:
    # single-qubit table, frozen by hand from XY = iZ and cyclic friends
    CASES = [
        ("X", "Y", 1, "Z"),
        ("Y", "X", 3, "Z"),
        ("Y", "Z", 1, "X"),
        ("Z", "Y", 3, "X"),
        ("Z", "X", 1, "Y"),
        ("X", "Z", 3, "Y"),
        ("X", "X", 0, "I"),
        ("Y", "Y", 0, "I"),
        ("Z", "Z", 0, "I"),
        ("I", "Y", 0, "Y"),
    ]

    @pytest.mark.parametrize("a,b,k,c", CASES)
    def test_single_qubit_table(self, a, b, k, c):
        ph, prod = multiply(parse(a), parse(b))
        assert (ph, prod.word) == (PHASES[k], c)

    def test_xz_times_yx(self):
        # frozen from the dense 4x4 oracle: (XZ)(YX) = -(ZY)
        ph, prod = multiply(parse("XZ"), parse("YX"))
        assert ph == -1
        assert prod.word == "ZY"
        expect = dense_word("XZ") @ dense_word("YX")
        np.testing.assert_allclose(ph * dense_word(prod.word), expect, atol=1e-15)

    def test_dense_equivalence_exhaustive_n2(self):
        for wa in words(2):
            for wb in words(2):
                ph, prod = multiply(parse(wa), parse(wb))
                got = ph * dense_word(prod.word)
                np.testing.assert_allclose(
                    got, dense_word(wa) @ dense_word(wb), atol=1e-15
                )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(parse("X"), parse("XX"))

    @given(pauli_pairs())
    def test_involution(self, pair):
        a, _ = pair
        ph, prod = multiply(a, a)
        assert ph == 1
        assert prod.is_identity

    @settings(max_examples=150)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(pauli_strings(n=n), pauli_strings(n=n), pauli_strings(n=n))
    ))
    def test_associativity(self, triple):
        a, b, c = triple
        p1, ab = multiply(a, b)
        p2, ab_c = multiply(ab, c)
        q1, bc = multiply(b, c)
        q2, a_bc = multiply(a, bc)
        assert ab_c == a_bc
        assert p1 * p2 == q1 * q2

    @settings(max_examples=100)
    @given(pauli_pairs(n_max=3))
    def test_dense_equivalence_sampled(self, pair):
        a, b = pair
        ph, prod = multiply(a, b)
        np.testing.assert_allclose(
            ph * dense_word(prod.word),
            dense_word(a.word) @ dense_word(b.word),
            atol=1e-14,
        )


@st.composite
def y_heavy_strings(draw, n):
    # every bit of y carries Y; sparse extra X and Z bits on top
    full = (1 << n) - 1
    y = draw(st.integers(0, full))
    extra_x = draw(st.integers(0, full)) & draw(st.integers(0, full))
    extra_z = draw(st.integers(0, full)) & draw(st.integers(0, full))
    return PauliString(n, y | extra_x, y | extra_z)


def assert_masks_match_multiply(pairs):
    """multiply_masks on the stacked pairs equals multiply pair by pair."""
    ax, az, bx, bz = (
        np.array([getattr(p[side], mask) for p in pairs], dtype=np.int64)
        for side, mask in ((0, "x_mask"), (0, "z_mask"), (1, "x_mask"), (1, "z_mask"))
    )
    k, cx, cz = multiply_masks(ax, az, bx, bz)
    for (a, b), ki, xi, zi in zip(pairs, k.tolist(), cx.tolist(), cz.tolist()):
        ph, c = multiply(a, b)
        assert (PHASES[ki], xi, zi) == (ph, c.x_mask, c.z_mask), (a, b)


class TestMultiplyMasks:
    def test_all_single_qubit_pairs(self):
        strings = [parse(w) for w in words(1)]
        assert_masks_match_multiply([(a, b) for a in strings for b in strings])

    @settings(max_examples=60)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.tuples(y_heavy_strings(n), y_heavy_strings(n)), min_size=1, max_size=20
    )))
    def test_y_heavy(self, pairs):
        assert_masks_match_multiply(pairs)

    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(pauli_strings(n=MAX_QUBITS), pauli_strings(n=MAX_QUBITS)),
        min_size=1, max_size=20,
    ))
    def test_full_width_masks(self, pairs):
        # the top qubit carrying X sets bit 47 of the packed key x << 24 | z
        full = (1 << MAX_QUBITS) - 1
        top = PauliString(MAX_QUBITS, full, full)
        assert_masks_match_multiply(pairs + [(top, top), (top, pairs[0][0])])

    def test_broadcast_is_row_major_outer_product(self):
        a = [parse(w) for w in ("XYZ", "YYI", "IZX")]
        b = [parse(w) for w in ("ZZZ", "XIY")]
        ax = np.array([p.x_mask for p in a], dtype=np.int64)
        az = np.array([p.z_mask for p in a], dtype=np.int64)
        bx = np.array([p.x_mask for p in b], dtype=np.int64)
        bz = np.array([p.z_mask for p in b], dtype=np.int64)
        k, cx, cz = multiply_masks(ax[:, None], az[:, None], bx, bz)
        assert k.shape == cx.shape == cz.shape == (3, 2)
        for i, pa in enumerate(a):
            for j, pb in enumerate(b):
                ph, c = multiply(pa, pb)
                assert (PHASES[k[i, j]], cx[i, j], cz[i, j]) == (ph, c.x_mask, c.z_mask)


class TestCommutes:
    def test_examples(self):
        assert commutes(parse("XX"), parse("ZZ"))
        assert not commutes(parse("XI"), parse("ZI"))
        assert commutes(parse("XI"), parse("IZ"))

    def test_dense_equivalence_exhaustive_n2(self):
        for wa in words(2):
            for wb in words(2):
                da, db = dense_word(wa), dense_word(wb)
                dense_comm = np.allclose(da @ db, db @ da, atol=1e-14)
                assert commutes(parse(wa), parse(wb)) == dense_comm

    @given(pauli_pairs())
    def test_swap_phase_consistency(self, pair):
        # ab = +-ba: the product phases differ in sign exactly when they anticommute
        a, b = pair
        pab, _ = multiply(a, b)
        pba, _ = multiply(b, a)
        assert pab == (pba if commutes(a, b) else -pba)

    @given(st.lists(pauli_pairs(n_max=MAX_QUBITS), min_size=1, max_size=20))
    def test_symplectic_masks_is_anticommutation(self, pairs):
        a, b = (string_masks(side) for side in zip(*pairs))
        assert symplectic_masks(*a, *b).tolist() == [int(not commutes(p, q)) for p, q in pairs]


class TestEchelon:
    @given(st.lists(st.integers(0, 1023), max_size=14), st.integers(0, 1023),
           st.integers(0, 38))
    def test_rank_and_reduction(self, vectors, other, shift):
        # shifts up to 38 reach bit 47, the top bit of a packed key
        span = gf2_span(vectors)
        basis = echelon(np.array(vectors, dtype=np.int64) << shift)
        assert basis.dtype == np.int64 and 2 ** len(basis) == len(span)
        lead = [int(b).bit_length() - 1 for b in basis]
        assert lead == sorted(set(lead), reverse=True)
        reduced = echelon_reduce(np.array(vectors + [other], dtype=np.int64) << shift, basis)
        assert not reduced[:-1].any() and (reduced[-1] == 0) == (other in span)


class TestStringBasics:
    def test_is_diagonal(self):
        assert parse("IZ").is_diagonal
        assert not parse("XZ").is_diagonal
        assert not parse("YI").is_diagonal
        assert PauliString.identity(3).is_diagonal

    def test_weight(self):
        assert parse("IXYZ").weight == 3
        assert PauliString.identity(2).weight == 0

    def test_hash_and_order(self):
        ps = sorted({parse(w) for w in words(2)})
        assert len(ps) == 16
        assert ps[0].is_identity
        assert ps == sorted(ps)

    def test_repr(self):
        assert "XZ" in repr(parse("XZ"))


class TestPackedKeys:
    @given(st.lists(pauli_strings(n=MAX_QUBITS), min_size=1, max_size=30))
    def test_round_trip_and_order(self, strings):
        keys = pack_keys(*string_masks(strings))
        assert keys.dtype == np.int64
        # int32 masks and single strings pack to the same keys
        int32 = (m.astype(np.int32) for m in string_masks(strings))
        np.testing.assert_array_equal(pack_keys(*int32), keys)
        assert [pack_keys(p.x_mask, p.z_mask) for p in strings] == keys.tolist()
        x, z = unpack_keys(keys)
        assert [PauliString(MAX_QUBITS, xi, zi)
                for xi, zi in zip(x.tolist(), z.tolist())] == strings
        # sorted keys give sorted strings
        assert [strings[i] for i in np.argsort(keys, kind="stable")] == sorted(strings)
