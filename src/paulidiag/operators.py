"""Sparse Pauli-sum operators and support sets for the diagonalization cost.

A PauliSum stores A = sum_P c_P P as {PauliString: complex}. Traces follow the
unnormalized convention tr(A P) = 2^n c_P.

build_support_sets checks a Hamiltonian H and an ansatz list (P_1..P_d)
and returns their SupportSets, which hold everything the cost evaluator
needs. Its derived fields come in three groups, each built on the first
read of any of its fields (the maps' build reads the span): the span
of the ansatz (the inputs of cost's path rule, from the masks alone; the
whole group in its natural basis where the ansatz spans it), the blocks
and maps of the two matrix paths, dense (the whole group) and algebra (a
smaller span; see the notes on the algebra below), and the product
tables, which cost._table_values is the one routine to evaluate. A run on
either matrix path builds no product table. The product tables (built by
the table path's first evaluation or by IncrementalState) are:

* g1: the off-diagonal strings that can appear in K'HK (ansatz closure),
* g2: the non-identity products P_i P_j,
* two row-major product grids, H P_b and P_a [HK | K], each a flat phase
  and target-slot table, so that cost's values are bincount accumulations
  and its gradients row gathers instead of per-term dict arithmetic.

The build works on mask arrays and never forms a PauliString: each grid's
phases are one broadcast of pauli.multiply_masks, and the string tables
(hk_strings, closure, g1, g2) are sorted arrays of packed int64 keys
(pauli.pack_keys; pauli.unpack_keys decodes them), a product's key being
the XOR of its factors'. Key order is PauliString order, so every table is
independent of how the products are computed, and the diagonal strings
sort first, which makes g1 the closure's suffix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .pauli import (MAX_QUBITS, PHASES, PauliString, multiply, multiply_masks, pack_keys,
                    parse, string_masks, unpack_keys)

PRUNE_TOL = 1e-14
HERMITIAN_TOL = 1e-12


class PauliSum:
    """Sparse complex combination of Pauli strings on a fixed qubit count."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        acc: dict[PauliString, complex] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for p, c in items:
                if p.n != n:
                    raise ValueError(f"term on {p.n} qubits in a {n}-qubit sum")
                c = complex(c)
                if not cmath.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c} on {p.word}")
                if p in acc:
                    acc[p] += c
                else:
                    acc[p] = c
        self._terms = {p: c for p, c in acc.items() if abs(c) >= PRUNE_TOL}

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n, [(PauliString.identity(n), coeff)])

    @classmethod
    def from_words(cls, terms: dict[str, complex]) -> "PauliSum":
        words = list(terms)
        if not words:
            raise ValueError("cannot infer qubit count from an empty term map")
        n = len(words[0])
        return cls(n, [(parse(w, n), c) for w, c in terms.items()])

    def items(self):
        return self._terms.items()

    def strings(self):
        return self._terms.keys()

    def coefficient(self, p: PauliString) -> complex:
        return self._terms.get(p, 0j)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, p: PauliString) -> bool:
        return p in self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliSum)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        acc = dict(self._terms)
        for p, c in other._terms.items():
            acc[p] = acc.get(p, 0j) + c
        return PauliSum(self.n, acc)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        scalar = complex(scalar)
        return PauliSum(self.n, {p: c * scalar for p, c in self._terms.items()})

    __rmul__ = __mul__

    def adjoint(self) -> "PauliSum":
        """Hermitian conjugate; strings are self-adjoint so only coefficients flip."""
        return PauliSum(self.n, {p: c.conjugate() for p, c in self._terms.items()})

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n}, terms={len(self._terms)})"


def sum_multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Operator product a*b, merged and pruned. O(len(a)*len(b)) term products."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    acc: dict[PauliString, complex] = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            ph, s = multiply(pa, pb)
            acc[s] = acc.get(s, 0j) + ca * cb * ph
    return PauliSum(a.n, acc)


# --- Hamiltonian text files -------------------------------------------------
#
# One term per line: "<real coefficient> <pauli word>". '#' starts a comment,
# blank lines are skipped, duplicate words merge.


def load_hamiltonian(path) -> PauliSum:
    terms: dict[PauliString, complex] = {}
    n = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected '<coefficient> <word>', got {raw.strip()!r}"
                )
            try:
                coeff = float(fields[0])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: bad coefficient {fields[0]!r}"
                ) from None
            if not math.isfinite(coeff):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite coefficient {fields[0]!r}"
                )
            try:
                p = parse(fields[1], n)
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
            n = p.n
            terms[p] = terms.get(p, 0j) + coeff
    if n is None:
        raise ValueError(f"{path}: no terms found")
    h = PauliSum(n, terms)
    if len(h) == 0:
        raise ValueError(f"{path}: every coefficient is zero or cancels")
    return h


def save_hamiltonian(path, h: PauliSum) -> None:
    lines = []
    for p, c in sorted(h.items()):
        if abs(c.imag) > HERMITIAN_TOL:
            raise ValueError(f"non-real coefficient {c} on {p.word}")
        lines.append(f"{c.real!r} {p.word}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- support sets -----------------------------------------------------------


@dataclass(eq=False)
class SupportSets:
    """Closure data for a fixed (H, ansatz) pair. Identity semantics: two
    builds from equal inputs are distinct objects (a generated equality
    would compare the array fields elementwise, which has no truth value).

    closure holds the strings of K'HK, the conjugation closure
    {strip(P_a Q_i P_b)}; the coefficient of any string outside it is
    identically zero in K'HK, whatever the parameters. It is the key set
    of P_a * hk_s over the d x |hk| grid. g1 holds its off-diagonal
    strings, and g2 the non-identity pair products P_i P_j, the strings
    phi_P is defined on. Every string table is sorted (PauliString order);
    the diagonal strings sort first, so g1 is the closure's suffix, the
    index range [len(closure) - len(g1), len(closure)).

    The tables are two row-major product grids, each a flat phase table plus
    a flat target-slot array:

    * hk: entry (i, b) is h_strings[i] * P_b, at i * d + b, slot in hk_strings;
    * khk: the (d, |hk| + d) grid of K'[HK | K]. With Y = hk_strings ++
      ansatz and y = [hk | k] their coefficients, entry (a, s) is
      P_a * Y_s = i^m P, at a * (|hk| + d) + s. Its slot is P's index in
      [closure | identity | g2]: the first |hk| columns make K'HK, the last
      d make K'K. Its phase table is a selector, m * (|hk| + d) + s, into the
      flat (4, |hk| + d) table [y, i y, -y, -i y], so the grid's rows
      W[a, s] = i^m y_s are one take.

    HK's coefficients are complex (HK is not Hermitian); K'HK and K'K are
    Hermitian, so entry (a, s) of khk adds the real Re(conj(k_a) W[a, s])
    to its slot. Row j of khk holds every term the partials in r_j and
    theta_j read; slot_scale weights each slot there (4 4^n on g1, 4 on g2,
    0 on the diagonal closure strings and the identity). All of this
    arithmetic is cost._table_values'; the class holds the tables only.

    build_support_sets sets n, ansatz, h_ref, h_strings and h_coeffs. The
    derived fields come in three groups, each built together on the first
    read of any of its fields and a plain instance attribute from then on:
    the nine product tables (_TABLES: the four string tables, the grids and
    slot_scale) by _product_tables, for example on the first table-path
    evaluation or by IncrementalState; the four span fields (_SPAN) by
    _span_tables, on cost's first path choice or on the first read of an
    algebra field; and the maps both matrix paths read (_ALGEBRA) by
    _algebra_tables, on the first dense-path or algebra-path evaluation.
    """

    n: int
    ansatz: tuple[PauliString, ...]

    # fixed Hamiltonian data
    h_ref: PauliSum = field(repr=False)
    h_strings: tuple[PauliString, ...] = field(repr=False)
    h_coeffs: np.ndarray = field(repr=False)

    # the string tables as packed keys: H*K product support, closure, g1, g2
    hk_strings: np.ndarray = field(init=False, repr=False)
    closure: np.ndarray = field(init=False, repr=False)
    g1: np.ndarray = field(init=False, repr=False)
    g2: np.ndarray = field(init=False, repr=False)

    # the product grids
    hk_phase: np.ndarray = field(init=False, repr=False)
    hk_tgt: np.ndarray = field(init=False, repr=False)
    khk_sel: np.ndarray = field(init=False, repr=False)
    khk_tgt: np.ndarray = field(init=False, repr=False)

    # per-slot gradient weight of the [closure | identity | g2] coefficients
    slot_scale: np.ndarray = field(init=False, repr=False)

    # the span G of the ansatz (_SPAN): its symplectic basis as packed keys,
    # e_1..e_k then f_1..f_k (pairs) then c_1..c_l (central), k, and the
    # cosets of G that H's terms fall in, each term's coset index
    span_basis: np.ndarray = field(init=False, repr=False)
    span_pairs: int = field(init=False, repr=False)
    coset_rep: np.ndarray = field(init=False, repr=False)
    h_coset: np.ndarray = field(init=False, repr=False)

    # the algebra path's maps, blocks and weights (_ALGEBRA; see _algebra_tables)
    alg_hadamard: np.ndarray = field(init=False, repr=False)
    alg_to_matrix: np.ndarray = field(init=False, repr=False)
    alg_to_grid: np.ndarray = field(init=False, repr=False)
    alg_h: np.ndarray = field(init=False, repr=False)
    alg_k_slot: np.ndarray = field(init=False, repr=False)
    alg_k_phase: np.ndarray = field(init=False, repr=False)
    alg_offdiag: np.ndarray = field(init=False, repr=False)
    alg_to_blocks: np.ndarray = field(init=False, repr=False)
    alg_to_coef: np.ndarray = field(init=False, repr=False)
    alg_turn: np.ndarray = field(init=False, repr=False)
    alg_back: np.ndarray = field(init=False, repr=False)

    def __getattr__(self, name: str):
        # reached only when normal lookup fails, that is for a derived field
        # before its group is built; afterwards the fields are instance
        # attributes. Any other name fails here, so a half-built object
        # (copy.copy, pickle) never recurses
        if name in _TABLES:
            tables = _product_tables(self.n, self.ansatz, self.h_strings)
        elif name in _SPAN:
            tables = _span_tables(self.n, self.ansatz, self.h_strings)
        elif name in _ALGEBRA:
            tables = _algebra_tables(self.ansatz, self.h_strings, self.h_coeffs, self.span_basis,
                                     self.span_pairs, self.coset_rep, self.h_coset)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vars(self).update(tables)
        return tables[name]

    @property
    def d(self) -> int:
        return len(self.ansatz)

    @property
    def grad_tgt(self) -> np.ndarray:
        """The khk grid's target slots as a (d, |hk| + d) view: row j holds
        every slot the partials in coordinate j gather through."""
        return self.khk_tgt.reshape(self.d, -1)

    @property
    def phi_p(self) -> np.ndarray:
        """The g2 slot of each pair product P_i * P_j, at i * d + j; -1 on the
        identity diagonal. bench/pipeline.py counts it."""
        pairs = self.grad_tgt[:, len(self.hk_strings):]
        return pairs.ravel() - (len(self.closure) + 1)


# the three groups of first-read fields, each built on its own
_SPAN = frozenset(("span_basis", "span_pairs", "coset_rep", "h_coset"))
_ALGEBRA = frozenset(f.name for f in fields(SupportSets) if f.name.startswith("alg_"))
_TABLES = frozenset(f.name for f in fields(SupportSets) if not f.init) - _SPAN - _ALGEBRA


def build_support_sets(h: PauliSum, ansatz) -> SupportSets:
    """Check (h, ansatz) and return their SupportSets. The product tables
    are built on the first read of any of them (see SupportSets)."""
    ansatz = tuple(ansatz)
    if len(h) == 0:
        raise ValueError("empty Hamiltonian")
    if not h.is_hermitian():
        # the cost reads only Re tr(K'HK P): an anti-Hermitian part would be
        # silently ignored
        raise ValueError("Hamiltonian is not Hermitian (non-real coefficients)")
    if not ansatz:
        raise ValueError("empty ansatz")
    n = h.n
    for p in ansatz:
        if p.n != n:
            raise ValueError(f"ansatz string on {p.n} qubits, Hamiltonian on {n}")
    if len(set(ansatz)) != len(ansatz):
        raise ValueError("ansatz strings must be distinct")

    h_strings = tuple(sorted(h.strings()))
    h_coeffs = np.array([h.coefficient(p) for p in h_strings], dtype=complex)
    return SupportSets(n=n, ansatz=ansatz, h_ref=h, h_strings=h_strings, h_coeffs=h_coeffs)


def _product_tables(n: int, ansatz, h_strings) -> dict:
    """The nine derived fields of SupportSets (_TABLES), by name.

    The phase grids are formed on int32 masks: n <= MAX_QUBITS = 24 makes
    every mask and XOR fit. The strings are packed int64 keys, and a
    product's key is the XOR of its factors' keys. The index tables are
    intp, which take and bincount read without a copy.

    The closure is the key set of the ansatz x HK grid, a ^ hk_s (d |hk|
    keys), and the inverse of its one unique is the slot of khk entry
    (a, s) < |hk|."""
    d = len(ansatz)
    hx, hz = string_masks(h_strings, np.int32)
    ax, az = string_masks(ansatz, np.int32)
    h_keys, a_keys = pack_keys(hx, hz), pack_keys(ax, az)

    # H*K support and its build table; entry (i, b) is h_strings[i] * P_b
    k, _, _ = multiply_masks(hx[:, None], hz[:, None], ax, az)
    hk_keys, hk_tgt = np.unique((h_keys[:, None] ^ a_keys).ravel(), return_inverse=True)
    hk_phase = PHASES[k.ravel()]
    # the pair products P_a P_b, at a * d + b. The ansatz being distinct,
    # only the diagonal is the identity, whose key 0 sorts first
    pair_keys, pair_tgt = np.unique((a_keys[:, None] ^ a_keys).ravel(), return_inverse=True)
    pair_tgt = pair_tgt.reshape(d, d)

    # closure = strings of K'HK, the key set of the ansatz x HK grid
    closure_keys, closure_tgt = np.unique((a_keys[:, None] ^ hk_keys).ravel(),
                                          return_inverse=True)

    width = len(hk_keys) + d
    khk_tgt = np.empty((d, width), dtype=np.intp)
    khk_tgt[:, : len(hk_keys)] = closure_tgt.reshape(d, -1)
    khk_tgt[:, len(hk_keys):] = len(closure_keys) + pair_tgt

    # the K'[HK | K] grid's phases; entry (a, s) is P_a * Y_s, Y = hk_strings
    # ++ ansatz. The build's largest grid: the selector is k widened to intp
    # once and then formed in place
    hk_x, hk_z = (m.astype(np.int32) for m in unpack_keys(hk_keys))
    k, _, _ = multiply_masks(ax[:, None], az[:, None],
                             np.concatenate((hk_x, ax)), np.concatenate((hk_z, az)))
    khk_sel = k.astype(np.intp)
    del k
    khk_sel *= width
    khk_sel += np.arange(width)

    # diagonal strings (x = 0) are the keys below 1 << MAX_QUBITS, so g1,
    # the off-diagonal closure strings, is the closure's suffix
    g1_start = int(np.searchsorted(closure_keys, 1 << MAX_QUBITS))
    slot_scale = np.zeros(len(closure_keys) + len(pair_keys))
    slot_scale[g1_start:len(closure_keys)] = 4.0 * 4.0**n
    slot_scale[len(closure_keys) + 1:] = 4.0

    return {
        "hk_strings": hk_keys,
        "closure": closure_keys,
        "g1": closure_keys[g1_start:],
        "g2": pair_keys[1:],
        "hk_phase": hk_phase,
        "hk_tgt": hk_tgt,
        "khk_sel": khk_sel.ravel(),
        "khk_tgt": khk_tgt.ravel(),
        "slot_scale": slot_scale,
    }


# --- the algebra the ansatz spans ---------------------------------------------
#
# A packed key is a vector of GF(2)^(2n), and a product's key is the XOR of
# its factors'; two strings anticommute iff their symplectic product
# omega(u, v) = |u.x & v.z| + |u.z & v.x| is odd. The ansatz keys span a
# subgroup G, which symplectic Gram-Schmidt splits into k anticommuting
# pairs (e_i, f_i) and l central elements c_j. Sending e_i to X and f_i to Z
# on virtual qubit i < k, and c_j to Z on virtual qubit k + j, represents
# the algebra G spans faithfully on m = k + l virtual qubits, P_g going to
# +-V_g'; no V_g' has x bits on the central qubits, so the representation's
# matrices are 2^l blocks of 2^k x 2^k.
#
# The element whose basis coordinates are the bits of i (bit t for basis
# element t, in span_basis order) has slot i of the grid C[z, x] (2^m x
# 2^k: x is i's low k bits, z the rest), and the ordered product of its
# basis strings is i^mu P_g. The forward map puts the coefficient of P_g
# at its slot times i^-mu, multiplies the z axis by the Sylvester-Hadamard
# matrix S[c, z] = (-1)^|c & z| of 2^m and gathers the blocks
# M[b, row, col] = (S C)[b 2^k + col, row ^ col]. Its adjoint gathers
# E[b 2^k + c, x] = M[b, c, c ^ x]; then tr(P_g X) = 2^(n-m) i^-mu
# (S E)[slot], and the coefficient of P_g in X is i^-mu (S E)[slot] / 2^m.
#
# Where the ansatz spans the whole group on n qubits (2n echelon elements),
# Gram-Schmidt is skipped: G takes its natural basis e_q = X_q, f_q = Z_q
# (k = n, l = 0) with one coset, that of the identity, and cost's dense
# path reads these maps. The virtual qubits are then the real ones, qubit
# q as basis-index bit q: P's slot is z 2^n + x, its phase i^|x & z|, and
# the one block is P's matrix, which maps basis column c to row c ^ x
# with weight i^|x & z| (-1)^|z & c|. verify.to_dense numbers
# the basis the other way round (qubit 0 as the most significant bit) and
# keeps its own implementation of this rule, so the dense verification
# stays a cross-check; F and its partials are traces, which the numbering
# does not change.
#
# H's term h_i lies in a coset of G with representative P_c: h_i = i^-t P_c
# P_g for one g in G, i^t the phase of P_c P_g. So H = sum_c P_c A_c, A_c =
# sum_i h_i i^-t P_g, and K'HK = sum_c P_c K~_c' A_c K with K~_c = P_c K
# P_c, which flips the sign of each k_g that anticommutes with P_c. Each
# representative is chosen to commute with every e_i and f_i, so K~_c only
# swaps blocks: K~_c[b] = K[b ^ gamma_c], bit j of gamma_c being
# omega(P_c, c_j).


def _omega(u: int, v: int) -> int:
    """Symplectic product of two packed keys: 1 iff the strings anticommute."""
    return (((u >> MAX_QUBITS) & v) ^ (u & (v >> MAX_QUBITS))).bit_count() & 1


def _anticommute(keys: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """omega of every key with every basis key, as a (len(keys), len(basis))
    0/1 array."""
    kx, kz = unpack_keys(keys)
    bx, bz = unpack_keys(basis)
    return np.bitwise_count((kx[:, None] & bz) ^ (kz[:, None] & bx)) & 1


def _reduce(keys: np.ndarray, echelon) -> np.ndarray:
    """keys with every leading bit of an echelon basis (leading bits
    descending) cleared: one canonical member of each key's coset."""
    for b in echelon:
        keys = np.where(keys & (1 << (b.bit_length() - 1)), keys ^ b, keys)
    return keys


def _span_tables(n: int, ansatz, h_strings) -> dict:
    """The four _SPAN fields, from the masks alone: an echelon basis of the
    ansatz keys' span (one vector op over the keys per basis element); for
    the whole group (2n basis elements) its natural basis X_0..X_(n-1),
    Z_0..Z_(n-1) with one coset; elsewhere symplectic Gram-Schmidt on the
    echelon basis (O(r^2) integer ops, r < 2n), and H's keys reduced modulo
    the span, each coset's representative then moved within the coset to
    commute with every pair element."""
    keys = pack_keys(*string_masks(ansatz))
    echelon = []
    keys = keys[keys != 0]
    while keys.size:
        top = int(keys.max())
        echelon.append(top)
        keys = _reduce(keys, [top])
        keys = keys[keys != 0]
    if len(echelon) == 2 * n:
        q = np.arange(n, dtype=np.int64)
        return {"span_basis": 1 << np.concatenate((q + MAX_QUBITS, q)), "span_pairs": n,
                "coset_rep": np.zeros(1, dtype=np.int64),
                "h_coset": np.zeros(len(h_strings), dtype=np.intp)}

    pairs, central, rest = [], [], list(echelon)
    while rest:
        u = rest.pop()
        j = next((i for i, v in enumerate(rest) if _omega(u, v)), None)
        if j is None:
            central.append(u)
            continue
        v = rest.pop(j)
        pairs.append((u, v))
        rest = [w ^ (u if _omega(w, v) else 0) ^ (v if _omega(w, u) else 0) for w in rest]
    basis = np.array([e for e, _ in pairs] + [f for _, f in pairs] + central, dtype=np.int64)

    reps, h_coset = np.unique(_reduce(pack_keys(*string_masks(h_strings)), echelon),
                              return_inverse=True)
    # P_c e_i anticommuting is cured by f_i, P_c f_i by e_i
    k = len(pairs)
    cure = np.concatenate((basis[k:2 * k], basis[:k]))
    reps ^= np.bitwise_xor.reduce(np.where(_anticommute(reps, basis[:2 * k]) == 1, cure, 0),
                                  axis=1)
    return {"span_basis": basis, "span_pairs": k, "coset_rep": reps, "h_coset": h_coset}


def _block_gathers(k: int, l: int, gamma: np.ndarray):
    """Fixed flat indices between the grids and the blocks of len(gamma)
    operators M_c, coset c's block b being stored at b ^ gamma[c].

    Layouts, with W = 2^k, B = 2^l and C = len(gamma): the grids side by
    side, (2^m, C W), slot (z, x) of c at [z, c W + x]; the blocks side by
    side, (B, W, C W), M_c[b][r, col] at [b ^ gamma[c], r, c W + col]; and
    stacked, (B, C W, W), at [b, c W + r, col]. Returns (to_blocks, to_grid,
    turn, back): the forward gather into the side-by-side blocks, the
    adjoint gather from them, and the gathers from stacked to side by side
    and back."""
    w, nb, nc = 1 << k, 1 << l, len(gamma)
    shape = (nc, nb, w, w)
    c = np.arange(nc)[:, None, None, None]
    b = np.arange(nb)[:, None, None]
    r = np.arange(w)[:, None]
    col = np.arange(w)
    at = gamma[:, None, None, None] ^ b

    def scatter(where, what):
        out = np.empty(nc * nb * w * w, dtype=np.intp)
        out[np.broadcast_to(where, shape).ravel()] = np.broadcast_to(what, shape).ravel()
        return out

    side = ((at * w + r) * nc + c) * w + col
    stacked = ((b * nc + c) * w + r) * w + col
    to_blocks = scatter(side, ((b * w + col) * nc + c) * w + (r ^ col))
    # with col read as x: slot (b W + r, x) of c is M_c[b][r, r ^ x]
    to_grid = scatter(((b * w + r) * nc + c) * w + col, ((at * w + r) * nc + c) * w + (r ^ col))
    return (to_blocks.reshape(nb, w, nc * w), to_grid.reshape(nb * w, nc * w),
            scatter(side, stacked).reshape(nb, w, nc * w),
            scatter(stacked, side).reshape(nb, nc * w, w))


def _algebra_tables(ansatz, h_strings, h_coeffs, basis, k, coset_rep, h_coset) -> dict:
    """The _ALGEBRA fields for the group G with symplectic basis basis (as
    packed keys, e_1..e_k, f_1..f_k, then the central elements), H's cosets
    of G (coset_rep) and each term's coset (h_coset): the Hadamard matrix
    of 2^m, the block gathers of K (alone) and of the C coset operators
    (side by side), H's block operators A_c (stacked), the ansatz's grid
    slots and phases, and the weights alg_offdiag of the coset coefficients
    (side by side): (-1)^mu where P_c P_g is off-diagonal, x(P_c) ^ x(g) !=
    0, and 0 elsewhere. SupportSets passes its span, the whole Pauli group
    in its natural basis for the dense path."""
    m = len(basis) - k
    w, dim, nc = 1 << k, 1 << m, len(coset_rep)

    # G's keys and the exponent mu of each slot, doubling over the basis
    g_keys = np.zeros(1, dtype=np.int64)
    mu = np.zeros(1, dtype=np.uint8)
    for b in basis:
        t, _, _ = multiply_masks(*unpack_keys(g_keys), *unpack_keys(b))
        g_keys = np.concatenate((g_keys, g_keys ^ b))
        mu = np.concatenate((mu, mu + t))
    order = np.argsort(g_keys)

    def slots(keys):
        return order[np.searchsorted(g_keys, keys, sorter=order)]

    phase = PHASES[-mu.astype(np.intp) & 3]
    z = np.arange(dim)
    hadamard = (1.0 - 2.0 * (np.bitwise_count(z[:, None] & z) & 1)).astype(complex)
    to_matrix, to_grid, _, _ = _block_gathers(k, m - k, np.zeros(1, dtype=np.intp))
    gamma = (_anticommute(coset_rep, basis[2 * k:]) << np.arange(m - k)).sum(axis=1)
    to_blocks, to_coef, turn, back = _block_gathers(k, m - k, gamma)

    reps = coset_rep[h_coset]
    g = pack_keys(*string_masks(h_strings)) ^ reps
    t, _, _ = multiply_masks(*unpack_keys(reps), *unpack_keys(g))
    g_slot = slots(g)
    grid = np.zeros((nc, dim * w), dtype=complex)
    grid[h_coset, g_slot] = h_coeffs * PHASES[-t.astype(np.intp) & 3] * phase[g_slot]
    a = (hadamard @ grid.reshape(nc, dim, w)).reshape(nc, -1).take(to_matrix, axis=-1)

    a_slot = slots(pack_keys(*string_masks(ansatz)))
    gx, _ = unpack_keys(g_keys)
    rx, _ = unpack_keys(coset_rep)
    offdiag = np.where(rx[:, None] != gx, 1.0 - 2.0 * (mu & 1), 0.0)
    return {
        "alg_hadamard": hadamard,
        "alg_to_matrix": to_matrix,
        "alg_to_grid": to_grid,
        "alg_h": a.transpose(1, 0, 2, 3).reshape(-1, nc * w, w),
        "alg_k_slot": a_slot,
        "alg_k_phase": phase[a_slot],
        "alg_offdiag": offdiag.reshape(nc, dim, w).transpose(1, 0, 2).reshape(dim, nc * w),
        "alg_to_blocks": to_blocks,
        "alg_to_coef": to_coef,
        "alg_turn": turn,
        "alg_back": back,
    }

