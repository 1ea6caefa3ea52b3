"""Sparse Pauli-sum operators and support sets for the diagonalization cost.

A PauliSum stores A = sum_P c_P P as {PauliString: complex}. Traces follow the
unnormalized convention tr(A P) = 2^n c_P.

build_support_sets precomputes, for a Hamiltonian H and an ansatz list
(P_1..P_d), everything the cost evaluator needs:

* g1: the off-diagonal strings that can appear in K'HK (ansatz closure),
* g2: the non-identity products P_i P_j with their (j, j_P, c) index tables,
* flat integer/phase tables that let the hot loops run as numpy gathers and
  bincount accumulations instead of per-term dict arithmetic.

The build itself works on int64 x/z mask arrays. Each product family (H P_b,
P_a (HK), g1 P_j, P_i P_j) is one broadcast of pauli.multiply_masks, strings
are deduplicated through packed int64 keys (n <= MAX_QUBITS = 24 makes
x << 24 | z fit), and PauliString objects are created only for the returned
string tuples and g2_pairs. Distinct strings are numbered in order of first
occurrence in row-major entry order, and g1/g2 follow PauliString order, so
every table is independent of how the products are computed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import _PHASE_VALUES, MAX_QUBITS, PauliString, multiply, multiply_masks, parse

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
            acc[s] = acc.get(s, 0j) + ca * cb * ph.value
    return PauliSum(a.n, acc)


def conjugate(h: PauliSum, k: PauliSum) -> PauliSum:
    """k_adjoint * h * k."""
    return sum_multiply(k.adjoint(), sum_multiply(h, k))


def trace_with(a: PauliSum, p: PauliString) -> complex:
    """tr(A P) = 2^n * coefficient of P in A."""
    if a.n != p.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {p.n}")
    return (2**a.n) * a.coefficient(p)


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
    return PauliSum(n, terms)


def save_hamiltonian(path, h: PauliSum) -> None:
    lines = []
    for p, c in sorted(h.items()):
        if abs(c.imag) > HERMITIAN_TOL:
            raise ValueError(f"non-real coefficient {c} on {p.word}")
        lines.append(f"{c.real!r} {p.word}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- support sets -----------------------------------------------------------


def _accumulate(tgt: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """Complex bincount: sum weights into slots tgt of a length-`length` vector."""
    re = np.bincount(tgt, weights=weights.real, minlength=length)
    im = np.bincount(tgt, weights=weights.imag, minlength=length)
    return re + 1j * im


@dataclass(eq=False)
class SupportSets:
    """Closure data for a fixed (H, ansatz) pair. Identity semantics: two
    builds from equal inputs are distinct objects (the field arrays do not
    define a useful equality, and evaluators key caches by instance).

    g1 holds the off-diagonal strings of the conjugation closure
    {strip(P_a Q_i P_b)}; the coefficient of any string outside the closure is
    identically zero in K'HK, whatever the parameters. g2 holds the
    non-identity pair products P_i P_j; g2_pairs[P] lists (j, j_P, c) with
    P_{j_P} P_j = c P, which is exactly the index structure behind phi_P.
    """

    n: int
    ansatz: tuple[PauliString, ...]
    g1: tuple[PauliString, ...]
    g2: tuple[PauliString, ...]
    g2_pairs: dict[PauliString, tuple[tuple[int, int, complex], ...]]
    closure: tuple[PauliString, ...]

    # fixed Hamiltonian data
    h_ref: PauliSum = field(repr=False)
    h_strings: tuple[PauliString, ...] = field(repr=False)
    h_coeffs: np.ndarray = field(repr=False)

    # H*K product support; the last slot is a zero sentinel for lookups that
    # fall outside the support
    hk_strings: tuple[PauliString, ...] = field(repr=False)

    # flat build tables over row-major entry grids: hk entry (i, b) is
    # h_strings[i] * P_b and sits at i * d + b; khk entry (a, s) is
    # P_a * hk_strings[s] and sits at a * |hk_strings| + s
    hk_phase: np.ndarray = field(repr=False)
    hk_tgt: np.ndarray = field(repr=False)
    khk_phase: np.ndarray = field(repr=False)
    khk_tgt: np.ndarray = field(repr=False)

    # gradient lookup tables, shape (|g1|, d)
    grad_tgt: np.ndarray = field(repr=False)
    grad_phase: np.ndarray = field(repr=False)

    # phi entry tables
    phi_p: np.ndarray = field(repr=False)
    phi_j: np.ndarray = field(repr=False)
    phi_jp: np.ndarray = field(repr=False)
    phi_phase: np.ndarray = field(repr=False)

    # index of each g1 string inside closure, and the diagonal complement
    g1_closure_idx: np.ndarray = field(repr=False)
    diag_closure_idx: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return len(self.ansatz)

    @property
    def dim(self) -> int:
        return 2**self.n

    def k_coeffs(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return r * np.exp(1j * theta)

    def hk_vector(self, k_coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of H*K over hk_strings, sentinel zero appended."""
        # both operands carry two axes: a (1, 1) * (1,) product skips the
        # vector loop and rounds differently from the gathered entry rows
        w = self.h_coeffs[:, None] * k_coeffs[None, :] * self.hk_phase.reshape(-1, self.d)
        vec = _accumulate(self.hk_tgt, w.ravel(), len(self.hk_strings))
        return np.append(vec, 0j)

    def khk_vector(self, k_coeffs: np.ndarray, hk_vec: np.ndarray) -> np.ndarray:
        """Coefficients of K'(HK) over closure; hk_vec is hk_vector's output."""
        w = k_coeffs.conj()[:, None] * hk_vec[None, :-1] * self.khk_phase.reshape(self.d, -1)
        return _accumulate(self.khk_tgt, w.ravel(), len(self.closure))

    def phi_vector(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """phi_P over g2 (identity excluded; its value is ||r||^2)."""
        w = (
            self.phi_phase
            * r[self.phi_j]
            * r[self.phi_jp]
            * np.exp(1j * (theta[self.phi_j] - theta[self.phi_jp]))
        )
        return _accumulate(self.phi_p, w, len(self.g2))


def build_support_sets(h: PauliSum, ansatz) -> SupportSets:
    """Precompute closure strings and flat evaluation tables for (h, ansatz)."""
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

    d = len(ansatz)
    h_strings = tuple(sorted(h.strings()))
    h_coeffs = np.array([h.coefficient(p) for p in h_strings], dtype=complex)
    hx, hz = _masks(h_strings)
    ax, az = _masks(ansatz)

    # H*K support and its build table; entry (i, b) is h_strings[i] * P_b
    k, cx, cz = multiply_masks(hx[:, None], hz[:, None], ax, az)
    hk_keys, hk_tgt = _first_occurrence(_key(cx, cz).ravel())
    hk_x, hk_z = _unkey(hk_keys)
    hk_phase = _PHASES[k.ravel()]

    # closure = strings of K'(HK), and its build table; entry (a, s) is P_a * S_s
    k, cx, cz = multiply_masks(ax[:, None], az[:, None], hk_x, hk_z)
    closure_keys, khk_tgt = _first_occurrence(_key(cx, cz).ravel())
    cl_x, cl_z = _unkey(closure_keys)
    khk_phase = _PHASES[k.ravel()]

    # g1: the off-diagonal (x != 0) closure strings, sorted by key
    off = np.flatnonzero(cl_x != 0)
    g1_closure_idx = off[np.argsort(closure_keys[off])]
    diag_closure_idx = np.flatnonzero(cl_x == 0)
    g1_x, g1_z = cl_x[g1_closure_idx], cl_z[g1_closure_idx]

    # gradient lookup: for each (P in g1, j) the string P*P_j inside hk support
    k, rx, rz = multiply_masks(g1_x[:, None], g1_z[:, None], ax, az)
    grad_keys = _key(rx, rz)
    hk_order = np.argsort(hk_keys)
    hk_sorted = hk_keys[hk_order]
    pos = np.minimum(np.searchsorted(hk_sorted, grad_keys), len(hk_keys) - 1)
    grad_tgt = np.where(hk_sorted[pos] == grad_keys, hk_order[pos], len(hk_keys))
    grad_phase = _PHASES[k]

    # pair products P_i P_j -> phi index tables; entry (i, j) is P_i * P_j,
    # the identity (i == j, the ansatz being distinct) left out
    k, px, pz = multiply_masks(ax[:, None], az[:, None], ax, az)
    pair_keys = _key(px, pz).ravel()
    pair = np.flatnonzero(pair_keys != 0)
    g2_keys, pair_p = np.unique(pair_keys[pair], return_inverse=True)
    order = np.argsort(pair_p, kind="stable")
    pair = pair[order]
    phi_p = pair_p[order]
    phi_j = pair % d
    phi_jp = pair // d
    phi_k = k.ravel()[pair]
    phi_phase = _PHASES[phi_k]

    g2 = _strings(n, *_unkey(g2_keys))
    entries = list(zip(
        phi_j.tolist(), phi_jp.tolist(), [_PHASE_VALUES[v] for v in phi_k.tolist()]
    ))
    bounds = np.searchsorted(phi_p, np.arange(len(g2) + 1))
    g2_pairs = {p: tuple(entries[bounds[i] : bounds[i + 1]]) for i, p in enumerate(g2)}

    return SupportSets(
        n=n,
        ansatz=ansatz,
        g1=_strings(n, g1_x, g1_z),
        g2=g2,
        g2_pairs=g2_pairs,
        closure=_strings(n, cl_x, cl_z),
        h_ref=h,
        h_strings=h_strings,
        h_coeffs=h_coeffs,
        hk_strings=_strings(n, hk_x, hk_z),
        hk_phase=hk_phase,
        hk_tgt=hk_tgt,
        khk_phase=khk_phase,
        khk_tgt=khk_tgt,
        grad_tgt=grad_tgt,
        grad_phase=grad_phase,
        phi_p=phi_p,
        phi_j=phi_j,
        phi_jp=phi_jp,
        phi_phase=phi_phase,
        g1_closure_idx=g1_closure_idx,
        diag_closure_idx=diag_closure_idx,
    )


# --- mask-array helpers for build_support_sets ------------------------------
#
# A string is packed into one int64 key, x << MAX_QUBITS | z. Key order is
# PauliString order for a fixed n, so sorted keys give sorted strings.

_PHASES = np.array(_PHASE_VALUES, dtype=complex)
_LOW = (1 << MAX_QUBITS) - 1


def _masks(strings) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([p.x_mask for p in strings], dtype=np.int64)
    z = np.array([p.z_mask for p in strings], dtype=np.int64)
    return x, z


def _key(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return (x << MAX_QUBITS) | z


def _unkey(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) masks of packed keys."""
    return keys >> MAX_QUBITS, keys & _LOW


def _first_occurrence(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in order of first occurrence, and each key's index among them."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.intp)
    rank[order] = np.arange(len(uniq))
    return uniq[order], rank[inverse]


def _strings(n: int, x: np.ndarray, z: np.ndarray) -> tuple[PauliString, ...]:
    return tuple(PauliString(n, xi, zi) for xi, zi in zip(x.tolist(), z.tolist()))
