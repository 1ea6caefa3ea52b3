"""Sparse Pauli-sum operators and support sets for the diagonalization cost.

A PauliSum stores A = sum_P c_P P as {PauliString: complex}. Traces follow the
unnormalized convention tr(A P) = 2^n c_P.

build_support_sets precomputes, for a Hamiltonian H and an ansatz list
(P_1..P_d), everything the cost evaluator needs:

* g1: the off-diagonal strings that can appear in K'HK (ansatz closure),
* g2: the non-identity products P_i P_j,
* three row-major product grids (H P_b, P_a (HK), P_i P_j), each a flat
  phase and target-slot table, so that values are bincount accumulations
  and gradients are row gathers instead of per-term dict arithmetic.

The build itself works on int64 x/z mask arrays. Each grid is one broadcast
of pauli.multiply_masks, strings are deduplicated through packed int64 keys
(n <= MAX_QUBITS = 24 makes x << 24 | z fit), and PauliString objects are
created only for the returned string tuples. Every string tuple (hk_strings,
closure, g1, g2) is numbered in PauliString order, which is packed-key order,
so every table is independent of how the products are computed. Diagonal
strings have the smallest keys, which makes g1 the off-diagonal suffix of
the closure.
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

    closure holds the strings of K'HK, the conjugation closure
    {strip(P_a Q_i P_b)}; the coefficient of any string outside it is
    identically zero in K'HK, whatever the parameters. g1 holds its
    off-diagonal strings, and g2 the non-identity pair products P_i P_j, the
    strings phi_P is defined on. Every string tuple is sorted (PauliString
    order); the diagonal strings sort first, so g1 is the closure's suffix and
    g1_closure_idx the index range it occupies.

    The tables are three row-major product grids, each a flat phase array
    plus a flat target-slot array:

    * hk: entry (i, b) is h_strings[i] * P_b, at i * d + b, slot in hk_strings;
    * khk: entry (a, s) is P_a * hk_strings[s], at a * |hk| + s, slot in
      closure;
    * phi: entry (i, j) is P_i * P_j, at i * d + j, slot in g2; the identity
      diagonal has phase 0 (and slot 0).

    Values bincount each grid into its slots. Gradients read the same grids
    by rows: the khk row j and the phi row and column j hold every term the
    partials in r_j and theta_j need.
    """

    n: int
    ansatz: tuple[PauliString, ...]
    g1: tuple[PauliString, ...]
    g2: tuple[PauliString, ...]
    closure: tuple[PauliString, ...]

    # fixed Hamiltonian data
    h_ref: PauliSum = field(repr=False)
    h_strings: tuple[PauliString, ...] = field(repr=False)
    h_coeffs: np.ndarray = field(repr=False)

    # H*K product support
    hk_strings: tuple[PauliString, ...] = field(repr=False)

    # the product grids
    hk_phase: np.ndarray = field(repr=False)
    hk_tgt: np.ndarray = field(repr=False)
    khk_phase: np.ndarray = field(repr=False)
    khk_tgt: np.ndarray = field(repr=False)
    phi_p: np.ndarray = field(repr=False)
    phi_phase: np.ndarray = field(repr=False)

    # index of each g1 string inside closure: the suffix range
    g1_closure_idx: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return len(self.ansatz)

    @property
    def grad_tgt(self) -> np.ndarray:
        """The khk grid's target slots as a (d, |hk|) view: row j holds the
        closure slot of P_j * hk_strings[s], which the off-diagonal gradient
        in coordinate j gathers through."""
        return self.khk_tgt.reshape(self.d, -1)

    def k_coeffs(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return r * np.exp(1j * theta)

    def hk_vector(self, k_coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of H*K over hk_strings."""
        # both operands carry two axes: a (1, 1) * (1,) product skips the
        # vector loop and rounds differently from the gathered entry rows
        w = self.h_coeffs[:, None] * k_coeffs[None, :] * self.hk_phase.reshape(-1, self.d)
        return _accumulate(self.hk_tgt, w.ravel(), len(self.hk_strings))

    def khk_vector(self, k_coeffs: np.ndarray, hk_vec: np.ndarray) -> np.ndarray:
        """Coefficients of K'(HK) over closure; hk_vec is hk_vector's output."""
        w = k_coeffs.conj()[:, None] * hk_vec[None, :] * self.khk_phase.reshape(self.d, -1)
        return _accumulate(self.khk_tgt, w.ravel(), len(self.closure))

    def phi_vector(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """phi_P over g2 (identity excluded; its value is ||r||^2)."""
        w = (
            self.phi_phase.reshape(self.d, self.d)
            * r[None, :]
            * r[:, None]
            * np.exp(1j * (theta[None, :] - theta[:, None]))
        )
        # the diagonal's zeros land in slot 0, which d = 1 (g2 empty) drops
        return _accumulate(self.phi_p, w.ravel(), len(self.g2))[: len(self.g2)]


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
    hk_keys, hk_tgt = np.unique(_key(cx, cz).ravel(), return_inverse=True)
    hk_x, hk_z = _unkey(hk_keys)
    hk_phase = _PHASES[k.ravel()]

    # closure = strings of K'(HK), and its build table; entry (a, s) is P_a * S_s
    k, cx, cz = multiply_masks(ax[:, None], az[:, None], hk_x, hk_z)
    closure_keys, khk_tgt = np.unique(_key(cx, cz).ravel(), return_inverse=True)
    cl_x, cl_z = _unkey(closure_keys)
    khk_phase = _PHASES[k.ravel()]

    # diagonal strings (x = 0) have the smallest keys, so g1, the
    # off-diagonal closure strings, is the closure's suffix
    g1_closure_idx = np.flatnonzero(cl_x != 0)
    closure = _strings(n, cl_x, cl_z)

    # pair grid; entry (i, j) is P_i * P_j. The ansatz being distinct, only
    # the diagonal is the identity: it points at slot 0 with phase 0
    k, px, pz = multiply_masks(ax[:, None], az[:, None], ax, az)
    pair_keys = _key(px, pz).ravel()
    ident = pair_keys == 0
    g2_keys, phi_p = np.unique(pair_keys, return_inverse=True)
    phi_p = np.where(ident, 0, phi_p - 1)
    phi_phase = np.where(ident, 0j, _PHASES[k.ravel()])

    return SupportSets(
        n=n,
        ansatz=ansatz,
        g1=closure[len(closure) - len(g1_closure_idx):],
        g2=_strings(n, *_unkey(g2_keys[1:])),
        closure=closure,
        h_ref=h,
        h_strings=h_strings,
        h_coeffs=h_coeffs,
        hk_strings=_strings(n, hk_x, hk_z),
        hk_phase=hk_phase,
        hk_tgt=hk_tgt,
        khk_phase=khk_phase,
        khk_tgt=khk_tgt,
        phi_p=phi_p,
        phi_phase=phi_phase,
        g1_closure_idx=g1_closure_idx,
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


def _strings(n: int, x: np.ndarray, z: np.ndarray) -> tuple[PauliString, ...]:
    return tuple(PauliString(n, xi, zi) for xi, zi in zip(x.tolist(), z.tolist()))
