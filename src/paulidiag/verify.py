"""Dense-matrix ground truth: error reports, a posteriori bounds, eigenspace
projector distances, and Lie-closure dimension counting.

Everything here is exact linear algebra on 2^n x 2^n matrices and is meant
for small n. The Pauli-algebra modules never import this one, so the dense
route stays an independent cross-check.

The reports (diag_report, frob_error) build every matrix as a stack of
blocks on the Z2 symmetry sectors of H and the ansatz, the cosets of the
GF(2) span of their strings' x masks (Bravyi, Gambetta, Mezzacapo and
Temme, arXiv:1701.08213): each string maps each coset to itself. A full
span is the one-block case, which to_dense and kparams_to_dense return.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cost import UNIT_NORM_TOL, KParams, eval_F
from .operators import HERMITIAN_TOL, PauliSum, build_support_sets
from .pauli import (PHASES, PauliString, echelon, echelon_reduce, pack_keys, string_masks,
                    symplectic_masks, unpack_keys)

DENSE_MAX_QUBITS = 12


class DenseLimitError(ValueError):
    """Raised when an operator is too large for the dense verification path."""


def _check_dense_n(n: int) -> None:
    if n > DENSE_MAX_QUBITS:
        raise DenseLimitError(
            f"dense path supports at most {DENSE_MAX_QUBITS} qubits, got {n}"
        )


def _check_finite(mat: np.ndarray, name: str) -> None:
    bad = np.argwhere(~np.isfinite(mat))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"{name}[{i}, {j}] must be finite, got {mat[i, j]}")


def _reverse_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Map qubit-indexed masks to dense-index masks, and back (the map is
    its own inverse).

    Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
    a computational-basis index.
    """
    out = np.zeros_like(masks)
    for q in range(n):
        out |= (masks >> q & 1) << (n - 1 - q)
    return out


# entries per block of weights in _strings_to_dense (16 MB), and string
# pairs per block of lie_closure_dim
_DENSE_BLOCK = 1 << 20


class _Sectors(NamedTuple):
    """Z2 symmetry sectors of a set of Pauli strings: the cosets c ^ V of the
    GF(2) span V of their dense-index x masks.

    A string with x in V maps each coset to itself, so any sum of such
    strings is block diagonal, with B = 2^n / s blocks of s = |V|. Block b
    holds the dense indices idx[b] = rep_b ^ comb(i), i < s, where comb(i)
    XORs the reduced-echelon basis vectors picked by the bits of i and rep_b
    is the coset's member with every pivot bit clear. x = comb(j) for j the
    pivot bits of x, so the string sends local column i to local row i ^ j.
    A full span has one block with idx = arange(2^n).
    """

    idx: np.ndarray  # (B, s) dense indices
    pivots: np.ndarray  # (log2 s,) pivot bits, ascending: bit k of j is pivots[k]


def _sectors(n: int, xmasks: np.ndarray) -> _Sectors:
    """Sectors of the span of the dense-index x masks xmasks: pauli.echelon's
    basis, back-substituted with pauli.echelon_reduce to the reduced echelon
    form, which is unique to the span."""
    _check_dense_n(n)
    basis = echelon(np.asarray(xmasks, dtype=np.int64))
    # no element has an earlier one's leading bit; clear each element's
    # leading bit from the elements before it
    for t in range(1, len(basis)):
        basis[:t] = echelon_reduce(basis[:t], basis[t:t + 1])
    pivots = [int(b).bit_length() - 1 for b in basis[::-1]]
    comb = reps = np.zeros(1, dtype=np.int64)
    for b in basis[::-1]:
        comb = np.concatenate((comb, comb ^ b))
    for bit in range(n):
        if bit not in pivots:
            reps = np.concatenate((reps, reps | 1 << bit))
    return _Sectors(reps[:, None] ^ comb, np.array(pivots, dtype=np.int64))


def _full_sectors(n: int) -> _Sectors:
    """_sectors of the full span, without the elimination: one block of
    every dense index, every bit a pivot."""
    _check_dense_n(n)
    return _Sectors(np.arange(1 << n, dtype=np.int64)[None, :], np.arange(n, dtype=np.int64))


def _report_sectors(h: PauliSum, kp: KParams) -> _Sectors:
    """Sectors of H and the ansatz together: the union of their x spans."""
    x = np.concatenate((string_masks(h.strings())[0], string_masks(kp.ansatz)[0]))
    return _sectors(h.n, _reverse_masks(x, h.n))


def _strings_to_dense(n: int, strings, coeffs, sectors: _Sectors) -> np.ndarray:
    """(B, s, s) blocks of sum_t coeffs[t] strings[t] on the given sectors,
    which must hold every string's x.

    String t sends dense column c to row c ^ x_t with weight
    i^{|x_t & z_t|} (-1)^{popcount(c & z_t)}, (x_t, z_t) its dense-index
    masks; in block b that is local column i (c = idx[b, i]) to local row
    i ^ j_t. Each block of terms forms its (term, column) weights at once and
    adds them with one np.add.at on the flat stack, which adds repeated
    entries in index order, so every entry sums its terms in term order,
    also across blocks.
    """
    nblocks, s = sectors.idx.shape
    xr, zr = (_reverse_masks(m, n) for m in string_masks(strings))
    bits = np.arange(len(sectors.pivots), dtype=np.int64)
    rows = np.bitwise_or.reduce((xr[:, None] >> sectors.pivots & 1) << bits, axis=1)
    if np.any(sectors.idx[0, rows] != xr):
        raise ValueError("a string's x lies outside the sectors' span")
    scaled = np.asarray(coeffs, dtype=complex) * PHASES[np.bitwise_count(xr & zr) & 3]
    cols = sectors.idx.ravel()
    # (-1)^{popcount(c)} for every dense index c
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(len(cols), dtype=np.int64)) & 1)
    local = np.arange(len(cols), dtype=np.int64) & (s - 1)
    # flat index of (b, 0, i) for column c = idx[b, i]
    base = (np.arange(len(cols), dtype=np.int64) - local) * s + local
    mat = np.zeros((nblocks, s, s), dtype=complex)
    # weights for at most a quarter of the stack at once
    step = max(1, min(_DENSE_BLOCK, mat.size // 4) // len(cols))
    for lo in range(0, len(xr), step):
        j, z = rows[lo:lo + step, None], zr[lo:lo + step, None]
        w = scaled[lo:lo + step, None] * signs[cols & z]
        # flat operands keep np.add.at on its fast path
        np.add.at(mat.ravel(), ((local ^ j) * s + base).ravel(), w.ravel())
    return mat


def _sum_blocks(a: PauliSum, sectors: _Sectors) -> np.ndarray:
    return _strings_to_dense(a.n, [p for p, _ in a.items()], [c for _, c in a.items()],
                             sectors)


def to_dense(a: PauliSum) -> np.ndarray:
    """2^n x 2^n matrix of a: the one block of the full span."""
    return _sum_blocks(a, _full_sectors(a.n))[0]


def _fwht(v: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform (length power of two)."""
    m = len(v)
    h = 1
    while h < m:
        v = v.reshape(-1, 2, h)
        top = v[:, 0, :].copy()
        v[:, 0, :] = top + v[:, 1, :]
        v[:, 1, :] = top - v[:, 1, :]
        v = v.reshape(m)
        h *= 2
    return v


def pauli_decompose(mat: np.ndarray, n: int, prune_tol: float = 0.0) -> PauliSum:
    """Expand a 2^n x 2^n matrix in the Pauli basis: mat = sum_P k_P P.

    k_P = tr(mat P) / 2^n, computed for all 4^n strings in O(4^n n) via a
    Walsh-Hadamard transform over the diagonal masks of each permutation
    stripe. Coefficients below prune_tol are dropped. A non-finite entry or
    a NaN prune_tol raises ValueError.
    """
    _check_dense_n(n)
    if math.isnan(prune_tol):
        raise ValueError("prune_tol must not be NaN")
    dim = 1 << n
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for n={n}")
    _check_finite(mat, "mat")
    cols = np.arange(dim)
    masks = _reverse_masks(cols, n)
    floor = max(prune_tol, 1e-15 * max(1.0, float(np.abs(mat).max())))
    strings: list[PauliString] = []
    coeffs: list[complex] = []
    for xr in range(dim):
        s = _fwht(mat[cols, cols ^ xr])
        zr = np.flatnonzero(np.abs(s) >= floor * dim)
        coeff = PHASES[np.bitwise_count(xr & zr) & 3] * s[zr] / dim
        keep = np.abs(coeff) >= floor
        x_mask = int(masks[xr])
        strings += [PauliString(n, x_mask, z) for z in masks[zr[keep]].tolist()]
        coeffs += coeff[keep].tolist()
    return PauliSum(n, zip(strings, coeffs))


@dataclass(frozen=True)
class DiagReport:
    """Dense error metrics for a candidate diagonalizer K of h.

    offdiag_mass is the Frobenius norm of the off-diagonal part of K^dag h K
    and must satisfy offdiag_mass <= bound_offdiag = sqrt(F / 2^n) exactly
    (up to roundoff). bound_spec = 2 * bound_offdiag
    + 6 (1 + sqrt(F)) ||h||_F sqrt(eps) dominates ||h - h_tilde||_2 whenever
    it applies, which is only when eps = 2^n * penalty <= 1/4.
    """

    n: int
    f_value: float
    penalty: float
    frob_error: float
    spec_error: float
    unitarity_error: float
    offdiag_mass: float
    bound_offdiag: float
    eps: float
    bound_spec: float
    bound_spec_applicable: bool

    @property
    def total(self) -> float:
        return self.f_value + self.penalty

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "f_value": self.f_value,
            "penalty": self.penalty,
            "F_total": self.total,
            "frob_error": self.frob_error,
            "spec_error": self.spec_error,
            "unitarity_error": self.unitarity_error,
            "offdiag_mass": self.offdiag_mass,
            "bound_offdiag": self.bound_offdiag,
            "eps": self.eps,
            "bound_spec": self.bound_spec,
            "bound_spec_applicable": self.bound_spec_applicable,
        }


def kparams_to_dense(kp: KParams) -> np.ndarray:
    """K = sum_j r_j e^{i theta_j} P_j as a dense matrix: the one block of the
    full span."""
    return _k_blocks(kp, _full_sectors(kp.n))[0]


def _k_blocks(kp: KParams, sectors: _Sectors) -> np.ndarray:
    return _strings_to_dense(kp.n, kp.ansatz, kp.r * np.exp(1j * kp.theta), sectors)


def _check_report_inputs(h: PauliSum, kp: KParams, f_value=None, penalty=None) -> None:
    """Reject what no report can be made of, before any dense work: a qubit
    count mismatch, one of f_value and penalty without the other, a
    non-finite r, theta, f_value or penalty, an r of non-unit norm, or more
    qubits than the dense path takes."""
    if h.n != kp.n:
        raise ValueError("hamiltonian and parameters disagree on qubit count")
    if (f_value is None) != (penalty is None):
        given, missing = ("penalty", "f_value") if f_value is None else ("f_value", "penalty")
        raise ValueError(f"{given} given without {missing}")
    fields = {"r": kp.r, "theta": kp.theta, "f_value": f_value, "penalty": penalty}
    for name, value in fields.items():
        if value is None:
            continue
        values = np.atleast_1d(value)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            where = f"[{bad[0]}]" if np.ndim(value) else ""
            raise ValueError(f"{name}{where} must be finite, got {values[bad[0]]}")
    # a NaN r passes this check, hence the finiteness check first
    if abs(kp.r_norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError("kp.r must have unit norm")
    _check_dense_n(h.n)


def _diagonal(m: np.ndarray) -> np.ndarray:
    """Writable (B, s) view of the diagonals of a C-contiguous (B, s, s) stack."""
    nblocks, s, _ = m.shape
    return m.reshape(nblocks, -1)[:, ::s + 1]


def _residual(hd: np.ndarray, k: np.ndarray, diag: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
    """hd - H~ with H~ = K diag(diag) K', in a new stack; scratch (a stack
    of K's shape) is overwritten.

    K diag K' is formed as conj(conj(K diag) K^T), conjugating the disposable
    factor and product in place, so no conjugate copy of K is made; each
    product term differs from the direct one only by exact sign flips.
    """
    kd = np.multiply(k, diag[:, None, :], out=scratch)
    diff = np.conjugate(kd, out=kd) @ k.swapaxes(1, 2)
    np.conjugate(diff, out=diff)
    return np.subtract(hd, diff, out=diff)


def frob_error(h: PauliSum, kp: KParams) -> float:
    """||h - H~||_F, the report's frob_error alone, at a third of its cost.

    Works on the same sector blocks as diag_report and holds at most four
    block stacks. The diagonal of K'HK is taken as column-wise dot products
    of K with HK, so neither K'HK, the spectrum nor K'K is formed.
    """
    _check_report_inputs(h, kp)
    sectors = _report_sectors(h, kp)
    hd = _sum_blocks(h, sectors)
    k = _k_blocks(kp, sectors)
    hk = hd @ k
    # Re sum_i conj(K_ij) (HK)_ij, the real part of K'HK's diagonal
    diag = (np.einsum("bij,bij->bj", k.real, hk.real)
            + np.einsum("bij,bij->bj", k.imag, hk.imag))
    return float(np.linalg.norm(_residual(hd, k, diag, hk)))


def diag_report(
    h: PauliSum,
    kp: KParams,
    f_value: Optional[float] = None,
    penalty: Optional[float] = None,
) -> DiagReport:
    """Compute all dense error metrics and a posteriori bounds for (h, kp).

    f_value and penalty may be passed in from an optimizer run, both or
    neither; when omitted they are recomputed from scratch so the report
    stands on its own.

    Every matrix is a stack of blocks on the Z2 symmetry sectors of H and the
    ansatz (_Sectors): H, K and everything formed from them map each coset of
    the span of their x masks to itself, so the products, norms and spectrum
    are taken block by block, and a full span is the one-block case. At most
    four block stacks are alive at once (H, K, K'H and K'HK while K'HK is
    formed): products of conjugates are formed as conjugates of products in
    place (K'M = conj(K^T conj(M))), and each stack is overwritten or dropped
    once read, so on one block every field equals the direct formula bit for
    bit.
    """
    _check_report_inputs(h, kp, f_value=f_value, penalty=penalty)
    if f_value is None:
        rep = eval_F(h, kp, build_support_sets(h, kp.ansatz))
        f_value, penalty = rep.f_value, rep.penalty

    n = h.n
    dim = 1 << n
    sectors = _report_sectors(h, kp)
    hd = _sum_blocks(h, sectors)
    h_frob = float(np.linalg.norm(hd))
    k = _k_blocks(kp, sectors)
    # K'H = conj(K^T conj(H)); H is conjugated in place and back, exactly
    kh = k.swapaxes(1, 2) @ np.conjugate(hd, out=hd)
    np.conjugate(hd, out=hd)
    g = np.conjugate(kh, out=kh) @ k
    del kh
    diag = _diagonal(g).real.copy()
    # g becomes Delta: subtracting the real diagonal keeps each diagonal
    # entry's imaginary rounding residue, as g - np.diag(diag) would
    _diagonal(g)[:] -= diag
    offdiag_mass = float(np.linalg.norm(g))

    diff = _residual(hd, k, diag, g)
    del hd, g
    frob_error = float(np.linalg.norm(diff))
    spec_error = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    del diff
    kk = k.conj().swapaxes(1, 2) @ k
    _diagonal(kk)[:] -= 1.0
    unitarity_error = float(np.linalg.norm(kk))

    total = f_value + penalty
    eps = dim * penalty
    bound_offdiag = math.sqrt(max(total, 0.0) / dim)
    # 2 * ||Delta||_F bound plus the near-unitarity correction; the first term
    # must stay linear in the Frobenius mass (a quadratic term would drop below
    # the true spectral error once the mass is below 1/2)
    bound_spec = 2.0 * bound_offdiag + 6.0 * (1.0 + math.sqrt(max(total, 0.0))) * h_frob * math.sqrt(max(eps, 0.0))
    return DiagReport(
        n=n,
        f_value=float(f_value),
        penalty=float(penalty),
        frob_error=frob_error,
        spec_error=spec_error,
        unitarity_error=unitarity_error,
        offdiag_mass=offdiag_mass,
        bound_offdiag=bound_offdiag,
        eps=float(eps),
        bound_spec=float(bound_spec),
        bound_spec_applicable=bool(eps <= 0.25),
    )


def projector_distances(
    h: PauliSum,
    h_tilde: np.ndarray,
    tol_degen: Optional[float] = None,
) -> list[tuple[float, float]]:
    """Frobenius distances between matched eigenspace projectors.

    Eigenvalues of h are grouped into clusters (degeneracy tolerance
    tol_degen, default 1e-8 * ||h||_2); each cluster of multiplicity m
    claims the m eigenvalues of h_tilde closest to the cluster mean. An
    ambiguous claim (a boundary tie, or two clusters claiming the same
    eigenvalue) raises ValueError, as does an h_tilde that is not a finite
    2^n x 2^n matrix, Hermitian within HERMITIAN_TOL times its largest
    entry, or a tol_degen that is not a finite number >= 0.
    """
    if h.n > 10:
        raise DenseLimitError("projector distances support at most 10 qubits")
    dim = 1 << h.n
    h_tilde = np.asarray(h_tilde, dtype=complex)
    if h_tilde.shape != (dim, dim):
        raise ValueError(f"h_tilde must be a {dim}x{dim} matrix, got shape {h_tilde.shape}")
    _check_finite(h_tilde, "h_tilde")
    # eigh reads one triangle only, so an asymmetry would go unseen
    if np.abs(h_tilde - h_tilde.conj().T).max() > HERMITIAN_TOL * np.abs(h_tilde).max():
        raise ValueError("h_tilde is not Hermitian")
    if tol_degen is not None and not 0.0 <= tol_degen < math.inf:
        raise ValueError(f"tol_degen must be a finite number >= 0, got {tol_degen}")
    hd = to_dense(h)
    evals, evecs = np.linalg.eigh(hd)
    t_evals, t_evecs = np.linalg.eigh(h_tilde)

    norm2 = float(np.max(np.abs(evals))) if len(evals) else 0.0
    if tol_degen is None:
        tol_degen = 1e-8 * norm2
    tie_tol = 1e-12 * max(1.0, norm2)

    splits = np.flatnonzero(np.diff(evals) > tol_degen)
    starts = np.concatenate(([0], splits + 1))
    ends = np.concatenate((splits + 1, [len(evals)]))

    claimed: dict[int, float] = {}
    out: list[tuple[float, float]] = []
    for s0, e0 in zip(starts, ends):
        m = int(e0 - s0)
        lam = float(np.mean(evals[s0:e0]))
        dist = np.abs(t_evals - lam)
        order = np.argsort(dist, kind="stable")
        chosen = order[:m]
        if m < len(t_evals) and dist[order[m]] - dist[order[m - 1]] <= tie_tol:
            raise ValueError(
                "ambiguous eigenvalue assignment for cluster at "
                f"{lam:.12g}: candidates {t_evals[order[m - 1]]:.12g} and "
                f"{t_evals[order[m]]:.12g} are equidistant"
            )
        for idx in chosen:
            idx = int(idx)
            if idx in claimed:
                raise ValueError(
                    f"eigenvalue {t_evals[idx]:.12g} claimed by clusters at "
                    f"{claimed[idx]:.12g} and {lam:.12g}"
                )
            claimed[idx] = lam
        p_h = evecs[:, s0:e0] @ evecs[:, s0:e0].conj().T
        p_t = t_evecs[:, chosen] @ t_evecs[:, chosen].conj().T
        out.append((lam, float(np.linalg.norm(p_t - p_h))))
    return out


class LieClosure(NamedTuple):
    dim: int
    hit_cap: bool


def lie_closure_dim(generators: Sequence[PauliString], cap: int) -> LieClosure:
    """Dimension of the commutator closure of a set of Pauli strings.

    Nonzero commutators of Pauli strings are Pauli strings up to phase, so
    the closure's span dimension equals the count of distinct phase-stripped
    strings reachable by nested commutators. The identity is central and is
    excluded from the count. The closure grows level by level on packed mask
    keys: each level pairs the strings the previous level found with every
    known string, each pair once. A block of new rows meets the strings known
    before the level, the new strings after the block, and its own rows
    above the diagonal. a and b anticommute where their symplectic product
    (pauli.symplectic_masks) is 1, and their commutator is then the string
    a.x ^ b.x, a.z ^ b.z. The search stops after the level that reaches cap
    strings; cap must be a positive integer.
    """
    if not generators:
        raise ValueError("need at least one generator")
    # bool is an Integral; a float or NaN cap would end the search early
    if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap!r}")
    n = generators[0].n
    for g in generators:
        if g.n != n:
            raise ValueError("generators must share a qubit count")
    known = np.unique(pack_keys(*string_masks(generators)))
    known = new = known[known != 0]
    before = known[:0]  # the strings known before the level that found new
    while len(new) and len(known) < cap:
        bx, bz = unpack_keys(before)
        nx, nz = unpack_keys(new)
        found = np.empty(0, dtype=np.int64)
        step = max(1, _DENSE_BLOCK // len(known))
        for lo in range(0, len(new), step):
            x, z = nx[lo:lo + step], nz[lo:lo + step]
            kx = np.concatenate((bx, nx[lo + step:]))
            kz = np.concatenate((bz, nz[lo + step:]))
            i, j = np.triu_indices(len(x), 1)
            found = np.union1d(found, np.concatenate((
                _commutators(x[:, None], z[:, None], kx, kz),
                _commutators(x[i], z[i], x[j], z[j]))))
        before = known
        new = np.setdiff1d(found, known, assume_unique=True)
        known = np.union1d(known, new)
    return LieClosure(min(len(known), cap), len(known) >= cap)


def _commutators(ax, az, bx, bz) -> np.ndarray:
    """Keys of the commutators of the anticommuting pairs among broadcast
    mask arrays (a, b)."""
    anti = symplectic_masks(ax, az, bx, bz).astype(bool)
    return pack_keys(ax ^ bx, az ^ bz)[anti]


def generating_set_check(n: int) -> bool:
    """True iff the two-local-plus-chains generator family spans everything.

    The family {Z1, Z2, X1, X2, Z1Z2} plus the anticommuting chains
    {X2 Y3..Y_{j-1} Z_j, Z2 Y3..Y_{j-1} X_j : 3 <= j <= n} should close onto
    all 4^n - 1 non-identity strings.
    """
    if not 3 <= n <= 6:
        raise ValueError("supported range is 3 <= n <= 6")

    gens = [
        PauliString.from_ops(n, ops)
        for ops in ({0: "Z"}, {1: "Z"}, {0: "X"}, {1: "X"}, {0: "Z", 1: "Z"})
    ]
    for j in range(3, n + 1):
        chain = {q: "Y" for q in range(2, j - 1)}
        gens.append(PauliString.from_ops(n, {1: "X", **chain, j - 1: "Z"}))
        gens.append(PauliString.from_ops(n, {1: "Z", **chain, j - 1: "X"}))
    result = lie_closure_dim(gens, cap=4 ** n)
    return result.dim == 4 ** n - 1 and not result.hit_cap
