"""Cost function and exact gradients for the diagonalization flow.

The ansatz operator is K(r, theta) = sum_j r_j e^{i theta_j} P_j. The cost is

    F(r, theta) = f + penalty
    f       = sum_{P in g1} tr(K'HK P)^2          (off-diagonal mass)
    penalty = sum_{P in g2} |phi_P|^2             (distance from unitarity)

where phi_P is the coefficient of P in K'K. Traces carry the unnormalized
2^n factor, so F is degree-4 homogeneous in r: F(s r, theta) = s^4 F(r, theta).

Gradients are exact. With t_P = tr(K'HK P) on g1 (0 on the diagonal closure
strings), S_s the H*K strings and P_j S_s = c P,

    dF/dr_j     = 4 Re(tw_j) + penalty part
    dF/dtheta_j = 4 r_j Im(tw_j) + penalty part
    tw_j        = e^{-i theta_j} sum_s c t_P tr(HK S_s)

so coordinate j reads row j of the K'(HK) product grid that f itself is
accumulated from, and its penalty part reads row j and column j of the pair
grid that phi is accumulated from. One full gradient costs O(d |hk|) after
the support tables are built, a block J of coordinates O(|J| (|hk| + 2d)).
Both signs were validated against central finite differences; the theta sign
is +4 for this operator order.

When the qubit count is small and the ansatz is at least Hilbert-dimension
sized, evaluation switches to direct 2^n x 2^n matrix algebra (same values,
same gradients, far cheaper); see _dense_path_applies. That path works on the
Pauli x/z grid: K is one Hadamard matmul of its (2^n, 2^n) coefficient grid
plus one fixed gather, its d partials are the adjoint (one gather of the
matrix gradient plus one Hadamard matmul), and K'HK, K'K and the matrix
gradient take three more matmuls, so no step touches a d x 2^n table.
"""

from __future__ import annotations

import bisect
import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .operators import PauliSum, SupportSets
from .pauli import PauliString


@dataclass(frozen=True)
class KParams:
    """Ansatz strings with their amplitudes r and phases theta."""

    ansatz: tuple[PauliString, ...]
    r: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        ansatz = tuple(self.ansatz)
        r = np.array(self.r, dtype=float)
        theta = np.array(self.theta, dtype=float)
        if len(ansatz) == 0:
            raise ValueError("empty ansatz")
        if len(set(ansatz)) != len(ansatz):
            raise ValueError("ansatz strings must be distinct")
        n = ansatz[0].n
        if any(p.n != n for p in ansatz):
            raise ValueError("ansatz strings must share one qubit count")
        if r.shape != (len(ansatz),) or theta.shape != (len(ansatz),):
            raise ValueError(
                f"r/theta shapes {r.shape}/{theta.shape} do not match d={len(ansatz)}"
            )
        r.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "ansatz", ansatz)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)

    @property
    def d(self) -> int:
        return len(self.ansatz)

    @property
    def n(self) -> int:
        return self.ansatz[0].n

    @property
    def r_norm(self) -> float:
        return float(np.linalg.norm(self.r))

    def with_params(self, r: np.ndarray, theta: np.ndarray) -> "KParams":
        return KParams(self.ansatz, r, theta)

    def normalized(self) -> "KParams":
        nr = self.r_norm
        if nr == 0.0:
            raise ValueError("cannot normalize zero amplitude vector")
        return self.with_params(self.r / nr, self.theta)


@dataclass
class CostReport:
    """Cost split plus (optionally) its exact gradient."""

    f_value: float
    penalty: float
    total: float
    grad_r: np.ndarray | None = None
    grad_theta: np.ndarray | None = None

    @property
    def grad_norm(self) -> float:
        if self.grad_r is None:
            raise ValueError("report was computed without gradients")
        return float(
            np.sqrt(np.dot(self.grad_r, self.grad_r) + np.dot(self.grad_theta, self.grad_theta))
        )


def k_as_sum(kp: KParams) -> PauliSum:
    """K as an explicit PauliSum with coefficients r_j e^{i theta_j}."""
    return PauliSum(kp.n, zip(kp.ansatz, kp.r * np.exp(1j * kp.theta)))


def _check(h: PauliSum, kp: KParams, s: SupportSets) -> None:
    if kp.ansatz != s.ansatz:
        raise ValueError("KParams ansatz differs from the one the support sets were built for")
    if h is not s.h_ref and h != s.h_ref:
        raise ValueError("Hamiltonian differs from the one the support sets were built for")


# --- dense matrix fast path ---------------------------------------------------
#
# For few qubits and an ansatz at least as large as the Hilbert dimension,
# 2^n x 2^n matrix algebra beats the flat support tables by a wide margin.
# Operators live on the Pauli x/z grid: a string with dense-index masks
# (x, z) maps basis column c to row c ^ x with weight
# i^{|x & z|} (-1)^{popcount(z & c)}. Scattering the phased coefficients of
# a sum onto a (2^n, 2^n) grid C[z, x] and transforming its z axis with the
# Sylvester-Hadamard matrix S[c, z] = (-1)^{popcount(c & z)} gives D = S C,
# and the operator is A[row, col] = D[col, row ^ col], one fixed gather. A
# parameter derivative is the adjoint: E[c, x] = G[c, c ^ x] is one fixed
# gather of the matrix gradient G, and the partial in k_j is
# i^{|x_j & z_j|} (S E)[z_j, x_j]. K'HK and K'K come from one matmul,
# K' [HK | K], and G from one more. verify.to_dense keeps its own
# independent implementation of the same column -> (row, weight)
# convention, so the dense verification route stays a genuine cross-check.

_DENSE_PATH_MAX_DIM = 16


def _dense_path_applies(n: int, d: int) -> bool:
    return (1 << n) <= _DENSE_PATH_MAX_DIM and d >= (1 << n)


def _revbits(mask: int, n: int) -> int:
    # qubit 0 is the leftmost tensor factor = most significant index bit
    out = 0
    for q in range(n):
        if mask >> q & 1:
            out |= 1 << (n - 1 - q)
    return out


class _DenseWork:
    """Dense tables for one (H, ansatz) pair: H as a matrix, the ansatz's
    grid slots and phases, the Hadamard matrix, and the fixed flat indices of
    the grid <-> matrix gathers and of the diagonals."""

    __slots__ = ("dim", "h_mat", "hadamard", "k_slot", "k_phase",
                 "_to_matrix", "_to_grid", "_diag_m", "_diag_t", "_scale")

    def __init__(self, s: SupportSets):
        n = s.n
        dim = 1 << n
        self.dim = dim
        self.hadamard = functools.reduce(
            np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n, np.ones((1, 1))
        ).astype(complex)
        rows = np.arange(dim)[:, None]
        cols = np.arange(dim)[None, :]
        # A[row, col] = D[col, row ^ col], and E[c, x] = G[c, c ^ x]
        self._to_matrix = cols * dim + (rows ^ cols)
        self._to_grid = rows * dim + (rows ^ cols)
        # the two diagonals of the stacked (2 dim, dim) [K'HK; K'K], and the
        # row scales that turn it into the right factor of G
        self._diag_m = np.arange(dim) * (dim + 1)
        self._diag_t = self._diag_m + dim * dim
        self._scale = np.repeat([2.0 * dim, 2.0 / dim], dim)[:, None]
        self.k_slot, self.k_phase = self._grid_slots(s.ansatz, n)
        h_slot, h_phase = self._grid_slots(s.h_strings, n)
        self.h_mat = self.matrix(h_slot, h_phase * s.h_coeffs)

    def _grid_slots(self, strings, n: int):
        slot = np.array([_revbits(p.z_mask, n) * self.dim + _revbits(p.x_mask, n)
                         for p in strings], dtype=np.int64)
        phase = np.array([1j ** ((p.x_mask & p.z_mask).bit_count() % 4) for p in strings])
        return slot, phase

    def matrix(self, slot: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The dense matrix of the sum with values at grid slots (the
        strings' phases included; slots are distinct)."""
        grid = np.zeros((self.dim, self.dim), dtype=complex)
        grid.ravel()[slot] = values
        return (self.hadamard @ grid).take(self._to_matrix)

    def k_partials(self, g_mat: np.ndarray) -> np.ndarray:
        """tr(P_j G) for every ansatz string P_j: the adjoint of matrix()."""
        e = g_mat.take(self._to_grid)
        return (self.hadamard @ e).take(self.k_slot) * self.k_phase


_DENSE_WORK: "weakref.WeakKeyDictionary[SupportSets, _DenseWork]" = (
    weakref.WeakKeyDictionary()
)


def _dense_work_for(s: SupportSets) -> _DenseWork | None:
    if not _dense_path_applies(s.n, s.d):
        return None
    work = _DENSE_WORK.get(s)
    if work is None:
        work = _DenseWork(s)
        _DENSE_WORK[s] = work
    return work


def _evaluate_dense(work: _DenseWork, r: np.ndarray, theta: np.ndarray, want_grad: bool):
    dim = work.dim
    e = np.exp(1j * theta)
    k = work.matrix(work.k_slot, (r * e) * work.k_phase)
    w = np.concatenate((work.h_mat @ k, k), axis=1)  # [HK | K]
    # [K'HK; K'K] stacked, then offdiag(K'HK) on top and the traceless part
    # of K'K below, formed entrywise so the near-identity case does not
    # cancel catastrophically
    b = (k.conj().T @ w).reshape(dim, 2, dim).transpose(1, 0, 2).reshape(2 * dim, dim)
    flat = b.reshape(-1)
    flat[work._diag_m] = 0.0
    t_diag = flat[work._diag_t]
    flat[work._diag_t] = t_diag - t_diag.sum() / dim
    m_off, t_less = b[:dim], b[dim:]
    f = float(dim * np.vdot(m_off, m_off).real)
    penalty = float(np.vdot(t_less, t_less).real / dim)
    if not want_grad:
        return f, penalty, None, None

    # dF = 2 Re tr(dK' G) with G = 2^{n+1} HK offdiag(K'HK) + (2/2^n) K T,
    # that is [HK | K] times the row-scaled stack
    b *= work._scale
    gvec = work.k_partials(w @ b) * e.conj()
    grad_r = 2.0 * gvec.real
    grad_theta = 2.0 * r * gvec.imag
    return f, penalty, grad_r, grad_theta


def _table_values(s: SupportSets, r: np.ndarray, theta: np.ndarray):
    """The table path's coefficient vectors at (r, theta): (hk, khk, t, phi,
    f, penalty), where t is 2^n Re khk on the g1 slots of the closure and 0
    on its diagonal strings."""
    kc = s.k_coeffs(r, theta)
    hk = s.hk_vector(kc)
    khk = s.khk_vector(kc, hk)
    t_g1 = float(2**s.n) * khk[s.g1_closure_idx].real
    t = np.zeros(len(s.closure))
    t[s.g1_closure_idx] = t_g1
    phi = s.phi_vector(r, theta)
    f = float(np.sum(t_g1 * t_g1))
    penalty = float(np.sum(phi.real**2 + phi.imag**2))
    return hk, khk, t, phi, f, penalty


def _evaluate_sparse(s: SupportSets, r: np.ndarray, theta: np.ndarray, want_grad: bool):
    hk, _, t, phi, f, penalty = _table_values(s, r, theta)
    if not want_grad:
        return f, penalty, None, None
    grad_r, grad_theta = _offdiag_grad(s, r, theta, hk, t, slice(None))
    _add_penalty_grad(s, r, theta, phi, grad_r, grad_theta, slice(None))
    return f, penalty, grad_r, grad_theta


def _offdiag_grad(s: SupportSets, r, theta, hk, t, J):
    """f's partials in r_J and theta_J, from rows J of the khk grid. With
    P_j S_s = c P (khk entry (j, s)), coordinate j reads

        tw_j = 2^n e^{-i theta_j} sum_s c t_P hk_s

    where t is _table_values' closure-length t, so entries landing on a
    diagonal string add 0."""
    w = s.khk_phase.reshape(s.d, -1)[J] * t[s.grad_tgt[J]]
    tw = (w @ hk) * (float(2**s.n) * np.exp(-1j * theta[J]))
    return 4.0 * tw.real, 4.0 * r[J] * tw.imag


def _add_penalty_grad(s: SupportSets, r, theta, phi, grad_r, grad_theta, J):
    """Add the penalty's partials in r_J and theta_J (grad_r and grad_theta
    are indexed like J), d|phi_P|^2 = 2 Re(conj(phi_P) dphi_P). Pair-grid
    entry (i, j), P_i P_j = c P, adds c r_i r_j e^{i(theta_j - theta_i)} to
    phi_P, so the terms of coordinate m sit in row m and column m."""
    if not len(s.g2):
        return
    d = s.d
    cphi = phi.conj()
    tgt, phase = s.phi_p.reshape(d, d), s.phi_phase.reshape(d, d)
    e = np.exp(1j * theta)
    rows = ((cphi[tgt[J]] * phase[J]) @ (e * r)) * e[J].conj()
    cols = ((e.conj() * r) @ (cphi[tgt[:, J]] * phase[:, J])) * e[J]
    grad_r += 2.0 * (rows.real + cols.real)
    grad_theta += 2.0 * r[J] * (rows.imag - cols.imag)


def _evaluator(s: SupportSets):
    """The evaluation routine for s, called as fn(r, theta, want_grad) and
    returning (f, penalty, grad_r, grad_theta): the dense path when it
    applies, else the support tables."""
    work = _dense_work_for(s)
    if work is not None:
        return functools.partial(_evaluate_dense, work)
    return functools.partial(_evaluate_sparse, s)


def eval_f(h: PauliSum, kp: KParams, s: SupportSets) -> float:
    """Off-diagonal cost sum_{P in g1} tr(K'HK P)^2."""
    _check(h, kp, s)
    f, _, _, _ = _evaluator(s)(kp.r, kp.theta, False)
    return f


def eval_phi(kp: KParams, p: PauliString, s: SupportSets) -> complex:
    """Coefficient of p in K'K; ||r||^2 for the identity string."""
    if kp.ansatz != s.ansatz:
        raise ValueError("KParams ansatz differs from the one the support sets were built for")
    if p.n != kp.n:
        raise ValueError(f"string on {p.n} qubits, ansatz on {kp.n}")
    if p.is_identity:
        return complex(np.dot(kp.r, kp.r))
    i = bisect.bisect_left(s.g2, p)
    if i == len(s.g2) or s.g2[i] != p:
        raise ValueError(f"{p.word} is not a product of two ansatz strings")
    return complex(s.phi_vector(kp.r, kp.theta)[i])


def eval_F(h: PauliSum, kp: KParams, s: SupportSets) -> CostReport:
    """Total cost, values only."""
    _check(h, kp, s)
    f, penalty, _, _ = _evaluator(s)(kp.r, kp.theta, False)
    return CostReport(f_value=f, penalty=penalty, total=f + penalty)


def eval_grad(h: PauliSum, kp: KParams, s: SupportSets) -> CostReport:
    """Total cost with its exact gradient."""
    _check(h, kp, s)
    f, penalty, gr, gt = _evaluator(s)(kp.r, kp.theta, True)
    return CostReport(f_value=f, penalty=penalty, total=f + penalty, grad_r=gr, grad_theta=gt)
