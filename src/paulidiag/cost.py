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
same gradients, far cheaper); see _dense_path_applies.
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
# 2^n x 2^n matrix algebra beats the flat support tables by a wide margin:
# K is scatter-built from the signed permutations of its strings, K'HK and
# K'K are three small matmuls, and each parameter derivative is one gather
# along the P_j stripe of the matrix gradient. verify.to_dense keeps its own
# independent implementation of the same column -> (row, weight) convention,
# so the dense verification route stays a genuine cross-check.

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


def _parity(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


class _DenseWork:
    """Dense tables for one (H, ansatz) pair: H as a matrix plus, for every
    ansatz string, its action on basis column c (target row and weight)."""

    __slots__ = ("dim", "h_mat", "perm", "weight", "_flat", "_gather")

    def __init__(self, s: SupportSets):
        n = s.n
        dim = 1 << n
        cols = np.arange(dim, dtype=np.int64)

        def stripe(p: PauliString):
            rows = cols ^ _revbits(p.x_mask, n)
            phase = 1j ** ((p.x_mask & p.z_mask).bit_count() % 4)
            signs = 1.0 - 2.0 * _parity(cols & _revbits(p.z_mask, n))
            return rows, phase * signs

        self.dim = dim
        self.perm = np.empty((s.d, dim), dtype=np.int64)
        self.weight = np.empty((s.d, dim), dtype=complex)
        for j, p in enumerate(s.ansatz):
            self.perm[j], self.weight[j] = stripe(p)
        self._flat = (self.perm * dim + cols[None, :]).ravel()
        # flat positions of G[c, perm[j, c]], the entries gathered for dK'/dk_j
        self._gather = cols[None, :] * dim + self.perm
        self.h_mat = np.zeros((dim, dim), dtype=complex)
        for q, coeff in zip(s.h_strings, s.h_coeffs):
            rows, w = stripe(q)
            self.h_mat[rows, cols] += coeff * w

    def k_matrix(self, k_coeffs: np.ndarray) -> np.ndarray:
        w = (self.weight * k_coeffs[:, None]).ravel()
        size = self.dim * self.dim
        re = np.bincount(self._flat, weights=w.real, minlength=size)
        im = np.bincount(self._flat, weights=w.imag, minlength=size)
        return (re + 1j * im).reshape(self.dim, self.dim)


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
    c = r * np.exp(1j * theta)
    k = work.k_matrix(c)
    hk = work.h_mat @ k
    m_off = k.conj().T @ hk
    np.fill_diagonal(m_off, 0.0)
    f = float(dim * np.vdot(m_off, m_off).real)
    # traceless part of K'K, formed entrywise so the near-identity case does
    # not cancel catastrophically
    t_less = k.conj().T @ k
    t_less[np.diag_indices(dim)] -= np.trace(t_less) / dim
    penalty = float(np.vdot(t_less, t_less).real / dim)
    if not want_grad:
        return f, penalty, None, None

    # dF = 2 Re tr(dK' G) with G = 2^{n+1} HK offdiag(K'HK) + (2/2^n) K T
    g_mat = (2.0 * dim) * (hk @ m_off) + (2.0 / dim) * (k @ t_less)
    gvec = np.sum(work.weight * g_mat.ravel().take(work._gather), axis=1)
    gvec *= np.exp(-1j * theta)
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
