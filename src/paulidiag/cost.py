"""Cost function and exact gradients for the diagonalization flow.

The ansatz operator is K(r, theta) = sum_j r_j e^{i theta_j} P_j. The cost is

    F(r, theta) = f + penalty
    f       = sum_{P in g1} tr(K'HK P)^2          (off-diagonal mass)
    penalty = sum_{P in g2} |phi_P|^2             (distance from unitarity)

where phi_P is the coefficient of P in K'K. Traces carry the unnormalized
2^n factor, so F is degree-4 homogeneous in r: F(s r, theta) = s^4 F(r, theta).

Gradients are exact. With t_P = tr(K'HK P) and P P_j = c R,

    dF/dr_j     = 4 sum_{P in g1} t_P Re(e^{-i theta_j} c tr(HK R)) + penalty part
    dF/dtheta_j = 4 sum_{P in g1} t_P r_j Im(e^{-i theta_j} c tr(HK R)) + penalty part

The inner traces are lookups into the H*K coefficient table, so one gradient
costs O(d^2 M + |g1| d) after the support tables are built. Both signs were
validated against central finite differences; the theta sign is +4 for this
operator order.

When the qubit count is small and the ansatz is at least Hilbert-dimension
sized, evaluation switches to direct 2^n x 2^n matrix algebra (same values,
same gradients, far cheaper); see _dense_path_applies.
"""

from __future__ import annotations

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


def _evaluate_sparse(s: SupportSets, r: np.ndarray, theta: np.ndarray, want_grad: bool):
    kc = s.k_coeffs(r, theta)
    hk = s.hk_vector(kc)
    khk = s.khk_vector(kc, hk)
    two_n = float(2**s.n)
    t = two_n * khk[s.g1_closure_idx].real
    f = float(np.sum(t * t))
    phi = s.phi_vector(r, theta)
    penalty = float(np.sum(phi.real**2 + phi.imag**2))
    if not want_grad:
        return f, penalty, None, None

    # off-diagonal part: W[P, j] = e^{-i theta_j} c_{P,j} tr(HK * strip(P P_j))
    W = s.grad_phase * hk[s.grad_tgt]
    W = W * (two_n * np.exp(-1j * theta))[None, :]
    tw = t @ W
    grad_r = 4.0 * tw.real
    grad_theta = 4.0 * r * tw.imag

    if len(s.phi_p):
        _add_penalty_grad(s, r, theta, phi, grad_r, grad_theta)
    return f, penalty, grad_r, grad_theta


def _add_penalty_grad(s: SupportSets, r, theta, phi, grad_r, grad_theta, e=slice(None)):
    """Add the penalty part of the gradient, d|phi_P|^2 = 2 Re(conj(phi_P)
    dphi_P), entry by entry over the phi entries e (all of them by default).
    A partial in j is complete when e holds every entry with an end at j."""
    d = s.d
    j, jp = s.phi_j[e], s.phi_jp[e]
    a = phi.conj()[s.phi_p[e]] * s.phi_phase[e] * np.exp(1j * (theta[j] - theta[jp]))
    grad_r += 2.0 * np.bincount(j, weights=a.real * r[jp], minlength=d)
    grad_r += 2.0 * np.bincount(jp, weights=a.real * r[j], minlength=d)
    rr = r[j] * r[jp]
    grad_theta -= 2.0 * np.bincount(j, weights=a.imag * rr, minlength=d)
    grad_theta += 2.0 * np.bincount(jp, weights=a.imag * rr, minlength=d)


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
    entries = s.g2_pairs.get(p)
    if entries is None:
        raise ValueError(f"{p.word} is not a product of two ansatz strings")
    r, theta = kp.r, kp.theta
    return complex(
        sum(c * r[j] * r[jp] * np.exp(1j * (theta[j] - theta[jp])) for j, jp, c in entries)
    )


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
