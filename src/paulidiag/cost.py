"""Cost function and exact gradients for the diagonalization flow.

The ansatz operator is K(r, theta) = sum_j r_j e^{i theta_j} P_j. The cost is

    F(r, theta) = f + penalty
    f       = sum_{P in g1} tr(K'HK P)^2          (off-diagonal mass)
    penalty = sum_{P in g2} |phi_P|^2             (distance from unitarity)

where phi_P is the coefficient of P in K'K. Traces carry the unnormalized
2^n factor, so F is degree-4 homogeneous in r: F(s r, theta) = s^4 F(r, theta).
SupportSets holds g1 and g2 as sorted arrays of packed int64 keys
(pauli.pack_keys); pauli.unpack_keys gives their x/z masks.

K'HK and K'K are Hermitian, so t_P = tr(K'HK P) and phi_P are real. The
table path, _table_values (the one routine that evaluates SupportSets'
grids), accumulates both as real numbers from one product grid,
K'[HK | K] (the dense path's K' [HK | K] matmul, entry by entry). With
k_j = r_j e^{i theta_j}, y = [hk | k] the coefficients of Y = (H*K strings)
++ ansatz, and P_a Y_s = c_as P, the grid entry W[a, s] = c_as y_s adds
Re(conj(k_a) W[a, s]) to P's coefficient: in K'HK for the first |hk|
columns, in K'K for the last d.

Gradients are exact and come from one fused row per coordinate. With t_P
read as 0 on the diagonal closure strings and phi as 0 on the identity,

    z_j         = e^{-i theta_j} (2^n sum_{s<|hk|} W[j, s] t_P
                                  + sum_i W[j, |hk| + i] phi_Q)
    dF/dr_j     = 4 Re z_j
    dF/dtheta_j = 4 r_j Im z_j

The second sum, sum_i c_ji phi_Q k_i, is the penalty part. Because phi is
real and pair entry (j, i) is the conjugate of (i, j), the terms of
coordinate j in column j of the pair block are the conjugates of those in
row j, so row j alone gives them, doubled: hence the same factor 4 as the
off-diagonal part. Coordinate j thus reads row j of the
grid f and phi are accumulated from, each slot weighted by
SupportSets.slot_scale: one gather and one real matmul. One full gradient
costs O(d (|hk| + d)) after the support tables are built, a block J of
coordinates O(|J| (|hk| + d)). Both signs were validated against central
finite differences; the theta sign is +4 for this operator order.

F is evaluated on one of three paths. The table path is the one above.
The other two are matrix engines that read one set of maps, SupportSets'
alg_* fields, built once by operators._algebra_tables for the subgroup G
of the Pauli group that SupportSets' span fields describe (operators'
notes on the algebra give the representation, the grid slots and their
phases): the forward map _blocks (K's coefficients to K's blocks, one
Hadamard matmul and one gather) and its adjoint _partials (a matrix
gradient to the d partials, one gather and one Hadamard matmul).

Both engines compute one formulation, on the algebra the span G of the
ansatz strings spans: 2^l blocks of 2^k x 2^k (m = k + l). H = sum_c P_c
A_c over the C cosets of G that H's terms lie in, so

    K'HK = sum_c P_c B_c,    B_c = K~_c' A_c K,    K~_c = P_c K P_c,

and each representative P_c commutes with G's pairs, so K~_c is K with
its blocks swapped by gamma_c. With W = [A_1 K | ... | A_C K | K] side by
side, each A_c K's blocks swapped by gamma_c, one product K'W gives every
B_c and K'K, and a gather stacks them as b, B_c[b] in coset c's rows of
block b. K'HK is Hermitian, so B_c[b] = B_c'[b ^ gamma_c], the block that
W's coset c column multiplies. Then f = 4^n / 2^m ||Y||^2, Y the
off-diagonal part of the B_c (below), and the penalty is ||T||^2 / 2^m,
T the traceless part of K'K, formed entrywise so the near-identity case
does not cancel catastrophically. The gradient is the adjoint sweep, with
dF = 2 Re tr(dK' G):

    G = 2^(2n+1-m) sum_c P_c A_c K Y_c' P_c + (2 / 2^m) K T,

that is W times b with Y's and T's rows scaled, one matmul; tr(P_j G) for
every ansatz string is one adjoint map of G. _finish is this tail, shared.

P_c P_g is diagonal iff x(P_c) = x(g). Grid column (c, x) of b holds the
2^m entries B_c[b][r, r ^ x] (z' = b 2^k + r), in which the string at
slot (z, x) is +-row z of the Sylvester-Hadamard matrix S of 2^m. The
diagonal strings of a column fill the slots z_c ^ U, U = {z : x(g_(z, 0))
= 0} of size 2^z0, so its entries v lose S_U' S_U v / 2^m, S_U the rows
of S in z_c ^ U. With s the row
z_c of S, that is v minus s times the mean of s v over each coset of U's
dual: alg_diag gathers the diagonal columns' entries grouped by those
cosets, and alg_diag_sign holds s.

At k = n the formulation has C = 1 and l = 0: the one block is the 2^n x
2^n matrix, the diagonal strings are the diagonal matrices, and b is
[K'HK; K'K] by a reshape. _evaluate_dense is that case, and stays its
own routine for speed: on full spans _evaluate_algebra returns the same
numbers, but its gathers and coset projection took 13-28% longer per call
at n = 3-5 and 0-7% at n = 6-8 (one BLAS thread; 81 against 63 us on
xxz4_dense's instance).

One evaluation costs O(C 2^l 8^k) in block products, O(2^k 4^m) in each
of the two maps' Hadamard matmuls, whose matrix of 2^m is built whole, and
O(C 2^(z+m)) in the projection, 2^z being a coset's number of diagonal
strings, against the table path's O(d (|hk| + d)). The span picks the engine: _path takes a matrix path
where _matrix_path_applies, the dense one where k = n and the algebra one
elsewhere, else the table path. That rule needs m at most _ALGEBRA_MAX_M,
and two fitted time models: the matrix path's evaluation per call
predicted no slower than the table path's. Each side's one-time build
(the maps or the product tables) is left out, so the rule needs no run
length, and eval_grad, GD and sampled RCD all read the one routine _path
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import PauliSum, SupportSets
from .pauli import PHASES, PauliString

# how far ||r|| may be from 1 for params to count as unit norm
UNIT_NORM_TOL = 1e-8


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
        # finite entries can overflow the norm: it reads inf, which every
        # caller rejects, so numpy's overflow warning would only be noise
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.r))

    def with_params(self, r: np.ndarray, theta: np.ndarray) -> "KParams":
        return KParams(self.ansatz, r, theta)

    def normalized(self) -> "KParams":
        nr = self.r_norm
        if not 0.0 < nr < np.inf:
            raise ValueError(f"cannot normalize amplitudes of norm {nr}")
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
        return _grad_norm(self.grad_r, self.grad_theta)


def _grad_norm(grad_r: np.ndarray, grad_theta: np.ndarray) -> float:
    """The gradient norm every report and optimizer step uses, two dots."""
    # finite partials can overflow the dots: the norm reads inf, which the
    # optimizers stop on, so numpy's overflow warning would only be noise
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.dot(grad_r, grad_r) + np.dot(grad_theta, grad_theta)))


def _check(h: PauliSum, kp: KParams, s: SupportSets) -> None:
    if kp.ansatz != s.ansatz:
        raise ValueError("KParams ansatz differs from the one the support sets were built for")
    if h is not s.h_ref and h != s.h_ref:
        raise ValueError("Hamiltonian differs from the one the support sets were built for")


# --- the matrix paths ---------------------------------------------------------
#
# Both read SupportSets' alg_* fields, the maps of its span G, built once;
# the dense path's G is the whole group (one 2^n x 2^n block).


def _blocks(s: SupportSets, kc: np.ndarray) -> np.ndarray:
    """The forward map: the blocks of the operator with coefficients kc on
    the ansatz strings."""
    hadamard = s.alg_hadamard
    grid = np.zeros((len(hadamard), s.alg_to_matrix.shape[-1]), dtype=complex)
    grid.ravel()[s.alg_k_slot] = kc * s.alg_k_phase
    return (hadamard @ grid).take(s.alg_to_matrix)


def _partials(s: SupportSets, g: np.ndarray) -> np.ndarray:
    """The adjoint of _blocks: 2^(m-n) tr(P_j G) for every ansatz string
    P_j, G given by its blocks."""
    e = g.take(s.alg_to_grid)
    return (s.alg_hadamard @ e).take(s.alg_k_slot) * s.alg_k_phase


def _evaluate_dense(s: SupportSets, r: np.ndarray, theta: np.ndarray, want_grad: bool):
    dim = len(s.alg_hadamard)
    e = np.exp(1j * theta)
    k = _blocks(s, r * e)[0]
    w = np.concatenate((s.alg_h[0] @ k, k), axis=1)  # [HK | K]
    # [K'HK; K'K] stacked; the diagonal strings are the diagonal matrices
    b = (k.conj().T @ w).reshape(dim, 2, dim).transpose(1, 0, 2).reshape(2 * dim, dim)
    diag = b.reshape(2, -1)[:, ::dim + 1]  # the diagonals of both
    diag[0] = 0.0
    return _finish(s, r, e, w, b, b[:dim], b[dim:], diag[1], want_grad)


def _finish(s: SupportSets, r, e, w, b, y, t, t_diag, want_grad: bool):
    """Both matrix engines' tail: f, the penalty and, with the gradient,
    the partials. w is [HK | K] on the blocks and b the stack of K'HK's
    parts and K'K, with three views into b: y, the K'HK part with its
    diagonal strings removed, t, the K'K part, and t_diag, t's diagonal.
    t's traceless part is formed entrywise, so the near-identity case does
    not cancel catastrophically. f = 4^n / 2^m ||y||^2, the penalty is
    ||t||^2 / 2^m, and once y is scaled by 2^(2n+1-m) and t by 2 / 2^m, w b
    is the matrix gradient G, dF = 2 Re tr(dK' G)."""
    dim = len(s.alg_hadamard)
    t_diag -= t_diag.sum() / dim
    f = float(4.0**s.n / dim * np.vdot(y, y).real)
    penalty = float(np.vdot(t, t).real / dim)
    if not want_grad:
        return f, penalty, None, None

    y *= 2.0**(2 * s.n + 1) / dim
    t *= 2.0 / dim
    gvec = _partials(s, w @ b) * e.conj()
    return f, penalty, 2.0 * gvec.real, 2.0 * r * gvec.imag


def _table_values(s: SupportSets, r: np.ndarray, theta: np.ndarray):
    """The table path's values at (r, theta): (w, v, f, penalty). w is the
    khk grid's rows W[a, s] = i^m y_s (y = [hk | k], P_a * Y_s = i^m P) as a
    (d, |hk| + d, 2) float view; v the real coefficients over
    [closure | identity | g2], K'HK then K'K, entry (a, s) adding
    Re(conj(k_a) W[a, s]); v * slot_scale is the u the partials gather."""
    k = r * np.exp(1j * theta)
    # a first read of a table builds them all, so it comes before any
    # temporary: one alive across the build leaves a hole in the heap
    # (0.6 MB more peak RSS on the bench's udu14_gd)
    phase = s.hk_phase.reshape(-1, s.d)
    # both operands carry two axes: a (1, 1) * (1,) product skips the
    # vector loop and rounds differently from the gathered entry rows
    terms = (s.h_coeffs[:, None] * k[None, :] * phase).ravel()
    hk = (np.bincount(s.hk_tgt, weights=terms.real, minlength=len(s.hk_strings))
          + 1j * np.bincount(s.hk_tgt, weights=terms.imag, minlength=len(s.hk_strings)))
    del terms
    rows = np.multiply.outer(PHASES, np.concatenate((hk, k))).take(s.khk_sel)
    del hk
    w = rows.view(float).reshape(s.d, -1, 2)
    v = np.bincount(s.khk_tgt, weights=np.matmul(w, k.view(float).reshape(s.d, 2, 1)).ravel(),
                    minlength=len(s.slot_scale))
    t_g1 = float(2**s.n) * v[len(s.closure) - len(s.g1):len(s.closure)]
    phi = v[len(s.closure) + 1:]
    f = float(np.sum(t_g1 * t_g1))
    penalty = float(np.sum(phi * phi))
    return w, v, f, penalty


def _evaluate_sparse(s: SupportSets, r: np.ndarray, theta: np.ndarray, want_grad: bool):
    w, v, f, penalty = _table_values(s, r, theta)
    if not want_grad:
        return f, penalty, None, None
    z = _partial_rows(s, theta, w, v * s.slot_scale, slice(None))
    return f, penalty, z.real, r * z.imag


def _partial_rows(s: SupportSets, theta, w, u, J):
    """4 z_j for the ansatz indices J (a slice or an index array, repeats
    allowed), from _table_values' w and u, so that dF/dr_j is its real part
    and dF/dtheta_j r_j times its imaginary part. Row j of the grid gives
    e^{-i theta_j} sum_s W[j, s] u[tgt_js], where u holds 4 2^n t_P and
    4 phi_Q: one gather of u and one batched real matmul with W's float
    view."""
    z = np.matmul(u.take(s.grad_tgt[J])[:, None, :], w[J])
    return z.view(complex).ravel() * np.exp(-1j * theta[J])


def _evaluate_algebra(s: SupportSets, r: np.ndarray, theta: np.ndarray, want_grad: bool):
    e = np.exp(1j * theta)
    k = _blocks(s, r * e)
    # [A_c K | K] side by side, A_c K's blocks swapped by gamma_c, then the
    # stack of the B_c = K~_c' A_c K and K'K
    w = np.concatenate((s.alg_h @ k, k), axis=1).take(s.alg_turn)
    b = (k.conj().swapaxes(-1, -2) @ w).take(s.alg_back)
    # each diagonal column loses its diagonal strings' part: the mean over
    # each coset of U's dual, under the column's signs
    v = b.take(s.alg_diag) * s.alg_diag_sign
    v -= v.mean(axis=-1, keepdims=True)
    b.put(s.alg_diag, v * s.alg_diag_sign)
    nb, rows, wd = b.shape
    split = rows - wd
    return _finish(s, r, e, w, b, b[:, :split], b[:, split:],
                   b.reshape(nb, -1)[:, split * wd::wd + 1], want_grad)


# The path rule: two time models in microseconds of one evaluation with the
# gradient, per call once the side's tables or maps are built, fitted by
# tools/path_model.py (BENCH_26_pathfit.json; one BLAS thread). The matrix
# side has two terms, the block products and the Hadamard matmuls; its fit
# points all have k < n, and it predicts the dense path as the case k = n
# (BENCH_27_pathfit.json's held-out rows). The Hadamard term was fitted to
# the matmuls on the (2^m, C 2^k) grids of a coefficient transform the
# algebra engine no longer runs; only _blocks and _partials remain, at
# 2^k 4^m each. The constants stand until a refit, so that no instance
# changes path with the engine.
_ALGEBRA_US = (54.0, 0.0019, 0.00058)  # a + b C 2^l 8^k + c C 2^k 4^m
_TABLE_US = (34.0, 0.0066)  # a + b d (min(|H| d, C 2^(2k+l)) + d)
# the Hadamard matrix of 2^m is built whole: m <= 10 keeps it at 16 MB, and
# the fit has points up to m = 10
_ALGEBRA_MAX_M = 10


def _work(s: SupportSets) -> tuple[int, int, int]:
    """The models' work terms, (C 2^l 8^k, C 2^k 4^m, d (min(|H| d,
    C 2^(2k+l)) + d)), from k, l and C of s's span (from the masks alone), d
    and |H|; C 2^(2k+l) bounds |hk|, since H's terms times the ansatz lie in
    the C cosets. The second term is the Hadamard work of a coefficient
    transform the algebra engine no longer runs; the engines' own Hadamard
    matmuls, in _blocks and _partials, are 2^k 4^m each, without the factor
    C."""
    k = s.span_pairs
    m = len(s.span_basis) - k
    l, c = m - k, len(s.coset_rep)
    return (c << (l + 3 * k), c << (k + 2 * m),
            s.d * (min(len(s.h_strings) * s.d, c << (2 * k + l)) + s.d))


def _predicted_us(s: SupportSets) -> tuple[float, float]:
    """The models' (matrix, table) predictions in microseconds per call."""
    blocks, hadamard, table = _work(s)
    (a, b, b_h), (a_t, b_t) = _ALGEBRA_US, _TABLE_US
    return a + b * blocks + b_h * hadamard, a_t + b_t * table


def _matrix_path_applies(s: SupportSets) -> bool:
    """Whether s takes a matrix path: m = k + l at most _ALGEBRA_MAX_M, and
    the models predict its evaluation per call no slower than the table
    path's. The rule needs no run length, so GD, sampled RCD and single
    evaluations all read one routine."""
    if len(s.span_basis) - s.span_pairs > _ALGEBRA_MAX_M:
        return False
    matrix, table = _predicted_us(s)
    return matrix <= table


def _matrix_engine(s: SupportSets):
    """The matrix engine for s's span: _evaluate_dense where it is the whole
    group (k = n), else _evaluate_algebra."""
    return _evaluate_dense if s.span_pairs == s.n else _evaluate_algebra


def _path(s: SupportSets):
    """The routine s is evaluated on, called as fn(s, r, theta, want_grad)
    and returning (f, penalty, grad_r, grad_theta): _matrix_engine(s) where
    _matrix_path_applies, else _evaluate_sparse (the support tables).
    Choosing builds no product table."""
    return _matrix_engine(s) if _matrix_path_applies(s) else _evaluate_sparse


# an overflow reads inf or NaN, which every caller rejects or stops on, so
# numpy's warnings about it would only be noise (as in _grad_norm)
@np.errstate(over="ignore", invalid="ignore")
def _evaluate(h: PauliSum, kp: KParams, s: SupportSets, want_grad: bool):
    _check(h, kp, s)
    return _path(s)(s, kp.r, kp.theta, want_grad)


def eval_F(h: PauliSum, kp: KParams, s: SupportSets) -> CostReport:
    """Total cost, values only."""
    f, penalty, _, _ = _evaluate(h, kp, s, False)
    return CostReport(f_value=f, penalty=penalty, total=f + penalty)


def eval_grad(h: PauliSum, kp: KParams, s: SupportSets) -> CostReport:
    """Total cost with its exact gradient."""
    f, penalty, gr, gt = _evaluate(h, kp, s, True)
    return CostReport(f_value=f, penalty=penalty, total=f + penalty, grad_r=gr, grad_theta=gt)
