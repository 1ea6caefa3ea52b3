"""Hamiltonian families and warm starts: XXZ chains, Hubbard chains, random
conjugated-diagonal instances, and an anticommuting-chain family whose Lie
closure is full-dimensional.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cost import KParams
from .operators import PauliSum, sum_multiply
from .pauli import MAX_QUBITS, PauliString, commutes, multiply, parse
from .verify import pauli_decompose, to_dense


def build_xxz(n: int, j: float, delta: float) -> PauliSum:
    """Open XXZ chain: j*(XX + YY) plus delta*ZZ on each bond; 3(n-1) terms."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    terms: dict[PauliString, complex] = {}
    for i in range(n - 1):
        terms[PauliString.from_ops(n, {i: "X", i + 1: "X"})] = j
        terms[PauliString.from_ops(n, {i: "Y", i + 1: "Y"})] = j
        terms[PauliString.from_ops(n, {i: "Z", i + 1: "Z"})] = delta
    return PauliSum(n, terms)


def build_hubbard(sites: int, t: float, u: float) -> PauliSum:
    """Open Fermi-Hubbard chain on 2*sites qubits, interleaved spin layout.

    Qubit 2j holds (site j, up) and qubit 2j+1 holds (site j, down). Hopping
    contributes -t/2 (XX + YY) per spin channel and bond; the on-site
    interaction contributes u/4 (-Z_up - Z_down + Z_up Z_down) per site. The
    constant shift is dropped.
    """
    if sites < 1:
        raise ValueError("need at least 1 site")
    n = 2 * sites
    terms: dict[PauliString, complex] = {}
    for j in range(sites - 1):
        for spin in (0, 1):
            a, b = 2 * j + spin, 2 * (j + 1) + spin
            terms[PauliString.from_ops(n, {a: "X", b: "X"})] = -t / 2
            terms[PauliString.from_ops(n, {a: "Y", b: "Y"})] = -t / 2
    for j in range(sites):
        up, dn = 2 * j, 2 * j + 1
        terms[PauliString.from_ops(n, {up: "Z"})] = -u / 4
        terms[PauliString.from_ops(n, {dn: "Z"})] = -u / 4
        terms[PauliString.from_ops(n, {up: "Z", dn: "Z"})] = u / 4
    return PauliSum(n, terms)


@dataclass(frozen=True)
class RotationProduct:
    """Ordered product of Pauli rotations prod_i exp(i * angle_i * P_i).

    factors[0] is the leftmost (outermost) factor of the product.
    """

    n: int
    factors: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        factors = tuple((float(a), p) for a, p in self.factors)
        for _, p in factors:
            if p.n != self.n:
                raise ValueError("rotation generators must share the qubit count")
        object.__setattr__(self, "factors", factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)


def _rotation(angle: float, p: PauliString) -> PauliSum:
    """exp(i*angle*p) = cos(angle)*I + i*sin(angle)*p.

    The two terms are added as sums: a dict literal would keep only one of
    them when p is the identity.
    """
    return PauliSum.identity(p.n, math.cos(angle)) + PauliSum(p.n, {p: 1j * math.sin(angle)})


def expand_rotation_product(rp: RotationProduct) -> PauliSum:
    """Exact Pauli-sum expansion: each factor is cos(a)*I + i*sin(a)*P."""
    acc = PauliSum.identity(rp.n)
    for angle, p in rp.factors:
        acc = sum_multiply(acc, _rotation(angle, p))
    return acc


def conjugate_by_rotation(a: PauliSum, angle: float, p: PauliString) -> PauliSum:
    """exp(i*angle*p) a exp(-i*angle*p), term by term.

    Commuting terms pass through; an anticommuting term Q becomes
    cos(2*angle)*Q + i*sin(2*angle)*(p*Q).
    """
    if a.n != p.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {p.n}")
    c2 = math.cos(2 * angle)
    s2 = math.sin(2 * angle)
    acc: dict[PauliString, complex] = {}
    for q, coeff in a.items():
        if commutes(p, q):
            acc[q] = acc.get(q, 0j) + coeff
        else:
            ph, pq = multiply(p, q)
            acc[q] = acc.get(q, 0j) + coeff * c2
            acc[pq] = acc.get(pq, 0j) + coeff * 1j * s2 * ph
    return PauliSum(a.n, acc)


def build_random_udu(
    n: int, n_diag: int, n_rot: int, seed: int
) -> tuple[PauliSum, RotationProduct, PauliSum]:
    """Random instance with known spectrum: h = u * d * u_adjoint.

    d is a sum of n_diag distinct diagonal strings with coefficients uniform
    in [-1, 1]; u is a product of n_rot rotations about distinct non-diagonal
    strings with angles uniform in [-pi/2, pi/2]. The conjugation is expanded
    exactly, so h's term count is at most n_diag * 2^n_rot.
    """
    # before any 2 ** n: a huge n would build a huge integer first
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    if n_diag < 1:
        raise ValueError("need at least one diagonal string")
    if n_diag > 2 ** n:
        raise ValueError(f"only {2 ** n} diagonal strings exist on {n} qubits")
    if n_rot < 0:
        raise ValueError("n_rot must be nonnegative")
    if n_rot > (2 ** n - 1) * 2 ** n:
        raise ValueError(f"only {(2 ** n - 1) * 2 ** n} non-diagonal strings exist on {n} qubits")
    rng = np.random.default_rng(seed)

    z_seen: set[int] = set()
    d_terms: dict[PauliString, complex] = {}
    while len(d_terms) < n_diag:
        z = int(rng.integers(0, 1 << n))
        if z in z_seen:
            continue
        z_seen.add(z)
        d_terms[PauliString(n, 0, z)] = float(rng.uniform(-1.0, 1.0))
    d_sum = PauliSum(n, d_terms)

    rot_seen: set[tuple[int, int]] = set()
    factors: list[tuple[float, PauliString]] = []
    while len(factors) < n_rot:
        x = int(rng.integers(1, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if (x, z) in rot_seen:
            continue
        rot_seen.add((x, z))
        angle = float(rng.uniform(-math.pi / 2, math.pi / 2))
        factors.append((angle, PauliString(n, x, z)))
    u = RotationProduct(n, tuple(factors))

    h = d_sum
    for angle, p in reversed(factors):
        h = conjugate_by_rotation(h, angle, p)
    return h, u, d_sum


# fields of each gate kind of _prefix_to_sum, the kind included
_GATE_FIELDS = {"s": 2, "h": 2, "cnot": 3, "rot": 3}


def _prefix_to_sum(n: int, gates: Sequence) -> PauliSum:
    """Expand an ordered gate list into an exact Pauli-sum unitary.

    Supported gates: ("s", q), ("h", q), ("cnot", control, target),
    ("rot", angle, pauli string or word). The first gate is the leftmost
    factor of the product.
    """
    ident = PauliString.identity(n)
    acc = PauliSum.identity(n)
    for gate in gates:
        kind = gate[0] if gate else None
        if kind not in _GATE_FIELDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(gate) != _GATE_FIELDS[kind]:
            raise ValueError(f"gate {list(gate)!r}: expected {_GATE_FIELDS[kind]} fields")
        # a boolean is a number: True would act on qubit 1 or rotate by 1 rad
        qubits = gate[1:] if kind != "rot" else ()
        for q in qubits:
            if isinstance(q, bool) or not isinstance(q, numbers.Integral):
                raise ValueError(f"gate {list(gate)!r}: qubit {q!r} is not an integer")
            if not 0 <= q < n:
                raise ValueError(f"gate {list(gate)!r}: qubit {q} outside [0, {n})")
        if kind == "s":
            q = gate[1]
            g = PauliSum(
                n, {ident: (1 + 1j) / 2, PauliString.from_ops(n, {q: "Z"}): (1 - 1j) / 2}
            )
        elif kind == "h":
            q = gate[1]
            inv_sqrt2 = 1.0 / math.sqrt(2.0)
            g = PauliSum(n, {
                PauliString.from_ops(n, {q: "X"}): inv_sqrt2,
                PauliString.from_ops(n, {q: "Z"}): inv_sqrt2,
            })
        elif kind == "cnot":
            ctl, tgt = gate[1], gate[2]
            if ctl == tgt:
                # from_ops would keep one of the two ops on the shared qubit
                raise ValueError(
                    f"gate {list(gate)!r}: control and target must be distinct qubits"
                )
            g = PauliSum(n, {
                ident: 0.5,
                PauliString.from_ops(n, {ctl: "Z"}): 0.5,
                PauliString.from_ops(n, {tgt: "X"}): 0.5,
                PauliString.from_ops(n, {ctl: "Z", tgt: "X"}): -0.5,
            })
        elif kind == "rot":
            angle, p = gate[1], gate[2]
            if isinstance(angle, bool) or not isinstance(angle, numbers.Real):
                raise ValueError(f"gate {list(gate)!r}: angle {angle!r} is not a number")
            # abs(), not math.isfinite: an integer beyond the float range overflows it
            if not abs(angle) <= sys.float_info.max:
                raise ValueError(f"gate {list(gate)!r}: angle {angle!r} is not a finite number")
            if isinstance(p, str):
                try:
                    p = parse(p, n)
                except ValueError as exc:
                    raise ValueError(f"gate {list(gate)!r}: {exc}") from None
            elif not isinstance(p, PauliString):
                raise ValueError(f"gate {list(gate)!r}: generator {p!r} is not a Pauli word")
            if p.n != n:
                raise ValueError("rotation generator on wrong qubit count")
            g = _rotation(angle, p)
        acc = sum_multiply(acc, g)
    return acc


def build_example_hams(
    n: int,
    theta: float,
    c: Sequence[float],
    d: Sequence[float],
    clifford_prefix: Optional[Sequence] = None,
) -> tuple[PauliSum, PauliSum, PauliSum]:
    """Family with provably full-dimensional Lie closure.

    U = prefix * (cos(theta) I + i sin(theta) Z_2) * sum_j c_j A_j where the
    A_j are n+1 pairwise-anticommuting strings (X1Y2, Z1Y2, Z2, then chains
    X2 Y3..Y_{j-1} Z_j), and D = I + sum_j d_j Y_j. Returns (H, U, D) with
    H = U D U_adjoint expanded exactly.

    Requires sum c_j^2 = 1 with every c_j nonzero (this makes the
    anticommuting combination unitary), theta not a multiple of pi, and
    every d_j nonzero.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    c_vec = np.asarray(c, dtype=float)
    d_vec = np.asarray(d, dtype=float)
    if c_vec.shape != (n + 1,):
        raise ValueError(f"c must have {n + 1} entries, got shape {c_vec.shape}")
    if d_vec.shape != (n,):
        raise ValueError(f"d must have {n} entries, got shape {d_vec.shape}")
    with np.errstate(over="ignore"):  # an entry beyond 1e154 squares to inf
        square_sum = float(c_vec @ c_vec)
    if abs(square_sum - 1.0) > 1e-12:
        raise ValueError("entries of c must have unit square sum")
    if np.any(c_vec == 0.0):
        raise ValueError("every entry of c must be nonzero")
    if abs(math.sin(theta)) < 1e-12:
        raise ValueError("theta must not be a multiple of pi")
    if np.any(d_vec == 0.0):
        raise ValueError("every entry of d must be nonzero")

    gens = [
        PauliString.from_ops(n, {0: "X", 1: "Y"}),
        PauliString.from_ops(n, {0: "Z", 1: "Y"}),
        PauliString.from_ops(n, {1: "Z"}),
    ]
    for j in range(3, n + 1):
        chain = {q: "Y" for q in range(2, j - 1)}
        gens.append(PauliString.from_ops(n, {1: "X", **chain, j - 1: "Z"}))
    for i in range(len(gens)):
        for k in range(i):
            assert not commutes(gens[i], gens[k]), "generator family must anticommute"

    a_sum = PauliSum(n, {g: coeff for g, coeff in zip(gens, c_vec)})
    u = sum_multiply(_rotation(theta, PauliString.from_ops(n, {1: "Z"})), a_sum)
    if clifford_prefix:
        u = sum_multiply(_prefix_to_sum(n, clifford_prefix), u)

    d_sum = PauliSum.identity(n)
    d_sum = d_sum + PauliSum(
        n, {PauliString.from_ops(n, {q: "Y"}): dv for q, dv in enumerate(d_vec)}
    )
    h = sum_multiply(sum_multiply(u, d_sum), u.adjoint())
    # H is Hermitian by construction: the imaginary parts of its coefficients
    # are rounding, which grows with d past HERMITIAN_TOL
    h = PauliSum(n, {p: c.real for p, c in h.items()})
    return h, u, d_sum


def warm_start_from_dense(h: PauliSum, prune_tol: float = 1e-12) -> KParams:
    """Ansatz and parameters from a dense eigendecomposition of h.

    The eigenvector matrix (ascending eigenvalues, each column's
    largest-magnitude entry gauged real positive) is expanded in the Pauli
    basis; strings below prune_tol are dropped and amplitudes renormalized
    to a unit vector. For a unitary matrix the expansion weights already
    satisfy sum |k_P|^2 = 1, so the renormalization only absorbs pruning
    and roundoff.
    """
    hd = to_dense(h)
    _, evecs = np.linalg.eigh(hd)
    dim = evecs.shape[0]
    lead = np.argmax(np.abs(evecs), axis=0)
    gauge = evecs[lead, np.arange(dim)]
    gauge = gauge / np.abs(gauge)
    k = evecs * gauge.conj()

    expansion = pauli_decompose(k, h.n, prune_tol=prune_tol)
    if len(expansion) == 0:
        raise ValueError("pruning removed every ansatz string")
    return params_from_expansion(expansion)


def params_from_expansion(expansion: PauliSum) -> KParams:
    """KParams of K = sum_P k_P P: the strings in PauliString order,
    r = |k_P| renormalized to a unit vector, theta = arg k_P."""
    strings = tuple(sorted(expansion.strings()))
    coeffs = np.array([expansion.coefficient(p) for p in strings])
    r = np.abs(coeffs)
    return KParams(strings, r / np.linalg.norm(r), np.angle(coeffs))
