"""Shared test helpers: a dense matrix oracle independent of the package.

The oracle is built from literal 2x2 matrices and np.kron so that the
package's own dense conversion is one of the things under test, never the
thing doing the testing. k_as_sum, conjugate, trace_with and
string_to_dense are reference routines the tests compare the evaluators
with.
"""

import numpy as np
import pytest

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_word(word: str) -> np.ndarray:
    """Kron chain with qubit 0 as the leftmost factor."""
    m = SIGMA[word[0]]
    for ch in word[1:]:
        m = np.kron(m, SIGMA[ch])
    return m


def dense_terms(terms, n: int) -> np.ndarray:
    """Dense matrix of {word: coeff} or iterable of (word, coeff)."""
    items = terms.items() if hasattr(terms, "items") else terms
    m = np.zeros((2**n, 2**n), dtype=complex)
    for word, c in items:
        m += c * dense_word(word)
    return m


def k_as_sum(kp):
    """K as an explicit PauliSum with coefficients r_j e^{i theta_j}."""
    from paulidiag.operators import PauliSum

    return PauliSum(kp.n, zip(kp.ansatz, kp.r * np.exp(1j * kp.theta)))


def conjugate(h, k):
    """k_adjoint * h * k."""
    from paulidiag.operators import sum_multiply

    return sum_multiply(k.adjoint(), sum_multiply(h, k))


def trace_with(a, p) -> complex:
    """tr(A P) = 2^n * coefficient of P in A."""
    if a.n != p.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {p.n}")
    return (2**a.n) * a.coefficient(p)


def string_to_dense(p) -> np.ndarray:
    """2^n x 2^n complex matrix of a Pauli string (to_dense of the one-term sum)."""
    from paulidiag.operators import PauliSum
    from paulidiag.verify import to_dense

    return to_dense(PauliSum(p.n, [(p, 1.0)]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def random_instance(rng, n, d, m=None):
    """Random (h, kp, support) triple with unit-norm r; shared by cost tests
    and the acceptance battery."""
    import itertools

    from paulidiag.cost import KParams
    from paulidiag.operators import PauliSum, build_support_sets
    from paulidiag.pauli import parse

    words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
    if m is None:
        m = min(2 * n + 1, len(words))
    hw = rng.choice(len(words), size=m, replace=False)
    h = PauliSum(n, [(parse(words[i]), c) for i, c in zip(hw, rng.uniform(-1, 1, m))])
    aw = rng.choice(len(words), size=min(d, len(words)), replace=False)
    ansatz = tuple(sorted(parse(words[i]) for i in aw))
    r = rng.uniform(0.2, 1.0, len(ansatz))
    r /= np.linalg.norm(r)
    theta = rng.uniform(0.0, 2 * np.pi, len(ansatz))
    kp = KParams(ansatz, r, theta)
    return h, kp, build_support_sets(h, ansatz)


def workload_instance(name, seed=1):
    """(h, kp) of a benchmark workload's start at a workload seed, built from
    bench/workloads.py's configs as bench/pipeline.py builds it: the
    config's init perturbation applied to its warm start, or to the
    workload's saved base point (start_config's perturbed start)."""
    import sys
    from pathlib import Path

    from paulidiag import cli

    # bench/workloads.py imports nothing from paulidiag
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import config, start_config

    cfg, base = config(name, seed), start_config(name)
    h, u = cli.build_model(cfg["model"])
    if base is None:
        kp = cli.build_initial_params(cfg, h, u)
    else:
        kp = cli.build_initial_params(base, h, u)
        kp = cli._perturbed(kp, base["init"]["perturb"], base["init"]["seed"])
    return h, cli._perturbed(kp, cfg["init"]["perturb"], cfg["init"]["seed"])


def gf2_span(vectors) -> set[int]:
    """Every XOR of a subset of the int vectors, by closing {0} under XOR:
    the brute-force span the GF(2) routines are checked against."""
    span = {0}
    for v in vectors:
        span |= {w ^ v for w in span}
    return span


def key_strings(n, keys):
    """The PauliStrings of a support table's packed keys, in table order."""
    from paulidiag.pauli import PauliString, unpack_keys

    x, z = unpack_keys(keys)
    return tuple(PauliString(n, xi, zi) for xi, zi in zip(x.tolist(), z.tolist()))


def fd_gradient(func, r, theta, step=1e-5):
    """Central finite differences of func(r, theta) in all 2d coordinates."""
    d = len(r)
    gr = np.zeros(d)
    gt = np.zeros(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        gr[j] = (func(r + e, theta) - func(r - e, theta)) / (2 * step)
        gt[j] = (func(r, theta + e) - func(r, theta - e)) / (2 * step)
    return gr, gt


# --- acceptance summary --------------------------------------------------------

ACCEPTANCE_LINES: dict[int, str] = {}


def record_acceptance(num: int, name: str, ok: bool, detail: str) -> str:
    """Register one PASS/FAIL line for the end-of-run acceptance block."""
    line = f"check {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES[num] = line
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for num in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(ACCEPTANCE_LINES[num])
