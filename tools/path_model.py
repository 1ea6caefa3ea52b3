"""Measure the two sides of cost's path rule and fit its time models.

    python3 tools/path_model.py [--out FILE]

The rule (cost._matrix_path_applies) takes a matrix engine only where
m = k + l is at most cost._ALGEBRA_MAX_M and its evaluation per call is
predicted no slower than the table path's. The engine is the dense one
where the span is the whole group (k = n), the algebra one elsewhere
(cost._matrix_engine). The two models are linear in microseconds:

    matrix evaluation  ~ a + b * C 2^l 8^k + c * C 2^k 4^m
    table evaluation   ~ a' + b' * d (min(|H| d, C 2^(2k+l)) + d)

k, l and C are the pairs, central elements and H cosets of the ansatz's
span (operators._span_tables), and the work terms are cost._work's. The
matrix side's two terms are the block products (2^l blocks of 2^k x 2^k
per coset) and the Hadamard matmuls on the (2^m, C 2^k) grids. Each fit
point is a random_udu instance with its known diagonalizer's strings as
ansatz (a subgroup), or a random subset of them, or an instance with large
l (LARGE_L), at one BLAS thread. The held-out points are measured and
predicted but not fit: random strings spanning the whole group with a
random H (FULL_SPAN, check 13's kind), and small random_udu instances near
the crossover (SMALL). A time is the minimum per call over repeated
evaluations with the gradient on built tables or maps, each on the engine
cost._path would use on the matrix side, the two sides timed in turn; each
side's one-time build is not timed. Every fit minimizes the squared
relative error.

One line is printed per point with its measured times, then the two fits
with their largest relative error, then one line per point with the
matrix engine, whether the fitted models predict the matrix side, whether
the measured times give it, and the routine cost._path picks with the
committed constants. The output JSON holds every point and the fits;
cost.py's constants are copied from it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import timeit
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from paulidiag import cost, models  # noqa: E402
from paulidiag.cost import KParams  # noqa: E402
from paulidiag.operators import PauliSum, build_support_sets  # noqa: E402
from paulidiag.pauli import PauliString, parse  # noqa: E402

# (n, n_diag, n_rot, model seed, kept share of the ansatz or None)
INSTANCES = [
    (6, 4, 3, 0, None), (6, 8, 5, 1, None), (8, 8, 4, 2, None), (8, 12, 6, 3, None),
    (8, 6, 8, 12, None), (10, 12, 5, 2, None), (10, 20, 7, 4, None), (10, 12, 7, 10, 0.3),
    (12, 16, 6, 5, None), (12, 20, 8, 6, None), (12, 20, 8, 11, 0.2), (14, 20, 7, 1, None),
    (14, 30, 8, 7, None), (16, 40, 6, 9, None), (16, 20, 9, 8, None), (20, 20, 9, 1, None),
]


# ansaetze with large l (n, l central, k pairs, d, |H|, seed): d
# X-type strings on qubits 0..l-1 (the l single-qubit X among them) and X
# and Z on each of the k qubits after them; H's terms are X-type on the
# first l qubits times any Pauli on the pair qubits (the span), each with
# probability 1/2 a single Z on one of the first l qubits (another coset)
LARGE_L = [
    (10, 6, 0, 24, 60, 20), (12, 8, 0, 40, 120, 21), (14, 10, 0, 48, 200, 22),
    (16, 8, 0, 32, 200, 23), (12, 10, 0, 16, 40, 24), (14, 7, 2, 40, 120, 25),
    (16, 6, 3, 64, 160, 26),
]


# held-out ansaetze spanning the whole group (n, d, seed): d random strings
# (all 4^n where d = 4^n), H of 2n + 1 random non-identity terms
FULL_SPAN = [
    (3, 34, 39), (3, 42, 40), (3, 46, 41), (4, 16, 30), (4, 24, 42), (4, 64, 31),
    (5, 32, 32), (5, 128, 33), (5, 1024, 34), (6, 64, 35), (6, 256, 36), (7, 256, 37),
    (8, 512, 38),
]

# held-out small instances near the crossover, as INSTANCES: d = 16 or 32,
# k <= 2, m <= 4
SMALL = [
    (4, 12, 5, 0, None), (6, 4, 5, 0, None), (7, 12, 5, 0, 0.5), (8, 12, 4, 0, None),
    (11, 12, 4, 0, None), (12, 8, 5, 1, 0.5),
]


def full_span_instance(n, d, seed):
    rng = np.random.default_rng(seed)
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
    hw = rng.choice(len(words) - 1, size=2 * n + 1, replace=False) + 1
    h = PauliSum(n, [(parse(words[i]), c) for i, c in zip(hw, rng.uniform(-1, 1, 2 * n + 1))])
    strings = sorted(parse(words[i]) for i in rng.choice(len(words), size=d, replace=False))
    r = rng.uniform(0.2, 1.0, d)
    return h, KParams(tuple(strings), r / np.linalg.norm(r), rng.uniform(0, 2 * np.pi, d))


def large_l_instance(n, l, k, d, n_h, seed):
    rng = np.random.default_rng(seed)
    pairs = [(1 << q, 0) for q in range(l, l + k)] + [(0, 1 << q) for q in range(l, l + k)]
    x_masks = {1 << q for q in range(l)}
    while len(x_masks) < d - 2 * k:
        x_masks.add(int(rng.integers(1, 1 << l)))
    strings = sorted(PauliString(n, x, z) for x, z in pairs + [(x, 0) for x in x_masks])
    terms = {}
    while len(terms) < n_h:
        x = int(rng.integers(0, 1 << l)) | (int(rng.integers(0, 1 << k)) << l)
        z = int(rng.integers(0, 1 << k)) << l
        if rng.random() < 0.5:
            z |= 1 << int(rng.integers(0, l))
        terms[PauliString(n, x, z)] = rng.uniform(-1, 1)
    r = rng.uniform(0.2, 1.0, len(strings))
    return (PauliSum(n, terms.items()),
            KParams(tuple(strings), r / np.linalg.norm(r), rng.uniform(0, 2 * np.pi, len(r))))


def instance(n, n_diag, n_rot, seed, share):
    h, u, _ = models.build_random_udu(n, n_diag, n_rot, seed=seed)
    strings = sorted(models.expand_rotation_product(u).strings())
    rng = np.random.default_rng(seed)
    if share is not None:
        keep = rng.choice(len(strings), size=max(1, int(share * len(strings))), replace=False)
        strings = [strings[i] for i in np.sort(keep)]
    r = rng.uniform(0.2, 1.0, len(strings))
    return h, KParams(tuple(strings), r / np.linalg.norm(r), rng.uniform(0, 2 * np.pi, len(r)))


def features(s) -> dict:
    k = s.span_pairs
    return {"n": s.n, "d": s.d, "H": len(s.h_strings), "k": k,
            "l": len(s.span_basis) - 2 * k, "C": len(s.coset_rep),
            **dict(zip(("block_work", "hadamard_work", "table_work"), cost._work(s)))}


def measure(h, kp, repeat=5) -> dict:
    """The point's features, its matrix engine, the routine cost._path picks,
    and each side's minimum time per call over repeat timings of about
    20 ms each. The two sides take turns, repeat by repeat, so load from
    other processes during a run reaches both alike."""
    s = build_support_sets(h, kp.ansatz)
    matrix = cost._matrix_engine(s)
    timers = [timeit.Timer(lambda fn=fn: fn(s, kp.r, kp.theta, True))
              for fn in (matrix, cost._evaluate_sparse)]
    numbers = [max(1, int(0.02 / min(t.repeat(number=1, repeat=3)))) for t in timers]
    times = np.min([[t.timeit(k) / k for t, k in zip(timers, numbers)] for _ in range(repeat)],
                   axis=0)
    return {**features(s), "engine": matrix.__name__, "rule": cost._path(s).__name__,
            "matrix_us": 1e6 * float(times[0]), "table_us": 1e6 * float(times[1])}


def fit(t, *xs) -> list[float]:
    """(a, b, ...) minimizing sum ((a + b x + ...) / t - 1)^2."""
    t = np.asarray(t, float)
    cols = [1 / t] + [np.asarray(x, float) / t for x in xs]
    coef, *_ = np.linalg.lstsq(np.stack(cols, axis=1), np.ones_like(t), rcond=None)
    return [float(v) for v in coef]


def predict(coef, *xs) -> float:
    return coef[0] + sum(b * x for b, x in zip(coef[1:], xs))


# (time field, feature fields) of each model, in cost.py's order
MODELS = {"matrix_us": ("block_work", "hadamard_work"), "table_us": ("table_work",)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    points, held_out = [], []
    for group, specs in ((points, [instance(*spec) for spec in INSTANCES]
                          + [large_l_instance(*spec) for spec in LARGE_L]),
                         (held_out, [full_span_instance(*spec) for spec in FULL_SPAN]
                          + [instance(*spec) for spec in SMALL])):
        for h, kp in specs:
            point = measure(h, kp)
            print(json.dumps(point), flush=True)
            group.append(point)
    fits = {}
    for name, xs in MODELS.items():
        coef = fit([p[name] for p in points], *([p[x] for p in points] for x in xs))
        for p in points + held_out:
            p[name.replace("_us", "_predicted_us")] = predict(coef, *(p[x] for x in xs))
        error = max(abs(p[name.replace("_us", "_predicted_us")] / p[name] - 1) for p in points)
        fits[name] = {"coef": coef, "max_rel_error": error}
    for p in points + held_out:
        p["matrix_predicted"] = p["matrix_predicted_us"] <= p["table_predicted_us"]
        p["matrix_measured"] = p["matrix_us"] <= p["table_us"]
    print(json.dumps(fits))
    for p in points + held_out:
        print(json.dumps({key: p[key] for key in ("n", "d", "k", "l", "C", "engine",
                                                  "matrix_predicted", "matrix_measured",
                                                  "rule")}))
    if args.out is not None:
        args.out.write_text(json.dumps({"fits": fits, "points": points, "held_out": held_out},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
