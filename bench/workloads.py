"""Benchmark workloads as `paulidiag diagonalize` configs.

Each workload is a CLI run config built from the workload seed, plus rho:
the optimizer stops once F < rho * F0, F0 being the cost at the start point.
Because the target is relative, every seed has a reachable target.

The Hamiltonians are fixed instances. The workload seed moves the start
point by +-1e-4 (the config's init perturbation) around a fixed base point:
- xxz4_dense: the dense warm start of the Delta=0.8 chain;
- the random_udu workloads: a saved point, their known diagonalizer
  perturbed by +-1e-2 with perturbation seed 0, written by
  bench/pipeline.py's `write_start` before the repetitions.

The model seed, the base point and the RCD sampling seed stay fixed because
they set the iteration count, which would otherwise bury any change in
seed-to-seed spread. Measured steps to the target over seeds: random_udu
model seeds 0-9 spread them over 4x; start perturbations of +-1e-2 over 2x
(udu14_gd, seeds 0-15) and 5x (udu10_rcd, seeds 0-7); +-1e-3 around the xxz
warm start by +-8%; RCD sampling seeds 0-9 by +-10%. The +-1e-4 jitter moves
them by under 3% on every workload.

This module imports nothing from paulidiag, so the parent process can read
it without loading NumPy.
"""

from __future__ import annotations

from pathlib import Path

RHO = {"xxz4_dense": 2e-5, "udu10_rcd": 1e-3, "udu14_gd": 1e-3}

# layers predicted to carry at least half of the traced run_s
DOMINANT = {
    "xxz4_dense": ("optimize", "cost"),
    "udu10_rcd": ("optimize", "verify"),
    "udu14_gd": ("operators",),
}

NAMES = tuple(RHO)

START_DIR = Path(".bench_out") / "starts"
JITTER = 1e-4


def _xxz(delta: float) -> dict:
    return {"family": "xxz", "n": 4, "j": 1.0, "delta": delta}


def _udu(n: int, n_diag: int, n_rot: int, model_seed: int) -> dict:
    return {"family": "random_udu", "n": n, "n_diag": n_diag, "n_rot": n_rot,
            "seed": model_seed}


# model, algorithm, optimizer settings
_UDU = {
    "udu10_rcd": (_udu(10, 12, 5, 2), "rcd", {"max_iters": 20000, "block_size": 4}),
    "udu14_gd": (_udu(14, 20, 7, 1), "gd", {"max_iters": 2000}),
}


def start_file(name: str) -> Path:
    return START_DIR / f"{name}.json"


def start_config(name: str) -> dict | None:
    """Config whose perturbed start is the workload's saved base point, or
    None for a workload that starts from a warm start instead."""
    if name not in _UDU:
        return None
    return {"model": _UDU[name][0], "ansatz_source": {"kind": "udu_support"},
            "init": {"perturb": 1e-2, "seed": 0}}


def config(name: str, seed: int) -> dict:
    """CLI config for one workload; opt.stop_tol is filled in once F0 is known."""
    if name == "xxz4_dense":
        return {
            "model": _xxz(1.0),
            "algorithm": "gd",
            "ansatz_source": {"kind": "warm_start", "reference": _xxz(0.8)},
            "init": {"perturb": JITTER, "seed": seed},
            "opt": {"max_iters": 40000, "seed": 0},
        }
    if name in _UDU:
        model, algorithm, opt = _UDU[name]
        return {
            "model": model,
            "algorithm": algorithm,
            "ansatz_source": {"kind": "file", "path": str(start_file(name))},
            "init": {"perturb": JITTER, "seed": seed},
            "opt": {**opt, "seed": 0},
        }
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
