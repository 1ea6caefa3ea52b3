"""Batch command line front-end.

Subcommands:
  diagonalize   build a model, run an optimizer, write trace/params/report
  verify        recompute the error report for saved params against a
                Hamiltonian file; exit 0 iff the a posteriori bounds hold
  liedim        commutator-closure dimension of a model's support strings
  trace-export  convert a JSON-lines trace into plot-ready CSV files

Exit codes: 0 success, 1 config or input error, 2 radial collapse,
3 dense verification infeasible, 4 bounds violated (verify only),
5 non-finite cost or gradient (trace.jsonl and params.json are written,
no report).

A --sweep runs its configs in a pool of worker processes and prints one
line per run. A run whose config is invalid, or is not a JSON object,
prints "run_XXX: config error: <message>" and counts as exit 1. A run that
raises an unexpected error prints
"run_XXX: error: <Type>: <message>" (its traceback goes to stderr) and
counts as exit 1; the other runs still finish and print their summaries.
The sweep's exit code is the first non-zero code in run order.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cost import KParams, eval_grad
from .models import (
    build_example_hams,
    build_hubbard,
    build_random_udu,
    build_xxz,
    expand_rotation_product,
    warm_start_from_dense,
)
from .operators import PauliSum, build_support_sets, load_hamiltonian
from .optimize import (
    GD_DEFAULT_LR,
    RCD_DEFAULT_LR,
    LRSchedule,
    OptConfig,
    RadialCollapseError,
    rolling_median,
    run_gd,
    run_rcd,
)
from .pauli import PauliString, parse
from .verify import DenseLimitError, diag_report, lie_closure_dim

FULL_BASIS_MAX_QUBITS = 5


class ConfigError(ValueError):
    """Invalid configuration or input file; maps to exit code 1."""


def _load_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return cfg[key]


def _number(value, key: str, integer: bool = False):
    """A config value as a finite float, or as an int when integer is set.

    Booleans, strings, NaN, infinities (and integers beyond the float range)
    and fractions for an integer key raise ConfigError naming the key, where
    int() would truncate and float() would pass NaN through."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    if integer and value != int(value):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(value) if integer else float(value)


def _section(cfg, key: str) -> dict:
    """cfg[key], an object (empty when the key is absent)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected an object")
    raw = cfg.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{key}: expected an object")
    return raw


def _prefix_from_config(raw) -> list:
    return [tuple(gate) for gate in raw]


def build_model(spec: dict):
    """Build (h, u_or_None) from a model config dict."""
    if not isinstance(spec, dict):
        raise ConfigError("model: expected an object")
    family = _require(spec, "family", "model")

    def number(key, default=None, integer=False):
        value = _require(spec, key, "model") if default is None else spec.get(key, default)
        return _number(value, f"model.{key}", integer)

    def numbers(key):
        return [_number(v, f"model.{key}") for v in _require(spec, key, "model")]

    try:
        if family == "xxz":
            h = build_xxz(number("n", integer=True), number("j", 1.0), number("delta", 1.0))
            return h, None
        if family == "hubbard":
            h = build_hubbard(number("sites", integer=True), number("t", 1.0), number("u", 4.0))
            return h, None
        if family == "random_udu":
            h, u, _ = build_random_udu(
                number("n", integer=True),
                number("n_diag", integer=True),
                number("n_rot", integer=True),
                number("seed", 0, integer=True),
            )
            return h, expand_rotation_product(u)
        if family == "example_hams":
            h, u, _ = build_example_hams(
                number("n", integer=True),
                number("theta"),
                numbers("c"),
                numbers("d"),
                clifford_prefix=_prefix_from_config(spec.get("prefix", [])) or None,
            )
            return h, u
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    raise ConfigError(f"model: unknown family {family!r}")


def _params_from_expansion(expansion: PauliSum) -> KParams:
    strings = tuple(sorted(expansion.strings()))
    coeffs = np.array([expansion.coefficient(p) for p in strings])
    r = np.abs(coeffs)
    return KParams(strings, r / np.linalg.norm(r), np.angle(coeffs))


def save_params(path, kp: KParams) -> None:
    payload = {
        "n": kp.n,
        "ansatz": [p.word for p in kp.ansatz],
        "r": [float(v) for v in kp.r],
        "theta": [float(v) for v in kp.theta],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_params(path) -> KParams:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in ("n", "ansatz", "r", "theta"):
        if key not in raw:
            raise ConfigError(f"{path}: missing key {key!r}")
    n = _number(raw["n"], f"{path}: n", integer=True)
    try:
        ansatz = tuple(parse(w, n) for w in raw["ansatz"])
        kp = KParams(ansatz, np.array(raw["r"], dtype=float),
                     np.array(raw["theta"], dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for key in ("r", "theta"):
        if not np.all(np.isfinite(getattr(kp, key))):
            raise ConfigError(f"{path}: non-finite value in {key!r}")
    return kp


def build_initial_params(cfg: dict, h: PauliSum, u_expansion) -> KParams:
    source = _require(cfg, "ansatz_source", "config")
    if not isinstance(source, dict):
        raise ConfigError("ansatz_source: expected an object with a 'kind'")
    kind = _require(source, "kind", "ansatz_source")
    if kind == "udu_support":
        if u_expansion is None:
            raise ConfigError(
                "ansatz_source udu_support requires a model with a known "
                "unitary (random_udu or example_hams)"
            )
        return _params_from_expansion(u_expansion)
    if kind == "full_basis":
        if h.n > FULL_BASIS_MAX_QUBITS:
            raise ConfigError(
                f"full_basis allowed only for n <= {FULL_BASIS_MAX_QUBITS}"
            )
        strings = tuple(sorted(
            PauliString(h.n, x, z)
            for x in range(1 << h.n) for z in range(1 << h.n)
        ))
        r = np.zeros(len(strings))
        r[strings.index(PauliString.identity(h.n))] = 1.0
        return KParams(strings, r, np.zeros(len(strings)))
    if kind == "warm_start":
        ref_h, _ = build_model(_require(source, "reference", "ansatz_source"))
        if ref_h.n != h.n:
            raise ConfigError("warm_start reference has a different qubit count")
        return warm_start_from_dense(
            ref_h, prune_tol=_number(source.get("prune_tol", 1e-12), "ansatz_source.prune_tol")
        )
    if kind == "file":
        kp = load_params(_require(source, "path", "ansatz_source"))
        if kp.n != h.n:
            raise ConfigError("params file has a different qubit count")
        return kp
    raise ConfigError(f"ansatz_source: unknown kind {kind!r}")


def _perturbed(kp: KParams, perturb: float, seed: int) -> KParams:
    if perturb == 0.0:
        return kp.normalized()
    rng = np.random.default_rng(seed)
    r = np.abs(kp.r + rng.uniform(-perturb, perturb, kp.d))
    theta = kp.theta + rng.uniform(-perturb, perturb, kp.d)
    norm = np.linalg.norm(r)
    if norm == 0.0:
        raise ConfigError("init perturbation produced a zero amplitude vector")
    return kp.with_params(r / norm, theta)


def _lr_from_config(raw) -> LRSchedule | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("opt.lr: expected an object")
    kind = raw.get("kind", "constant")
    if kind not in ("constant", "decay"):
        raise ConfigError(f"opt.lr: unknown kind {kind!r}")
    keys = ("a0",) if kind == "constant" else ("a0", "rate")
    args = [_number(_require(raw, key, "opt.lr"), f"opt.lr.{key}") for key in keys]
    try:
        return LRSchedule(kind, *args)
    except ValueError as exc:
        raise ConfigError(f"opt.lr: {exc}") from exc


def _opt_seed(cfg) -> int:
    return _number(_section(cfg, "opt").get("seed", 0), "opt.seed", integer=True)


# opt.* keys with their defaults; a key with an integer default takes integers
_OPT_DEFAULTS = {"max_iters": 5000, "block_size": 4, "stop_tol": 1e-10, "grad_tol": 1e-12}


def _opt_config(cfg: dict, seed_override) -> OptConfig:
    """opt.* as an OptConfig; keys it does not know (such as the retired
    refresh_every) are ignored."""
    raw = _section(cfg, "opt")
    values = {key: _number(raw.get(key, default), f"opt.{key}", isinstance(default, int))
              for key, default in _OPT_DEFAULTS.items()}
    seed = _opt_seed(cfg) if seed_override is None else int(seed_override)
    lr = _lr_from_config(raw.get("lr"))
    try:
        return OptConfig(lr=lr, seed=seed, **values)
    except ValueError as exc:
        raise ConfigError(f"opt: {exc}") from exc


def _auto_lr(h: PauliSum, kp0: KParams, support, algorithm: str) -> LRSchedule:
    """Constant step scaled to the start point: min(base, 1.2 F0 / ||g0||^2).

    The quartic cost has no global curvature bound, so the fixed per-algorithm
    base step is kept only when the initial gradient is shallow enough for it;
    steep starts get the smaller quadratic-model estimate.
    """
    base = (GD_DEFAULT_LR if algorithm == "gd" else RCD_DEFAULT_LR).a
    g0 = eval_grad(h, kp0, support)
    if g0.grad_norm > 0.0 and g0.total > 0.0:
        base = min(base, 1.2 * g0.total / g0.grad_norm**2)
    return LRSchedule.constant(base)


def run_single(cfg: dict, out_dir: Path, seed_override=None) -> tuple[int, str]:
    """One diagonalization run. Returns (exit code, summary line)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected an object")
    h, u_expansion = build_model(_require(cfg, "model", "config"))
    algorithm = _require(cfg, "algorithm", "config")
    if algorithm not in ("gd", "rcd"):
        raise ConfigError(f"algorithm: expected 'gd' or 'rcd', got {algorithm!r}")
    opt_cfg = _opt_config(cfg, seed_override)

    kp0 = build_initial_params(cfg, h, u_expansion)
    init = _section(cfg, "init")
    kp0 = _perturbed(kp0, _number(init.get("perturb", 0.0), "init.perturb"),
                     _number(init.get("seed", opt_cfg.seed + 1000), "init.seed", integer=True))

    support = build_support_sets(h, kp0.ansatz)
    if opt_cfg.lr is None:
        opt_cfg = replace(opt_cfg, lr=_auto_lr(h, kp0, support, algorithm))
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if algorithm == "gd":
            trace = run_gd(h, kp0, opt_cfg, support)
        else:
            trace = run_rcd(h, kp0, opt_cfg, support)
    except RadialCollapseError as exc:
        exc.trace.save_jsonl(out_dir / "trace.jsonl")
        save_params(out_dir / "params.json", exc.trace.final_params)
        return 2, f"aborted: {exc}"

    trace.save_jsonl(out_dir / "trace.jsonl")
    save_params(out_dir / "params.json", trace.final_params)

    final = trace.records[-1]
    iterations = final.iteration
    if trace.stop_reason == "non_finite":
        return 5, (f"aborted: final_F={final.F_total:.3e} grad_norm={final.grad_norm:.3e} "
                   f"iterations={iterations} stop=non_finite")
    try:
        rep0 = diag_report(h, kp0, trace.records[0].f_value, trace.records[0].penalty)
        rep1 = diag_report(h, trace.final_params, final.f_value, final.penalty)
    except DenseLimitError:
        payload = {
            "error": "dense verification infeasible",
            "n": h.n,
            "final_F": final.F_total,
            "iterations": iterations,
            "stop_reason": trace.stop_reason,
        }
        (out_dir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
        summary = (f"initial_error=n/a final_error=n/a final_F={final.F_total:.3e} "
                   f"iterations={iterations} stop={trace.stop_reason}")
        return 3, summary
    payload = rep1.as_dict()
    payload.update({
        "initial_frob_error": rep0.frob_error,
        "iterations": iterations,
        "stop_reason": trace.stop_reason,
    })
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    summary = (f"initial_error={rep0.frob_error:.6g} "
               f"final_error={rep1.frob_error:.6g} "
               f"iterations={iterations} stop={trace.stop_reason}")
    return 0, summary


def _sweep_worker(item):
    index, cfg, out_dir, seed_override = item
    try:
        base_seed = _opt_seed(cfg) if seed_override is None else seed_override
        code, summary = run_single(cfg, Path(out_dir), base_seed + index)
    except ConfigError as exc:
        return index, 1, f"config error: {exc}"
    except DenseLimitError as exc:
        return index, 3, f"dense limit: {exc}"
    except Exception as exc:
        # one failing run must not lose the others' results
        traceback.print_exc()
        return index, 1, f"error: {type(exc).__name__}: {exc}"
    return index, code, summary


def _thread_count() -> int:
    """Sweep worker cap from PAULI_DIAG_THREADS (default: CPU count)."""
    raw = os.environ.get("PAULI_DIAG_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"PAULI_DIAG_THREADS: expected an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"PAULI_DIAG_THREADS: expected at least 1, got {threads}")
    return threads


def cmd_diagonalize(args) -> int:
    raw = _load_json(args.config)
    out_dir = Path(args.out_dir) if args.out_dir else None

    if args.sweep:
        if not isinstance(raw, list):
            raise ConfigError(f"{args.config}: --sweep expects a JSON list of configs")
        if out_dir is None:
            out_dir = Path(".")
        threads = _thread_count()
        items = [
            (i, cfg, str(out_dir / f"run_{i:03d}"), args.seed_override)
            for i, cfg in enumerate(raw)
        ]
        workers = max(1, min(threads, len(items)))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = sorted(pool.map(_sweep_worker, items))
        worst = 0
        for index, code, summary in results:
            print(f"run_{index:03d}: {summary}")
            worst = worst or code
        return worst

    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: expected a JSON object")
    if out_dir is None:
        out_dir = Path(_section(raw, "output").get("dir", "."))
    code, summary = run_single(raw, out_dir, args.seed_override)
    print(summary)
    return code


def cmd_verify(args) -> int:
    try:
        h = load_hamiltonian(args.hamiltonian)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    kp = load_params(args.params)
    if kp.n != h.n:
        raise ConfigError(
            f"qubit count mismatch: hamiltonian has {h.n}, params have {kp.n}"
        )
    if abs(kp.r_norm - 1.0) > 1e-8:
        print(
            f"warning: ||r|| = {kp.r_norm:.12g}, renormalizing to 1",
            file=sys.stderr,
        )
        kp = kp.normalized()
    report = diag_report(h, kp)
    print(json.dumps(report.as_dict(), indent=2))
    ok = report.offdiag_mass <= report.bound_offdiag + 1e-10
    if report.bound_spec_applicable:
        ok = ok and report.spec_error <= report.bound_spec + 1e-10
    return 0 if ok else 4


def cmd_liedim(args) -> int:
    raw = _load_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: expected a JSON object")
    spec = raw.get("model", raw)
    h, _ = build_model(spec)
    full = 4 ** h.n - 1
    cap = args.cap if args.cap is not None else 4 ** h.n
    result_dim, hit_cap = lie_closure_dim(list(h.strings()), cap=cap)
    notes = ["saturated" if result_dim == full else "not saturated"]
    if hit_cap:
        notes.append("cap hit")
    print(f"{result_dim} / {full} ({', '.join(notes)})")
    return 0


def cmd_trace_export(args) -> int:
    import csv

    path = Path(args.trace)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    records = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {i}: {exc.msg}") from exc

    out_dir = Path(args.out_dir) if args.out_dir else path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = path.stem

    cost_path = out_dir / f"{stem}_cost.csv"
    with open(cost_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "F_total", "f_value", "penalty", "grad_norm"])
        for rec in records:
            try:
                writer.writerow([rec["iter"], rec["F_total"], rec["f_value"],
                                 rec["penalty"], rec["grad_norm"]])
            except (KeyError, TypeError) as exc:
                raise ConfigError(
                    f"{path}: record {rec.get('iter', '?')}: missing field {exc}"
                ) from exc

    alphas = [
        math.nan if rec.get("alpha_estimate") is None else float(rec["alpha_estimate"])
        for rec in records
    ]
    medians = rolling_median(alphas, window=20) if alphas else []
    alpha_path = out_dir / f"{stem}_alpha.csv"
    with open(alpha_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "alpha", "alpha_median20"])
        for rec, alpha, med in zip(records, alphas, medians):
            writer.writerow([
                rec["iter"],
                "" if math.isnan(alpha) else alpha,
                "" if math.isnan(med) else med,
            ])
    print(f"wrote {cost_path} and {alpha_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulidiag",
        description="Diagonalize Pauli-sum Hamiltonians by cost minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagonalize", help="run an optimizer from a JSON config")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out-dir", help="output directory (overrides config)")
    p.add_argument("--seed-override", type=int, help="replace the optimizer seed")
    p.add_argument("--sweep", action="store_true",
                   help="config is a JSON list; run all concurrently")
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("verify", help="re-verify saved params against a Hamiltonian")
    p.add_argument("hamiltonian", help="Hamiltonian text file")
    p.add_argument("params", help="params JSON written by diagonalize")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("liedim", help="commutator-closure dimension of a model")
    p.add_argument("--config", required=True, help="model or run config JSON")
    p.add_argument("--cap", type=int, help="closure size cap (default 4^n)")
    p.set_defaults(func=cmd_liedim)

    p = sub.add_parser("trace-export", help="convert a trace to CSV plot data")
    p.add_argument("trace", help="JSON-lines trace file")
    p.add_argument("--out-dir", help="output directory (default: next to trace)")
    p.set_defaults(func=cmd_trace_export)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RadialCollapseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DenseLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
