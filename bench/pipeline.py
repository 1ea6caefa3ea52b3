"""One benchmark repetition: the `paulidiag diagonalize` pipeline, timed by phase.

The phases are those of `paulidiag.cli.run_single`: model and ansatz, start
perturbation, `build_support_sets`, the start-point `eval_grad` that sets the
automatic step, `run_gd`/`run_rcd` up to the relative target, writing the
trace and params, and the two dense `diag_report` calls. The phases are
timed here with `time.perf_counter`; `TraceRecord.wall_time` is never read.

bench/run.py starts one fresh interpreter per repetition:

    python3 bench/pipeline.py start WORKLOAD
    python3 bench/pipeline.py rep WORKLOAD SEED OUT_DIR TRACE
    python3 bench/pipeline.py parity WORKLOAD SEED REP_DIR OUT_DIR
    python3 bench/pipeline.py invariants

`start` saves the workload's base start point; `rep` prints one JSON object
with the timings, the sizes and the list of correctness failures; `parity`
runs `paulidiag.cli.main` on the same config and compares its trace.jsonl
and params.json byte for byte with a rep's; `invariants` prints the
(d, |H|, |closure|, |g1|) table kept in bench/invariants.json.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from paulidiag import cli, cost, operators, optimize, verify
from paulidiag.optimize import (
    GD_DEFAULT_LR, RCD_DEFAULT_LR, IncrementalState, LRSchedule, OptTrace,
)
from tracing import LAYERS, Tracer, layer_self_times, self_times
from workloads import NAMES, RHO, config, start_config, start_file

INVARIANTS_FILE = Path(__file__).with_name("invariants.json")
BOUND_TOL = 1e-10


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def install_probes(tracer: Tracer) -> None:
    """Wrap the public calls into each layer, as the pipeline reaches them."""
    for fn in ("build_xxz", "build_random_udu", "expand_rotation_product"):
        tracer.wrap(cli, fn, "models.build")
    tracer.wrap(cli, "warm_start_from_dense", "models.warm_start")
    tracer.wrap(cli, "build_initial_params", "cli.initial_params")
    tracer.wrap(cli, "_perturbed", "cli.perturb")
    tracer.wrap(operators, "build_support_sets", "operators.build_support_sets")
    tracer.wrap(cost, "eval_grad", "cost.eval_grad")
    tracer.wrap(optimize, "eval_grad", "cost.eval_grad")
    tracer.wrap(optimize, "run_gd", "optimize.run")
    tracer.wrap(optimize, "run_rcd", "optimize.run")
    tracer.wrap(IncrementalState, "sparse_grad", "optimize.sparse_grad")
    tracer.wrap(IncrementalState, "apply_update", "optimize.apply_update")
    tracer.wrap(IncrementalState, "refresh", "optimize.refresh")
    tracer.count(cost.KParams, "with_params", "optimize.with_params")
    tracer.wrap(OptTrace, "save_jsonl", "cli.write")
    tracer.wrap(cli, "save_params", "cli.write")
    tracer.wrap(verify, "diag_report", "verify.diag_report")


def table_sizes(s) -> tuple[int, int]:
    """(entries, bytes) of the support tables: entries count the hk, khk, grad
    and phi tables; bytes are computed from the array sizes of every table."""
    entries = len(s.hk_tgt) + len(s.khk_tgt) + s.grad_tgt.size + len(s.phi_p)
    nbytes = 0
    for f in dataclasses.fields(s):
        value = getattr(s, f.name)
        if isinstance(value, np.ndarray):
            nbytes += value.nbytes
        elif isinstance(value, list):
            nbytes += sum(a.nbytes for a in value)
    return entries, nbytes


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def report_failures(rep, label: str) -> list[str]:
    out = []
    if not rep.offdiag_mass <= rep.bound_offdiag + BOUND_TOL:
        out.append(f"{label} report: offdiag_mass {rep.offdiag_mass} > bound {rep.bound_offdiag}")
    if rep.bound_spec_applicable and not rep.spec_error <= rep.bound_spec + BOUND_TOL:
        out.append(f"{label} report: spec_error {rep.spec_error} > bound {rep.bound_spec}")
    return out


def run_once(name: str, seed: int, out_dir: Path, tracer: Tracer | None = None) -> dict:
    """The timed pipeline plus the correctness gate; returns the result record."""
    call = tracer.call if tracer is not None else _direct
    cfg = config(name, seed)
    rho = RHO[name]
    out_dir.mkdir(parents=True, exist_ok=True)

    def pipeline():
        t0 = time.perf_counter()
        h, u_expansion = cli.build_model(cfg["model"])
        opt_cfg = cli._opt_config(cfg, None)
        kp0 = cli.build_initial_params(cfg, h, u_expansion)
        kp0 = cli._perturbed(kp0, cfg["init"]["perturb"], cfg["init"]["seed"])
        support = operators.build_support_sets(h, kp0.ansatz)
        # the automatic step of cli._auto_lr, from the same start evaluation
        # that gives F0 for the target
        g0 = cost.eval_grad(h, kp0, support)
        step = (GD_DEFAULT_LR if cfg["algorithm"] == "gd" else RCD_DEFAULT_LR).a
        if g0.grad_norm > 0.0 and g0.total > 0.0:
            step = min(step, 1.2 * g0.total / g0.grad_norm**2)
        opt_cfg = dataclasses.replace(
            opt_cfg, lr=LRSchedule.constant(step), stop_tol=rho * g0.total
        )
        t1 = time.perf_counter()
        run = optimize.run_gd if cfg["algorithm"] == "gd" else optimize.run_rcd
        trace = run(h, kp0, opt_cfg, support)
        t2 = time.perf_counter()
        trace.save_jsonl(out_dir / "trace.jsonl")
        cli.save_params(out_dir / "params.json", trace.final_params)
        t3 = time.perf_counter()
        first, final = trace.records[0], trace.records[-1]
        try:
            reports = (
                verify.diag_report(h, kp0, first.f_value, first.penalty),
                verify.diag_report(h, trace.final_params, final.f_value, final.penalty),
            )
            payload = reports[1].as_dict()
            payload.update({"initial_frob_error": reports[0].frob_error,
                            "iterations": final.iteration, "stop_reason": trace.stop_reason,
                            "cache_drift_max": trace.drift_max})
        except verify.DenseLimitError:
            reports = None
            payload = {"error": "dense verification infeasible", "n": h.n,
                       "final_F": final.F_total, "iterations": final.iteration,
                       "stop_reason": trace.stop_reason}
        t4 = time.perf_counter()
        call("cli.write", (out_dir / "report.json").write_text,
             json.dumps(payload, indent=2) + "\n")
        t5 = time.perf_counter()
        times = {"run_s": t5 - t0, "setup_s": t1 - t0, "solve_s": t2 - t1,
                 "write_s": t3 - t2, "verify_s": t4 - t3}
        return h, opt_cfg, support, trace, reports, times

    h, opt_cfg, support, trace, reports, times = call("bench.run", pipeline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    entries, nbytes = table_sizes(support)
    final = trace.records[-1]
    invariants = [support.d, len(h), len(support.closure), len(support.g1)]
    res = {
        "workload": name,
        "seed": seed,
        "times": times,
        "peak_rss_mb": peak_rss_mb,
        "invariants": invariants,
        "stop_tol": opt_cfg.stop_tol,
        "F0": trace.records[0].F_total,
        "final_F": final.F_total,
        "iterations": final.iteration,
        "stop_reason": trace.stop_reason,
        "table_entries": entries,
        "table_mb": nbytes / 1e6,
        "refresh_count": len(trace.refresh_drifts),
        "drift_max": trace.drift_max,
        "trace_bytes": (out_dir / "trace.jsonl").stat().st_size,
        "dense_report": reports is not None,
    }

    failures = []
    if trace.stop_reason != "converged" or not final.F_total < opt_cfg.stop_tol:
        failures.append(f"target F < {opt_cfg.stop_tol:.3e} not reached: "
                        f"stop={trace.stop_reason} iterations={final.iteration}")
    if not all(math.isfinite(rec.F_total) for rec in trace.records):
        failures.append("non-finite F in the trace")
    if reports is None:
        if h.n <= verify.DENSE_MAX_QUBITS:
            failures.append("dense verification skipped on a verifiable instance")
    else:
        failures += report_failures(reports[0], "initial")
        failures += report_failures(reports[1], "final")
        if not reports[1].frob_error < reports[0].frob_error:
            failures.append(f"frob_error did not fall: {reports[0].frob_error} -> "
                            f"{reports[1].frob_error}")
        res["frob_error"] = [reports[0].frob_error, reports[1].frob_error]
    expected = json.loads(INVARIANTS_FILE.read_text())[name]
    if invariants != expected:
        failures.append(f"(d, |H|, |closure|, |g1|) = {invariants}, recorded {expected}")
    res["failures"] = failures

    if tracer is not None:
        res["layers"] = layer_metrics(tracer, res)
    return res


def layer_metrics(tracer: Tracer, res: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum((s.duration for s in by_name.get(name, ())), 0.0)

    def mean_us(name):
        group = by_name.get(name, ())
        return 1e6 * total(name) / len(group) if group else 0.0

    own = self_times(spans)
    iterations = max(res["iterations"], 1)
    times = res["times"]
    evals = sorted(by_name.get("cost.eval_grad", ()), key=lambda s: s.start)
    build_s = total("operators.build_support_sets")
    out = {
        "models.build_s": total("models.build"),
        "models.warm_start_s": total("models.warm_start"),
        "operators.build_support_sets_s": build_s,
        "operators.table_entries": res["table_entries"],
        "operators.entries_per_s": res["table_entries"] / build_s,
        "operators.table_mb": res["table_mb"],
        "operators.closure_size": res["invariants"][2],
        "operators.g1_size": res["invariants"][3],
        "cost.first_eval_s": evals[0].duration,
        "cost.eval_grad_calls": len(evals),
        "cost.eval_grad_us": mean_us("cost.eval_grad"),
        "optimize.iterations": res["iterations"],
        "optimize.iter_us": 1e6 * times["solve_s"] / iterations,
        "optimize.self_us_per_iter":
            1e6 * sum(own[s.id] for s in by_name["optimize.run"]) / iterations,
        "optimize.with_params_calls": tracer.counts["optimize.with_params"],
        "optimize.sparse_grad_us": mean_us("optimize.sparse_grad"),
        "optimize.apply_update_us": mean_us("optimize.apply_update"),
        "optimize.refresh_us": mean_us("optimize.refresh"),
        "optimize.refresh_count": len(by_name.get("optimize.refresh", ())),
        "optimize.drift_max": res["drift_max"],
        "verify.diag_report_s": total("verify.diag_report"),
        "verify.diag_report_calls": len(by_name.get("verify.diag_report", ())),
        "cli.write_s": total("cli.write"),
        "cli.trace_bytes": res["trace_bytes"],
    }
    per_layer = layer_self_times(spans)
    for layer in LAYERS + ("bench",):
        out[f"share.{layer}"] = per_layer.get(layer, 0.0) / times["run_s"]
    return out


def parity(name: str, seed: int, rep_dir: Path, out_dir: Path) -> dict:
    """Run the CLI in-process on the rep's config and compare its output files."""
    rep = json.loads((rep_dir / "result.json").read_text())
    cfg = config(name, seed)
    cfg["opt"]["stop_tol"] = rep["stop_tol"]
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    code = cli.main(["diagonalize", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    expected_code = 0 if rep["dense_report"] else 3
    failures = []
    if code != expected_code:
        failures.append(f"CLI exit code {code}, expected {expected_code}")
    for fname in ("trace.jsonl", "params.json"):
        ours, theirs = rep_dir / fname, out_dir / fname
        if not theirs.exists() or ours.read_bytes() != theirs.read_bytes():
            failures.append(f"{fname} differs from the CLI's")
    return {"failures": failures}


def write_start(name: str) -> None:
    """Save the workload's base start point, if it has one (see workloads)."""
    cfg = start_config(name)
    if cfg is None:
        return
    h, u_expansion = cli.build_model(cfg["model"])
    kp = cli.build_initial_params(cfg, h, u_expansion)
    kp = cli._perturbed(kp, cfg["init"]["perturb"], cfg["init"]["seed"])
    start_file(name).parent.mkdir(parents=True, exist_ok=True)
    cli.save_params(start_file(name), kp)


def invariants_table() -> dict:
    """(d, |H|, |closure|, |g1|) of every workload; the seed only moves the
    start point, so one row per workload."""
    table = {}
    for name in NAMES:
        write_start(name)
        cfg = config(name, 0)
        h, u_expansion = cli.build_model(cfg["model"])
        kp0 = cli.build_initial_params(cfg, h, u_expansion)
        s = operators.build_support_sets(h, kp0.ansatz)
        table[name] = [s.d, len(h), len(s.closure), len(s.g1)]
    return table


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "invariants":
        print(json.dumps(invariants_table(), indent=2))
        return 0
    if mode == "start":
        try:
            write_start(argv[1])
            res = {"failures": []}
        except Exception:
            res = {"failures": [traceback.format_exc()]}
    elif mode == "parity":
        name, seed = argv[1], int(argv[2])
        try:
            res = parity(name, seed, Path(argv[3]), Path(argv[4]))
        except Exception:
            res = {"failures": [traceback.format_exc()]}
    elif mode == "rep":
        name, seed = argv[1], int(argv[2])
        out_dir, traced = Path(argv[3]), argv[4] == "1"
        tracer = Tracer(f"{name}-{seed}-{out_dir.name}") if traced else None
        if tracer is not None:
            install_probes(tracer)
        try:
            res = run_once(name, seed, out_dir, tracer)
            res["env"] = environment()
        except Exception:
            res = {"failures": [traceback.format_exc()]}
        if tracer is not None:
            tracer.restore()
            tracer.write(out_dir / "spans.jsonl")
        (out_dir / "result.json").write_text(json.dumps(res, indent=2) + "\n")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
