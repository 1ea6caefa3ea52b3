"""Time-to-target benchmark of the `paulidiag diagonalize` pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. NAME is
one of bench/workloads.py's workloads, or `all` to run each in turn. Each
repetition runs in a fresh interpreter (bench/pipeline.py), so set-up, the
first evaluation and peak memory are cold, as a CLI user sees them. A new
repetition starts while it should still end within S seconds, and there are
at least MIN_REPS of them; each metric is the median over the repetitions.
After the timed repetitions one more interpreter runs `paulidiag.cli.main`
on the same config, and its trace.jsonl and params.json must match the
benchmark's byte for byte.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics, taken from the traced ones, with trace.overhead comparing the two.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A repetition fails when it
raises, misses its target, records a non-finite cost, breaks a report bound,
does not lower frob_error, or changes the recorded problem sizes; the
parity run counts as one more attempt.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import DOMINANT, NAMES  # noqa: E402

BLAS_THREADS = 1
MIN_REPS = 3
BUDGET_S = 150.0
OUT_ROOT = Path(".bench_out")
PIPELINE = Path(__file__).resolve().with_name("pipeline.py")


def _git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env(root: Path) -> dict:
    blas = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=blas,
                OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas)


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    """One fresh interpreter; its last stdout line is its JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(PIPELINE), *args], env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    start = time.perf_counter()
    out = OUT_ROOT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(root)
    prepared = run_child(["start", name], env, BUDGET_S)
    if prepared["failures"]:
        return {"workload": name, "seed": seed, "reps": [], "ok": [], "attempted": 1,
                "failed": 1, "failures": prepared["failures"],
                "wall_s": time.perf_counter() - start}
    reps, longest = [], 0.0
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    while True:
        # start another repetition only if it should end inside the window
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + longest > seconds:
            break
        if reps and elapsed + 2 * longest > BUDGET_S:
            break
        traced = trace and len(reps) % 2 == 1
        t = time.perf_counter()
        res = run_child(["rep", name, str(seed), str(out / f"rep_{len(reps):02d}"),
                         "1" if traced else "0"], env, BUDGET_S - elapsed)
        longest = max(longest, time.perf_counter() - t)
        res["traced"] = traced
        reps.append(res)

    ok = [r for r in reps if not r["failures"]]
    parity = {"failures": ["no successful repetition to compare with"]}
    if ok:
        rep_dir = out / f"rep_{reps.index(ok[0]):02d}"
        parity = run_child(["parity", name, str(seed), str(rep_dir), str(out / "parity")],
                           env, BUDGET_S + 20 - (time.perf_counter() - start))
    return {"workload": name, "seed": seed, "reps": reps, "ok": ok,
            **tally(reps, parity), "wall_s": time.perf_counter() - start}


def tally(reps: list[dict], parity: dict) -> dict:
    """Attempts, failed attempts and failure reasons of one measurement; the
    parity run counts as one attempt."""
    failures = [f for r in reps for f in r["failures"]]
    failures += [f"CLI parity: {f}" for f in parity["failures"]]
    failed = sum(1 for r in reps if r["failures"]) + (1 if parity["failures"] else 0)
    return {"attempted": len(reps) + 1, "failed": failed, "failures": failures}


def e2e_values(ok: list[dict]) -> dict[str, list[float]]:
    untraced = [r for r in ok if not r["traced"]]
    values = {key: [r["times"][key] for r in untraced]
              for key in ("run_s", "setup_s", "solve_s")}
    values["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
    return values


def layer_values(name: str, ok: list[dict]) -> dict[str, list[float]]:
    traced = [r for r in ok if r["traced"]]
    values = {key: [r["layers"][key] for r in traced] for key in traced[0]["layers"]}
    untraced_run = statistics.median(r["times"]["run_s"] for r in ok if not r["traced"])
    traced_run = statistics.median(r["times"]["run_s"] for r in traced)
    values["trace.overhead"] = [traced_run / untraced_run - 1.0]
    share = sum(statistics.median(values[f"share.{layer}"]) for layer in DOMINANT[name])
    values["prediction.held"] = [1.0 if share >= 0.5 else 0.0]
    return values


def report(result: dict, trace: bool, spec: dict) -> dict:
    """Print the human-readable summary; return the contract's result object."""
    name, ok = result["workload"], result["ok"]
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    traced_ok = [r for r in ok if r["traced"]]
    untraced_ok = [r for r in ok if not r["traced"]]
    metrics = {}
    if untraced_ok and (traced_ok or not trace):
        values = layer_values(name, ok) if trace else e2e_values(ok)
        print(f"== {name} seed={result['seed']} reps={len(result['reps'])} "
              f"({len(traced_ok)} traced) wall={result['wall_s']:.1f}s")
        for key, unit in units.items():
            vals = values[key]
            med = statistics.median(vals)
            metrics[key] = {"value": med, "unit": unit}
            print(f"  {key:34s} {med:14.6g} {unit:12s} "
                  f"min {min(vals):.6g} max {max(vals):.6g} n={len(vals)}")
        if not trace:
            # printed only: an end-to-end metric must not be 0, and verify_s
            # is about 0 on udu14_gd, where n > 12 skips dense verification
            vals = [r["times"]["verify_s"] for r in untraced_ok]
            print(f"  {'verify_s':34s} {statistics.median(vals):14.6g} {'s':12s} "
                  f"min {min(vals):.6g} max {max(vals):.6g} (not in the JSON result)")
        if trace:
            held = metrics["prediction.held"]["value"] == 1.0
            layers = " + ".join(DOMINANT[name])
            print(f"  predicted dominant layer(s) {layers}: "
                  f"{'held' if held else 'did not hold'} (>= 50% of traced run_s)")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    fail_ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio {fail_ratio:.6g} ({result['failed']}/{result['attempted']})")
    return {"correct": not result["failures"] and bool(metrics),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def environment(root: Path, ok: list[dict]) -> dict:
    env = {"git_sha": _git_sha(root), "nproc": os.cpu_count(),
           "blas_threads": child_env(root)["OPENBLAS_NUM_THREADS"]}
    if ok:
        env.update(ok[0]["env"])
    return env


def _terminate(signum, _frame):
    # unwinding through subprocess.run kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "paulidiag" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a paulidiag checkout "
              "(needs src/paulidiag and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace), root)
        print(f"# env {json.dumps(environment(root, result['ok']))}")
        results[name] = report(result, bool(args.trace), spec)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0 if results[args.workload]["metrics"] else 1
    print(json.dumps(results))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
