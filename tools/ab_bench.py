"""A/B series of the benchmark between two checkouts, written as BENCH_<n>.json.

    python3 tools/ab_bench.py --base DIR --head DIR --seeds 41-50 \
        --seconds 30 --out BENCH_<n>.json [--minflt-reps 5]

DIR is the root of a paulidiag checkout (for example a `git clone` of the
parent commit). For each seed, `python3 bench/run.py --workload all --seed S
--seconds T --trace 0` runs once in each checkout; the order alternates from
pair to pair, so slow drift of the machine falls on both sides alike. Each
run's JSON result line gives one value per end-to-end metric and workload
(the median over that run's repetitions).

With --minflt-reps R, R more untraced udu10_rcd repetitions
(`bench/pipeline.py rep`) then run per side, alternating, each timed with
the minor page faults (`ru_minflt`) of its interpreter, because udu10_rcd's
solve time tracks the heap's trim/regrow behaviour. Each such rep also
records its peak RSS and its dense verification time (`peak_rss_mb` and
`times.verify_s` of the rep's result).

The output records both git shas, the host, Python, NumPy and BLAS, and for
every side, workload and metric the median, interquartile range and count,
plus the fail ratio, and for head against base the number of pairs head won.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _sha(root: Path) -> str:
    """HEAD's sha, with "+changes" when the tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "HEAD") or "unknown"
    return sha + "+changes" if git("status", "--porcelain", "--untracked-files=no") else sha


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench_run(root: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    """One `bench/run.py --workload all`: its result object and its env line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: bench/run.py printed nothing: {proc.stderr[-2000:]}")
    env = {}
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    return json.loads(lines[-1]), env


def minflt_rep(root: Path, seed: int, out_dir: Path) -> dict:
    """One untraced udu10_rcd repetition: its times, peak RSS and its
    interpreter's minor faults."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "bench/pipeline.py", "rep", "udu10_rcd", str(seed), str(out_dir), "0"],
        cwd=root, env=env, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["failures"]:
        raise RuntimeError(f"{root}: udu10_rcd rep failed: {res['failures']}")
    return {**{k: res["times"][k] for k in ("run_s", "setup_s", "solve_s", "verify_s")},
            "peak_rss_mb": res["peak_rss_mb"], "ru_minflt": faults}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", required=True, type=Path)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 41-50")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--minflt-reps", type=int, default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}

    runs = {"base": [], "head": []}
    env = {}
    for i, seed in enumerate(range(first, last + 1)):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            result, env[side] = bench_run(roots[side], seed, args.seconds)
            runs[side].append(result)
            solve = {w: round(r["metrics"]["solve_s"]["value"], 3) for w, r in result.items()
                     if r["metrics"]}
            print(f"seed {seed} {side}: solve_s {solve}", flush=True)

    workloads = list(runs["base"][0])
    record = {
        "command": f"python3 bench/run.py --workload all --seed S --seconds {args.seconds:g} "
                   f"--trace 0, S = {first}..{last}, one run per checkout per seed, "
                   f"alternating order",
        "git_sha": {side: _sha(root) for side, root in roots.items()},
        "host": {"machine": platform.machine(), "cpu": _cpu(), "nproc": os.cpu_count(),
                 "system": platform.platform()},
        "python": env["head"].get("python"), "numpy": env["head"].get("numpy"),
        "blas": env["head"].get("blas"), "blas_threads": env["head"].get("blas_threads"),
        "workloads": {},
    }
    for w in workloads:
        entry = {}
        for side in ("base", "head"):
            results = [r[w] for r in runs[side]]
            metrics = {m: summary([r["metrics"][m]["value"] for r in results])
                       for m in results[0]["metrics"]}
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            entry[side] = {"metrics": metrics, "fail_ratio": failed / attempted}
        entry["head_wins"] = {
            m: sum(h[w]["metrics"][m]["value"] < b[w]["metrics"][m]["value"]
                   for b, h in zip(runs["base"], runs["head"]))
            for m in entry["base"]["metrics"]}
        record["workloads"][w] = entry

    if args.minflt_reps:
        reps = {"base": [], "head": []}
        with tempfile.TemporaryDirectory() as tmp:
            for i in range(args.minflt_reps):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    reps[side].append(minflt_rep(roots[side], first + i,
                                                 Path(tmp) / f"{side}_{i}"))
        record["udu10_rcd_minflt"] = {
            side: {k: summary([r[k] for r in reps[side]]) for k in reps[side][0]}
            for side in reps}

    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
