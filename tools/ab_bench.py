"""A/B series of the benchmark between two checkouts, written as BENCH_<n>.json.

    python3 tools/ab_bench.py --base DIR --head DIR --seeds 41-50 \
        --seconds 30 --out BENCH_<n>.json [--minflt-reps 5] \
        [--claim WORKLOAD/METRIC]

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

Against head's BENCHMARK.json it also records two verdicts. With --claim,
whether the claimed metric improved on the claimed workload: head wins at
least nine tenths of the pairs, and the medians differ, in the metric's
`better` direction, by more than base's interquartile range. For every other
end-to-end metric and workload, whether head's median is worse than base's by
more than that metric's (relative) `bound`.
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


def _values(results: list[dict], workload: str, metric: str) -> list[float]:
    return [r[workload]["metrics"][metric]["value"] for r in results]


def claim_verdict(runs: dict, workload: str, spec: dict) -> dict:
    """Whether head's gain in one metric holds: head wins at least 9/10 of
    the pairs (ties count for neither), and the medians differ in the better
    direction by more than base's IQR."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base, head = (_values(runs[side], workload, spec["name"]) for side in ("base", "head"))
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    b, h = summary(base), summary(head)
    gain = sign * (b["median"] - h["median"])
    return {"workload": workload, "metric": spec["name"], "better": spec["better"],
            "pairs": len(base), "head_wins": wins, "base_median": b["median"],
            "head_median": h["median"], "base_iqr": b["iqr"], "median_gain": gain,
            "holds": wins >= 0.9 * len(base) and gain > b["iqr"]}


def bound_verdict(runs: dict, workload: str, spec: dict) -> dict:
    """Whether head's median is worse than base's by more than the metric's
    bound, relative to base's median."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base, head = (statistics.median(_values(runs[side], workload, spec["name"]))
                  for side in ("base", "head"))
    worse_by = sign * (head - base) / base
    return {"bound": spec["bound"], "head_worse_by": worse_by,
            "exceeds": worse_by > spec["bound"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", required=True, type=Path)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 41-50")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--minflt-reps", type=int, default=0)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="an end-to-end metric head claims to improve on one workload")
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    benchmark = json.loads((roots["head"] / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    claim = None
    if args.claim:
        claim = tuple(args.claim.split("/", 1))
        names = [w["name"] for w in benchmark["workloads"]]
        if len(claim) != 2 or claim[0] not in names or claim[1] not in specs:
            parser.error(f"--claim {args.claim}: expected WORKLOAD/METRIC with WORKLOAD "
                         f"in {names} and METRIC in {list(specs)}")

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

    if claim:
        record["claim"] = claim_verdict(runs, claim[0], specs[claim[1]])
        print(f"claim {args.claim}: {'holds' if record['claim']['holds'] else 'fails'} "
              f"({record['claim']['head_wins']}/{record['claim']['pairs']} pairs won)")
    record["bounds"] = {
        w: {m: bound_verdict(runs, w, spec) for m, spec in specs.items()
            if (w, m) != claim}
        for w in workloads}
    for w, verdicts in record["bounds"].items():
        for m, v in verdicts.items():
            if v["exceeds"]:
                print(f"{w} {m}: head worse by {v['head_worse_by']:.3f} > bound {v['bound']}")

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
