"""Byte-for-byte output parity of the benchmark workloads between two checkouts.

    python3 tools/output_parity.py --base DIR --head DIR [--seeds 1,50]

DIR is the root of a paulidiag checkout (for example a `git clone` of the
parent commit). For each workload of head's bench/workloads.py, each side
runs `bench/pipeline.py start WORKLOAD` once and then `bench/pipeline.py rep
WORKLOAD SEED OUT 0` per seed, each in a fresh interpreter with its working
directory at that checkout, PYTHONPATH at its src/ and BLAS on one thread.
The two reps' trace.jsonl, params.json and report.json are compared byte for
byte, and head's `bench/pipeline.py parity` mode checks that the CLI writes
the same trace and params as head's rep.

One line is printed per workload, seed and file (and per start, rep and
parity run that fails). When trace.jsonl differs, more lines give both
record counts and, per field, the largest relative difference over the
records both traces hold, so that rounding shows apart from a different
run. The exit status is 1 on any difference or failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import BLAS_ENV

FILES = ("trace.jsonl", "params.json", "report.json")


def pipeline(root: Path, *args: str) -> list[str]:
    """Run `bench/pipeline.py ARGS` in root; return its failures."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
    proc = subprocess.run([sys.executable, "bench/pipeline.py", *args], cwd=root, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    return json.loads(lines[-1])["failures"]


def relative_difference(a, b) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values (two nulls included),
    inf when only one is null (a non-finite value written as null)."""
    if a == b:
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def trace_differences(base: Path, head: Path) -> list[str]:
    """The record counts of two trace.jsonl files and, per field, the
    largest relative difference over the records both hold."""
    runs = [[json.loads(line) for line in path.read_text().splitlines()] for path in (base, head)]
    lines = [f"records: base {len(runs[0])}, head {len(runs[1])}"]
    pairs = list(zip(*runs))
    for name in pairs[0][0] if pairs else ():
        worst = max(relative_difference(a[name], b[name]) for a, b in pairs)
        lines.append(f"{name}: largest relative difference {worst:.3g}")
    return lines


def workload_names(head: Path) -> tuple[str, ...]:
    # bench/workloads.py imports nothing from paulidiag
    sys.path.insert(0, str(head / "bench"))
    from workloads import NAMES
    return NAMES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", required=True, type=Path)
    parser.add_argument("--seeds", default="1,50", help="comma-separated, e.g. 1,50")
    args = parser.parse_args(argv)
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    seeds = [int(v) for v in args.seeds.split(",")]

    ok = True

    def report(label: str, failures: list[str]) -> None:
        nonlocal ok
        for failure in failures:
            ok = False
            print(f"{label}: FAILED: {failure.strip()}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for name in workload_names(roots["head"]):
            for side, root in roots.items():
                report(f"{name} start {side}", pipeline(root, "start", name))
            for seed in seeds:
                out = {side: Path(tmp) / side / f"{name}-{seed}" for side in roots}
                for side, root in roots.items():
                    report(f"{name} seed {seed} rep {side}",
                           pipeline(root, "rep", name, str(seed), str(out[side]), "0"))
                for fname in FILES:
                    a, b = out["base"] / fname, out["head"] / fname
                    if not (a.exists() and b.exists()):
                        status = "missing"
                    elif a.read_bytes() == b.read_bytes():
                        status = f"identical ({b.stat().st_size} bytes)"
                    else:
                        status = "differs"
                    ok = ok and status.startswith("identical")
                    print(f"{name} seed {seed} {fname}: {status}", flush=True)
                    if status == "differs" and fname == "trace.jsonl":
                        for line in trace_differences(a, b):
                            print(f"  {line}", flush=True)
                failures = pipeline(roots["head"], "parity", name, str(seed), str(out["head"]),
                                    str(Path(tmp) / "parity" / f"{name}-{seed}"))
                report(f"{name} seed {seed} parity", failures)
                if not failures:
                    print(f"{name} seed {seed} parity: ok", flush=True)
    print("all identical" if ok else "DIFFERENCES FOUND", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
