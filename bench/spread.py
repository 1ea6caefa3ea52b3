"""Seed-to-seed spread of the end-to-end metrics.

    python3 bench/spread.py --workload NAME --seeds 1-10 --seconds 20 [--out FILE]

Runs bench/run.py once per seed (trace off) and prints, per metric, the
median and the quartiles of the per-seed values, with the spread
(Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives it, next to
the metric's bound in BENCHMARK.json. --out writes the same table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def seeds_from(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)

    table = {}
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[name] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median, "bound": bound}
        print(f"{name:14s} median {median:.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}  "
              f"spread {(q3 - q1) / median:.3f}  bound {bound}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": table}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
