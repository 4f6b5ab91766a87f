#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs `run.py --workload W --seed S` once per seed and prints, for each
end-to-end metric, the median, the quartiles and the spread: the distance
between the first and third quartile (Python's `statistics.quantiles(n=4)`)
as a share of the median, beside the metric's bound from BENCHMARK.json.
Also prints each run's output digest, so two sets of runs of the same code
can be compared byte for byte.

    python3 perfbench/spread.py --workload fig13 --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", help="append every run's result as one JSON line to this file")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        contract = json.loads(done.stdout.strip().split("\n")[-1])
        saved = json.loads((ROOT / ".perfbench" / "results" /
                            f"{args.workload}-seed{seed}-trace0.json").read_text())
        digest = saved["result"]["digest"]
        for name in values:
            values[name].append(contract["metrics"][name]["value"])
        print(f"seed {seed}: correct={contract['correct']} failed={contract['failed']} "
              f"digest={digest} " + " ".join(
                  f"{n}={contract['metrics'][n]['value']:.6g}" for n in values), flush=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "digest": digest,
                                    "contract": contract}) + "\n")
    if len(args.seeds) < 2:
        return 0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        print(f"{m['name']:<14} median {statistics.median(v):.6g} {m['unit']}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}  bound {m['bound']}  "
              f"spread/bound {spread / m['bound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
