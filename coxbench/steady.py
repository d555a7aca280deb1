"""Steadiness check: run one workload with several seeds and print, for
each metric, the median and the spread (distance between the first and
third quartile, as a share of the median) against its bound in
BENCHMARK.json.  Each run is untraced and lasts ``run_seconds``.

    python3 coxbench/steady.py --workload groups --seeds 1-10 [--verbose]
"""

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    runs = []
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        *_, info, last_line = proc.stdout.strip().splitlines()
        result = json.loads(last_line)
        runs.append(result)
        ops = json.loads(info.removeprefix("# "))["ops"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} timed ops={ops}", flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values) if len(values) >= 2 else 0.0
        bound = bounds[name]
        worst = max(worst, s / bound)
        mark = "ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER")
        print(f"{name:42s} median {statistics.median(values):14.6g}  spread {s:7.4f}"
              f"  bound {bound:>5}  {mark}")
        if args.verbose:
            print("    " + " ".join(f"{v:.4g}" for v in values))
    print(f"widest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
