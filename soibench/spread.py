"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 soibench/spread.py --workload NAME --seeds 1 2 3 4 5 [--seconds S]

Runs ``soibench/run.py`` once per seed (one at a time), then prints, for
every end-to-end metric, the median over the runs and the quartile
spread ``(Q3 - Q1) / median`` against the metric's bound in
``BENCHMARK.json``.  Flags a spread above a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    sys.path[0:1] = [ROOT]
    from soibench.metrics import median, quartile_spread

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "soibench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(last)
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    worst = 0
    for metric in bench["end_to_end"]:
        values = [r[metric["name"]]["value"] for r in runs]
        spread = quartile_spread(values) if len(values) >= 2 else 0.0
        flag = spread > metric["bound"] / 3 and metric["name"] != "setup_s"
        worst |= flag
        print(f"{metric['name']:16s} median {median(values):.6g} {metric['unit']:6s} "
              f"spread {spread:.4f} bound {metric['bound']}" + ("  <-- wide" if flag else ""))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
