"""Repeat the benchmark over seeds and summarise the spread of every metric.

    python3 perfbench/repeat.py --workloads heuristic,exact,scenario,large \
        --seeds 1-10 [--seconds 20] [--trace 0] [--out perfbench/results/NAME.json]

Runs `run.py` once per workload and seed, one after another, and prints for
each metric its median, quartiles (`statistics.quantiles(values, n=4)`) and
spread, the distance between the quartiles as a share of the median. For
end-to-end metrics it also prints the bound from BENCHMARK.json and flags a
spread above a third of it. `--out` writes every run's metrics, the summary
and the machine the runs were made on as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="heuristic,exact,scenario,large")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs, summary, env = {}, {}, None
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall_s = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode, proc.stderr), file=sys.stderr)
                return 1
            env = env or next((json.loads(line[4:]) for line in lines if line.startswith("env=")), None)
            result = json.loads(lines[-1])
            runs[workload].append({"seed": seed, "wall_s": wall_s, **result})
            print("%s seed=%d correct=%s attempted=%d failed=%d wall_s=%.1f" % (
                workload, seed, result["correct"], result["attempted"], result["failed"], wall_s), flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs[workload]])
            summary[workload][name] = s
            bound = bounds.get(name) if args.trace == 0 else None
            flag = "" if bound is None else ("  bound %.3g%s" % (bound, "  SPREAD ABOVE BOUND/3" if s["spread"] > bound / 3 else ""))
            print("  %-52s median %.6g  q1 %.6g  q3 %.6g  spread %.4f%s" % (name, s["median"], s["q1"], s["q3"], s["spread"], flag))

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        doc = {"seconds": seconds, "trace": args.trace, "env": env, "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
