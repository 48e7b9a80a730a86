"""setp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload heuristic|exact|scenario|large \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports setp from `src/`.
With `--trace 0` it sets the workload up several times, each in a fresh
process, and reports the median set-up time, then measures the CLI ops for
`--seconds` in another fresh process with no wrappers installed. With
`--trace 1` it sets up once and runs every round twice, with and without
the layer wrappers, for the per-layer metrics (see bench.py).

Stdout carries a report of every metric by name and unit, the machine, the
software versions and the seed, and as its last line one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; `metrics` holds
exactly the `end_to_end` (trace 0) or `per_layer` (trace 1) metrics named
in BENCHMARK.json. The exit code is nonzero, with no JSON line, when the
checkout has no `src/setp` or a phase crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
DEADLINE_S = 170.0


class PhaseFailed(Exception):
    pass


def phase(name: str, args, workdir: Path, deadline: float, extra=()) -> dict:
    """Run one bench.py phase in a fresh process; return its JSON.

    bench.py pins the numeric libraries to one thread before importing numpy.
    """
    cmd = [sys.executable, str(HERE / "bench.py"), name, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--workdir", str(workdir), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PhaseFailed("%s phase timed out" % name) from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise PhaseFailed("%s phase exited with %d" % (name, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(result: dict, metrics: dict) -> None:
    print("workload=%s seed=%d size=%s" % (result["workload"], result["seed"], result["size"]))
    print("env=%s" % json.dumps(result["env"], sort_keys=True))
    print("attempted=%d failed=%d fail_rate=%.6g" % (result["attempted"], result["failed"], result["report"]["fail_rate"]))
    for error in result["report"]["errors"]:
        print("error=%s" % error)
    for name, m in metrics.items():
        print("metric %s = %.9g %s" % (name, m["value"], m["unit"]))
    rep = result["report"]
    for kind, op in sorted(rep.get("ops", {}).items()):
        print("op %s_s = %.6g s (median of %d; min %.6g, max %.6g)" % (kind, op["median_s"], op["n"], op["min_s"], op["max_s"]))
    for name, entry in sorted(rep.get("functions", {}).items()):
        print("layer %s %s" % (name, " ".join("%s=%.6g" % kv for kv in sorted(entry.items()))))
    for key in ("rounds", "traced_rounds", "run_s", "spans"):
        if key in rep:
            print("%s=%s" % (key, rep[key]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["heuristic", "exact", "scenario", "large"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: small inputs for tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "setp" / "__init__.py").is_file():
        print("perfbench: no src/setp under %s; run from a source checkout" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = OUT / ("work-%d" % os.getpid())
    try:
        setups = [phase("setup", args, workdir, deadline)["setup_s"] for _ in range(1 if args.trace else SETUP_REPEATS)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))]
        result = phase("measure", args, workdir, deadline, extra)
    except PhaseFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = dict(result["metrics"])
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    missing = [m["name"] for m in wanted if measured.get(m["name"], {}).get("unit") != m["unit"]]
    if missing:
        print("perfbench: metrics %s not measured in the units BENCHMARK.json names" % missing, file=sys.stderr)
        return 1
    metrics = {m["name"]: measured[m["name"]] for m in wanted}
    report(result, measured)
    print("setup_runs_s=%s" % json.dumps(setups))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
