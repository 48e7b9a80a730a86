"""Workloads, output checks and metrics of the setp benchmark.

`run.py` starts this file once per phase, each time in a fresh process:

    python3 perfbench/bench.py setup   --workload W --seed S --workdir DIR
    python3 perfbench/bench.py measure --workload W --seed S --workdir DIR --seconds N --trace 0|1

`setup` imports the package, warms every op kind of the workload up on tiny
inputs and writes the workload's instance files; `measure` regenerates the
same instances in memory for the checks and drives the CLI in-process
through `setp.cli.main(argv)`. Each prints one JSON object as its last
stdout line.

A round is the workload's fixed sequence of CLI ops on one input group and
every round of a workload does the same amount of work, so round times are
comparable; a cycle is as many rounds as it takes to use every input once.
"""

from __future__ import annotations

import os
import time

SETUP_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import setp  # noqa: E402
from setp import cli, evaluate, serialize, solvers, transforms  # noqa: E402
from setp.core import AprioriOrder  # noqa: E402

import oracle  # noqa: E402
import layertrace  # noqa: E402

if Path(setp.__file__).resolve().parent != SRC / "setp":
    raise ImportError("setp was imported from %s, not from %s" % (setp.__file__, SRC))

WORKLOADS = ("heuristic", "exact", "scenario", "large")

# "full" is what the benchmark measures; "tiny" exists for warm-up and tests.
SIZES = {
    "full": {
        "heuristic_n": 24, "heuristic_inputs": 12, "budget": 1200,
        "exact_n": 8, "exact_inputs": 2,
        "enum_n": 18, "mc_n": 150, "mc_samples": 5_000, "scenario_inputs": 2,
        "original": (2000, 6000, 150), "closed_n": 600,
    },
    "tiny": {
        "heuristic_n": 6, "heuristic_inputs": 2, "budget": 40,
        "exact_n": 4, "exact_inputs": 1,
        "enum_n": 6, "mc_n": 12, "mc_samples": 500, "scenario_inputs": 1,
        "original": (12, 24, 4), "closed_n": 12,
    },
}


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * max(1.0, abs(ref))


def derive(seed: int, *keys: int) -> int:
    """Instance seed for one input of one workload run."""
    return int(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *keys]).generate_state(1)[0])


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """The workload's instances by file stem; the same seed gives the same instances."""
    cfg = SIZES[size]
    key = WORKLOADS.index(workload)

    def s(k):
        return derive(seed, key, k)

    simplified = transforms.gen_random_simplified
    if workload == "heuristic":
        return {"h%d" % k: simplified(cfg["heuristic_n"], seed=s(k), metric=True) for k in range(cfg["heuristic_inputs"])}
    if workload == "exact":
        inputs = {}
        for k in range(cfg["exact_inputs"]):
            inputs["x%d" % k] = simplified(cfg["exact_n"], seed=s(2 * k), metric=True)
            inputs["t%d" % k] = transforms.gen_random_tsp(cfg["exact_n"], seed=s(2 * k + 1))
        return inputs
    if workload == "scenario":
        inputs = {}
        for k in range(cfg["scenario_inputs"]):
            inputs["e%d" % k] = simplified(cfg["enum_n"], seed=s(2 * k))
            inputs["m%d" % k] = simplified(cfg["mc_n"], seed=s(2 * k + 1))
        return inputs
    v, e, required = cfg["original"]
    return {"o0": transforms.gen_random_original(v, e, required, seed=s(0)), "c0": simplified(cfg["closed_n"], seed=s(1))}


def identity(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(range(n)), (0,) * n


def order_spec(n: int) -> str:
    return ",".join("%d+" % i for i in range(n))


def parse_order(spec: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    tokens = spec.split(",")
    seq = tuple(int(t[:-1]) for t in tokens)
    orient = tuple(int(t[-1] == "-") for t in tokens)
    require(sorted(seq) == list(range(n)) and all(t[-1] in "+-" for t in tokens), "order %r is not an order over %d edges" % (spec, n))
    return seq, orient


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[dict[str, str], str], float | None]  # (key=value fields, raw stdout) -> cost ratio or None
    key: str | None = None  # input whose cost ratio this op reports


class Workload:
    cycle = 1

    def __init__(self, inputs: dict, cfg: dict, workdir: Path, seed: int):
        self.inputs = inputs
        self.cfg = cfg
        self.workdir = workdir
        self.seed = seed
        self._cache: dict = {}

    def path(self, stem: str) -> str:
        return str(self.workdir / ("%s.json" % stem))

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class Heuristic(Workload):
    """solve --heuristic with a fixed evaluation budget, one instance per round."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cycle = self.cfg["heuristic_inputs"]

    def round(self, r):
        stem = "h%d" % (r % self.cycle)
        inst = self.inputs[stem]

        def check(fields, _):
            seq, orient = parse_order(fields["order"], inst.n)
            cost = float(fields["cost"])
            fresh = evaluate.expected_cost_closed_form(AprioriOrder(seq, orient), inst).value
            require(close(cost, fresh, 1e-12), "cost %r != closed form of the printed order %r" % (cost, fresh))
            ref = oracle.closed_form(inst.D, inst.R, inst.p, seq, orient)
            require(close(cost, ref, 1e-9), "cost %r != reference %r" % (cost, ref))
            nn = self.cached(("nn", stem), lambda: solvers.nearest_neighbor(inst))
            nn_cost = self.cached(("nn_cost", stem), lambda: oracle.closed_form(inst.D, inst.R, inst.p, nn.sequence, nn.orient))
            require(cost <= nn_cost * (1 + 1e-12), "cost %r worse than nearest neighbour %r" % (cost, nn_cost))
            return cost / self.cached(("id", stem), lambda: oracle.closed_form(inst.D, inst.R, inst.p, *identity(inst.n)))

        argv = ["solve", "--heuristic", "--budget", str(self.cfg["budget"]), self.path(stem)]
        return [Op("heuristic_solve", argv, check, stem)]


class Exact(Workload):
    """solve --exact on a random instance, then on a TSP gadget made by reduce --from tsp."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cycle = self.cfg["exact_inputs"]

    def round(self, r):
        k = r % self.cycle
        x, tsp = self.inputs["x%d" % k], self.inputs["t%d" % k]
        m = tsp.m
        gadget = "g%d" % k

        def check_x(fields, _):
            seq, orient = parse_order(fields["order"], x.n)
            cost = float(fields["cost"])
            ref = oracle.enumeration(x.D, x.R, x.p, seq, orient)
            require(close(cost, ref, 1e-9), "cost %r != enumeration %r" % (cost, ref))
            base = self.cached(("id", k), lambda: oracle.closed_form(x.D, x.R, x.p, *identity(x.n)))
            require(cost <= base * (1 + 1e-12), "optimum %r worse than the identity order %r" % (cost, base))

        def epsilon():
            return oracle.default_epsilon(tsp.C[np.triu_indices(m, 1)])

        def check_reduce(fields, _):
            require(close(float(fields["epsilon"]), epsilon(), 1e-12), "epsilon %s != %r" % (fields["epsilon"], epsilon()))
            require(fields["instance"] == self.path(gadget), "instance written to %s" % fields["instance"])

        def check_gadget(fields, _):
            seq, orient = parse_order(fields["order"], m)
            cost = float(fields["cost"])
            eps = epsilon()
            D, R = oracle.gadget_matrix(tsp.C, eps)
            ref = oracle.enumeration(D, R, np.ones(m), seq, orient)
            require(close(cost, ref, 1e-9), "cost %r != enumeration %r" % (cost, ref))
            optimum = self.cached(("tsp", k), lambda: oracle.tsp_optimum(tsp.C)) + m * eps
            require(abs(cost - optimum) <= m * eps, "gadget cost %r != TSP optimum + m*eps %r" % (cost, optimum))
            return cost / optimum

        return [
            Op("exact_solve", ["solve", "--exact", self.path("x%d" % k)], check_x),
            Op("gadget_reduce", ["reduce", self.path("t%d" % k), "--from", "tsp", "-o", self.path(gadget)], check_reduce),
            Op("exact_solve", ["solve", "--exact", self.path(gadget)], check_gadget, gadget),
        ]


class Scenario(Workload):
    """evaluate --method enum and --method mc of the identity order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cycle = self.cfg["scenario_inputs"]

    def reference(self, stem):
        inst = self.inputs[stem]
        return self.cached(stem, lambda: oracle.closed_form(inst.D, inst.R, inst.p, *identity(inst.n)))

    def round(self, r):
        k = r % self.cycle
        enum, mc = "e%d" % k, "m%d" % k
        samples = self.cfg["mc_samples"]
        mc_seed = derive(self.seed, 99, k) % 2**31

        def check_enum(fields, _):
            require(fields["method"] == "enumeration", "method %s" % fields["method"])
            value, ref = float(fields["value"]), self.reference(enum)
            require(close(value, ref, 1e-9), "enumeration %r != closed form %r" % (value, ref))
            return value / ref

        def check_mc(fields, _):
            require(fields["method"] == "monte_carlo" and int(fields["samples"]) == samples, "method %s" % fields["method"])
            value, err, ref = float(fields["value"]), float(fields["stderr"]), self.reference(mc)
            require(err > 0 and abs(value - ref) <= 5 * err, "monte carlo %r +- %r vs closed form %r" % (value, err, ref))
            return value / ref

        return [
            Op("enum_eval", ["evaluate", self.path(enum), order_spec(self.inputs[enum].n), "--method", "enum"], check_enum, enum),
            Op(
                "mc_eval",
                ["evaluate", self.path(mc), order_spec(self.inputs[mc].n), "--method", "mc", "--samples", str(samples), "--seed", str(mc_seed)],
                check_mc,
                mc,
            ),
        ]


class Large(Workload):
    """validate, reduce and evaluate a large original instance; evaluate a large simplified file."""

    def round(self, r):
        orig, closed = self.inputs["o0"], self.inputs["c0"]
        n = orig.n + 1  # simplify appends the depot edge
        spec = order_spec(n)
        reduced = self.path("r0")
        state = {}

        def original_ref():
            D, R = oracle.original_matrix(orig.vertices, orig.edges, orig.dist, orig.depot, orig.required)
            return oracle.closed_form(D, R, list(orig.prob) + [1.0], *identity(n))

        def check_validate(_, raw):
            require(raw.strip() == "OK", "validate printed %r" % raw[:200])

        def check_reduce(fields, _):
            require(fields["instance"] == reduced, "instance written to %s" % fields["instance"])
            require(close(float(fields["epsilon"]), oracle.default_epsilon(orig.dist), 1e-12), "epsilon %s" % fields["epsilon"])

        def check_original(fields, _):
            value, ref = float(fields["value"]), self.cached("o0", original_ref)
            require(close(value, ref, 1e-9), "original value %r != reference %r" % (value, ref))
            state["original"] = value
            return value / ref

        def check_reduced(fields, _):
            value = float(fields["value"])
            require("original" in state and close(value, state["original"], 1e-12), "reduced value %r != original %r" % (value, state.get("original")))

        def check_closed(fields, _):
            ref = self.cached("c0", lambda: oracle.closed_form(closed.D, closed.R, closed.p, *identity(closed.n)))
            value = float(fields["value"])
            require(close(value, ref, 1e-9), "closed form %r != reference %r" % (value, ref))
            return value / ref

        return [
            Op("validate", ["validate", self.path("o0")], check_validate),
            Op("reduce", ["reduce", self.path("o0"), "--from", "original", "-o", reduced], check_reduce),
            Op("original_eval", ["evaluate", self.path("o0"), spec], check_original, "o0"),
            Op("reduced_eval", ["evaluate", reduced, spec], check_reduced),
            Op("closed_eval", ["evaluate", self.path("c0"), order_spec(closed.n)], check_closed, "c0"),
        ]


CLASSES = {"heuristic": Heuristic, "exact": Exact, "scenario": Scenario, "large": Large}


@dataclass
class Stats:
    """Op outcomes and timings of one phase of a run."""

    attempted: int = 0
    failed: int = 0
    round_s: list[float] = field(default_factory=list)
    op_s: dict[str, list[float]] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def run_op(op: Op, stats: Stats, tracer: layertrace.Tracer | None) -> float:
    """Run one CLI op in-process, check its output and return its wall time."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = stats.attempted
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # a crash or a usage exit is a failed op
        error = "%s: %r" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    stats.attempted += 1
    stats.op_s.setdefault(op.kind, []).append(elapsed)
    if error is None and code != 0:
        error = "exit code %r: %s" % (code, err.getvalue().strip()[:200])
    if error is None:
        raw = out.getvalue()
        fields = dict(line.split("=", 1) for line in raw.splitlines() if "=" in line)
        try:
            ratio = op.check(fields, raw)
            if op.key is not None and op.key not in stats.ratios:
                stats.ratios[op.key] = ratio
        except Exception as exc:  # output the check cannot read is a failed op too
            error = "check: %s: %s" % (type(exc).__name__, exc)
    if error is not None:
        stats.failed += 1
        stats.errors.append("%s %s: %s" % (op.kind, " ".join(op.argv[:2]), error))
    return elapsed


def play(wl: Workload, r: int, stats: Stats, tracer: layertrace.Tracer | None = None) -> float:
    """Run round `r` and return the summed wall time of its ops."""
    return sum(run_op(op, stats, tracer) for op in wl.round(r))


def run_rounds(wl: Workload, seconds: float, do_round: Callable[[int], None], whole_cycles: bool) -> int:
    """Call `do_round(r)` for r = 0, 1, ... until `seconds` have passed and at
    least one cycle is done; with `whole_cycles`, stop only at a cycle's end."""
    start = time.perf_counter()
    r = 0
    while r < wl.cycle or time.perf_counter() - start < seconds or (whole_cycles and r % wl.cycle):
        do_round(r)
        r += 1
    return r


def write_inputs(inputs: dict, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for stem, obj in inputs.items():
        serialize.save(obj, workdir / ("%s.json" % stem))


def warm_up(workload: str, workdir: Path) -> None:
    """Pay one-time costs (lazy imports, first calls) on one round of tiny inputs."""
    inputs = make_inputs(workload, 0, "tiny")
    write_inputs(inputs, workdir)
    play(CLASSES[workload](inputs, SIZES["tiny"], workdir, 0), 0, Stats())


def setup(workload: str, seed: int, size: str, workdir: Path) -> None:
    warm_up(workload, workdir / "warm")
    write_inputs(make_inputs(workload, seed, size), workdir)


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_summary(stats: Stats) -> dict:
    return {
        kind: {"median_s": statistics.median(times), "min_s": min(times), "max_s": max(times), "n": len(times)}
        for kind, times in stats.op_s.items()
    }


def layer_metrics(tracer: layertrace.Tracer, rounds: int, overhead: float) -> tuple[dict, dict]:
    """Per-round layer metrics for BENCHMARK.json and the full per-function table."""
    tot = tracer.totals()
    counts = tracer.counts

    def get(name, key):
        return tot.get(name, {}).get(key, 0.0)

    def count(name):
        return counts.get(name, 0.0)

    def rate(work, name):
        busy = get(name, "s")
        return count("%s.%s" % (name, work)) / busy if busy else 0.0

    op_time = get("cli.main", "s")
    module_self = {layer: sum(v["self_s"] for k, v in tot.items() if k.split(".")[0] == layer) for layer in layertrace.LAYERS}

    def pct(seconds):
        return 100.0 * seconds / op_time if op_time else 0.0

    m = {
        "cli.main.s": (op_time / rounds, "s"),
        "cli.self_s": (module_self["cli"] / rounds, "s"),
        "serialize.self_s": (module_self["serialize"] / rounds, "s"),
        "evaluate.self_s": (module_self["evaluate"] / rounds, "s"),
        "serialize.load.s": (get("serialize.load", "s") / rounds, "s"),
        "evaluate.weighted_tour_costs.s": (get("evaluate.weighted_tour_costs", "s") / rounds, "s"),
    }
    for layer in layertrace.LAYERS:
        m["%s.self_pct" % layer] = (pct(module_self[layer]), "%")
    for name in ("solvers.local_search", "solvers.brute_force", "evaluate.expected_cost_enumeration",
                 "evaluate.expected_cost_monte_carlo", "transforms.simplify"):
        m["%s.self_pct" % name] = (pct(get(name, "self_s")), "%")
    for name in ("solvers.nearest_neighbor", "graph.all_pairs_shortest_paths", "transforms.tsp_to_setp",
                 "serialize.load", "serialize.save"):
        m["%s.pct" % name] = (pct(get(name, "s")), "%")
    for name in ("evaluate.expected_cost_closed_form", "evaluate.weighted_tour_costs", "core.canonicalize",
                 "solvers.nearest_neighbor", "graph.all_pairs_shortest_paths", "transforms.simplify",
                 "transforms.tsp_to_setp"):
        m["%s.calls" % name] = (get(name, "calls") / rounds, "count")
    for name in ("solvers.local_search.evaluations", "solvers.brute_force.evaluations",
                 "evaluate.weighted_tour_costs.rows", "evaluate.weighted_tour_costs.pair_terms",
                 "evaluate.expected_cost_enumeration.scenarios", "evaluate.expected_cost_monte_carlo.samples"):
        m[name] = (count(name) / rounds, "count")
    m["serialize.load.bytes"] = (count("serialize.load.bytes") / rounds, "B")
    m["serialize.save.bytes"] = (count("serialize.save.bytes") / rounds, "B")
    candidates = count("solvers.brute_force.candidates")
    m["solvers.brute_force.evals_per_candidate"] = (count("solvers.brute_force.evaluations") / candidates if candidates else 0.0, "ratio")
    m["solvers.local_search.evals_per_s"] = (rate("evaluations", "solvers.local_search"), "1/s")
    m["solvers.brute_force.evals_per_s"] = (rate("evaluations", "solvers.brute_force"), "1/s")
    m["evaluate.weighted_tour_costs.pair_terms_per_s"] = (rate("pair_terms", "evaluate.weighted_tour_costs"), "1/s")
    m["evaluate.expected_cost_enumeration.scenarios_per_s"] = (rate("scenarios", "evaluate.expected_cost_enumeration"), "1/s")
    m["evaluate.expected_cost_monte_carlo.samples_per_s"] = (rate("samples", "evaluate.expected_cost_monte_carlo"), "1/s")
    m["serialize.load.bytes_per_s"] = (rate("bytes", "serialize.load"), "B/s")
    m["trace.overhead"] = (overhead, "ratio")
    table = {
        name: {"calls": v["calls"] / rounds, "s": v["s"] / rounds, "self_s": v["self_s"] / rounds}
        for name, v in sorted(tot.items())
    }
    for name, value in sorted(counts.items()):
        table.setdefault(name.rsplit(".", 1)[0], {})[name.rsplit(".", 1)[1]] = value / rounds
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, table


def measure(workload: str, seed: int, seconds: float, traced: bool, size: str, workdir: Path,
            spans_path: Path | None = None) -> dict:
    """Timed phase of one run.

    With `traced`, each round of whole cycles runs twice, once with the layer
    wrappers installed and once without, in alternating order; the tracing
    overhead is the median of the paired time ratios, so drift in machine
    speed cancels out.
    """
    warm_up(workload, workdir / "warm")
    wl = CLASSES[workload](make_inputs(workload, seed, size), SIZES[size], workdir, seed)
    result = {"workload": workload, "seed": seed, "size": size, "env": environment()}
    stats = Stats()
    start = time.perf_counter()
    if not traced:
        rounds = run_rounds(wl, seconds, lambda r: stats.round_s.append(play(wl, r, stats)), whole_cycles=False)
        metrics = {
            "round_s": {"value": statistics.median(stats.round_s), "unit": "s"},
            # 0 only when every op that reports a ratio failed its check
            "cost_ratio": {"value": statistics.fmean(stats.ratios.values()) if stats.ratios else 0.0, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        result["report"] = {"rounds": rounds, "run_s": time.perf_counter() - start, "ops": op_summary(stats)}
    else:
        tracer = layertrace.Tracer()
        overheads = []

        def paired_round(r):
            seconds_by_mode = {}
            for traced_pass in (True, False) if r % 2 == 0 else (False, True):
                if traced_pass:
                    tracer.install(setp)
                try:
                    seconds_by_mode[traced_pass] = play(wl, r, stats, tracer if traced_pass else None)
                finally:
                    tracer.uninstall()
            overheads.append(seconds_by_mode[True] / seconds_by_mode[False])

        rounds = run_rounds(wl, seconds, paired_round, whole_cycles=True)
        metrics, table = layer_metrics(tracer, rounds, statistics.median(overheads))
        result["report"] = {"traced_rounds": rounds, "run_s": time.perf_counter() - start, "functions": table}
        if spans_path is not None:
            tracer.write(spans_path)
            result["report"]["spans"] = str(spans_path)
    result["report"]["fail_rate"] = stats.failed / stats.attempted
    result["report"]["errors"] = stats.errors[:10]
    result.update(attempted=stats.attempted, failed=stats.failed, metrics=metrics)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("phase", choices=["setup", "measure"])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.phase == "setup":
        setup(args.workload, args.seed, args.size, args.workdir)
        result = {"setup_s": time.perf_counter() - SETUP_START}
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.workdir, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
