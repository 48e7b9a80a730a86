"""Command-line surface: validate, evaluate, solve, reduce, gen, verify.

Reports are line-oriented key=value records on stdout. Exit codes: 0 success,
1 domain failure (invalid instance, failed check), 2 usage or parse error.
Timing and search counters go to stderr so that seeded runs are
byte-reproducible on stdout.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys

from . import serialize, solvers, transforms, verify
from .core import (
    AprioriOrder,
    OriginalInstance,
    SimplifiedInstance,
    validate_original,
    validate_simplified,
    validate_tsp,
)
from .evaluate import (
    expected_cost_closed_form,
    expected_cost_enumeration,
    expected_cost_monte_carlo,
)


def parse_order_spec(spec: str, n: int) -> AprioriOrder:
    """Parse a solution like `0+,2-,1+` into an order over n edges."""
    seq = []
    orient = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok or tok[-1] not in "+-" or tok[:-1] != str(int(tok[:-1])):  # int() also reads "+1" and "1_0"
            raise ValueError("bad order token %r (want e.g. 3+ or 3-)" % tok)
        seq.append(int(tok[:-1]))
        orient.append(0 if tok[-1] == "+" else 1)
    if sorted(seq) != list(range(n)):
        raise ValueError("order %r is not a permutation of 0..%d" % (spec, n - 1))
    return AprioriOrder(tuple(seq), tuple(orient))


def format_order_spec(order: AprioriOrder) -> str:
    return ",".join("%d%s" % (i, "-" if o else "+") for i, o in zip(order.sequence, order.orient))


def positive(convert):
    """argparse type: `convert` the option's text and require a positive, finite value."""
    def parse(text):
        value = convert(text)
        if not 0 < value < math.inf:  # NaN fails too
            raise argparse.ArgumentTypeError("must be positive and finite, got %s" % text)
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def non_negative(convert):
    """argparse type: `convert` the option's text and require a value of at least 0."""
    def parse(text):
        value = convert(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError("must be non-negative, got %s" % text)
        return value
    parse.__name__ = convert.__name__
    return parse


# Cost evaluations `solve --heuristic` may spend when --budget is not given.
HEURISTIC_BUDGET = 1_000_000

# Scenarios `evaluate --method mc` samples when --samples is not given.
MC_SAMPLES = 100_000

# The kind of each type serialize.load returns.
KINDS = {OriginalInstance: "original", SimplifiedInstance: "simplified", transforms.TspInstance: "tsp",
         dict: "vertex_map"}


def _load(path, *kinds):
    """The instance stored at `path` if it is one of `kinds`; prints one
    violation= line per broken invariant and raises ValueError if it is invalid."""
    inst = serialize.load(path)
    kind = KINDS[type(inst)]
    if kind not in kinds:
        raise serialize.FormatError("%s holds a %s document, not %s" % (path, kind, " or ".join(kinds)))
    check = {"original": validate_original, "simplified": validate_simplified, "tsp": validate_tsp}[kind]
    violations = check(inst)
    for v in violations:
        print("violation=%s" % v)
    if violations:
        raise ValueError("invalid %s instance" % kind)
    return inst


def _reduce(inst, epsilon=None):
    """Simplified form of a loaded instance and its vertex map (None if it
    already is simplified); prints the epsilon a reduction used."""
    if isinstance(inst, SimplifiedInstance):
        return inst, None
    tsp = isinstance(inst, transforms.TspInstance)
    if epsilon is None:
        epsilon = transforms.default_epsilon(inst.C if tsp else inst.dist)
    simp, vmap = (transforms.tsp_to_setp if tsp else transforms.simplify)(inst, epsilon)
    print("epsilon=%r" % epsilon)
    return simp, vmap


def cmd_validate(args) -> int:
    _load(args.path, "original", "simplified", "tsp")
    print("OK")
    return 0


def cmd_evaluate(args) -> int:
    if args.method != "mc" and (args.samples is not None or args.seed is not None):
        print("error=--samples and --seed apply to --method mc only", file=sys.stderr)
        return 2
    inst, _ = _reduce(_load(args.path, "original", "simplified"))
    try:
        order = parse_order_spec(args.order, inst.n)
    except ValueError as exc:
        print("error=%s" % exc, file=sys.stderr)
        return 2
    if args.method == "closed":
        res = expected_cost_closed_form(order, inst)
    elif args.method == "enum":
        res = expected_cost_enumeration(order, inst)
    else:
        samples, seed = args.samples or MC_SAMPLES, args.seed or 0
        res = expected_cost_monte_carlo(order, inst, samples=samples, seed=seed)
    print("method=%s" % res.method)
    print("value=%r" % res.value)
    if res.method == "monte_carlo":
        print("stderr=%r" % res.stderr)
        print("samples=%d" % samples)
        print("seed=%d" % seed)
    return 0


def cmd_solve(args) -> int:
    if args.exact and args.budget is not None:
        print("error=--budget applies to --heuristic only", file=sys.stderr)
        return 2
    inst, _ = _reduce(_load(args.path, "original", "simplified"))
    if args.exact:
        result = solvers.brute_force(inst)
    else:
        init = solvers.nearest_neighbor(inst)
        result = solvers.local_search(inst, init, budget=args.budget or HEURISTIC_BUDGET)
    print("order=%s" % format_order_spec(result.order))
    print("cost=%r" % result.cost.value)
    print("evaluations=%d" % result.evaluations)
    if not args.exact:
        print("stop=%s" % result.stop, file=sys.stderr)
        print("sweeps=%d" % result.sweeps, file=sys.stderr)
    print("wall_time=%.3fs" % result.wall_time, file=sys.stderr)
    return 0


def cmd_reduce(args) -> int:
    simp, vmap = _reduce(_load(args.path, args.source), args.epsilon)
    out = args.out or (args.path + ".simplified.json")
    serialize.save(simp, out)
    serialize.save(vmap, out + ".map")
    print("instance=%s" % out)
    print("map=%s" % (out + ".map"))
    return 0


# The options each `gen --kind` reads, with the value it takes when one is not given.
GEN_OPTIONS = {"simplified": {"n": 5, "metric": False}, "tsp": {"n": 5}, "original": {"v": 6, "e": 8, "required": 0}}


def cmd_gen(args) -> int:
    opts = dict(GEN_OPTIONS[args.kind])
    for opt in ("n", "metric", "v", "e", "required"):
        if getattr(args, opt) is not None:
            if opt not in opts:
                raise ValueError("--kind %s takes no --%s" % (args.kind, opt))
            opts[opt] = getattr(args, opt)
    if args.kind == "simplified":
        obj = transforms.gen_random_simplified(opts["n"], seed=args.seed, metric=opts["metric"])
    elif args.kind == "tsp":
        obj = transforms.gen_random_tsp(opts["n"], seed=args.seed)
    else:
        n_req = opts["required"] or max(1, opts["e"] // 3)
        obj = transforms.gen_random_original(opts["v"], opts["e"], n_req, seed=args.seed)
    if args.out:
        serialize.save(obj, args.out)
        print("instance=%s" % args.out)
    else:
        sys.stdout.write(serialize.dumps(obj))
    return 0


def cmd_verify(args) -> int:
    suite = verify.SUITES[args.suite]
    kwargs = {opt: getattr(args, opt) for opt in ("seeds", "size") if getattr(args, opt) is not None}
    for opt in kwargs:
        if opt not in inspect.signature(suite).parameters:
            raise ValueError("suite %s takes no --%s" % (args.suite, opt))
    ok, lines = suite(**kwargs)
    print("suite=%s" % args.suite)
    for line in lines:
        print(line)
    print("result=%s" % ("pass" if ok else "fail"))
    return 0 if ok else 1


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check instance invariants")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evaluate", help="expected cost of an order")
    p.add_argument("path")
    p.add_argument("order", help="comma list of edge indices with +/- orientation, e.g. 0+,2-,1+")
    p.add_argument("--method", choices=["closed", "enum", "mc"], default="closed")
    p.add_argument("--samples", type=positive(int), default=None,
                   help="Monte Carlo samples for --method mc (default %d)" % MC_SAMPLES)
    p.add_argument("--seed", type=non_negative(int), default=None, help="Monte Carlo seed for --method mc (default 0)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("solve", help="optimize the expected cost")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--heuristic", action="store_true")
    p.add_argument("--budget", type=positive(int), default=None,
                   help="cost evaluations for --heuristic (default %d)" % HEURISTIC_BUDGET)
    p.add_argument("path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="reduce tsp/original to the simplified form")
    p.add_argument("path")
    p.add_argument("--from", dest="source", choices=["tsp", "original"], required=True)
    p.add_argument("--epsilon", type=positive(float), default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=["original", "simplified", "tsp"], required=True)
    p.add_argument("--n", type=int, help="edges (simplified) or cities (tsp), default 5")
    p.add_argument("--v", type=int, help="vertices (original), default 6")
    p.add_argument("--e", type=int, help="edges before depot embedding (original), default 8")
    p.add_argument("--required", type=int, help="required edges (original), default max(1, e // 3)")
    p.add_argument("--seed", type=non_negative(int), default=0)
    p.add_argument("--metric", action="store_true", default=None, help="metric closure of D (simplified)")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run a structural verification suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES), required=True)
    p.add_argument("--seeds", type=positive(int), default=None)
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error=%s" % exc, file=sys.stderr)
        # A file that cannot be read or parsed, and an option value that gen or
        # verify rejects, are usage errors; any other ValueError, such as an
        # invalid instance or a solver's size guard, is a domain failure.
        usage = isinstance(exc, (OSError, serialize.FormatError)) or args.command in ("gen", "verify")
        return 2 if usage else 1


if __name__ == "__main__":
    sys.exit(main())
