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
from .core import AprioriOrder, SimplifiedInstance, TspInstance
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
        index = tok[:-1]
        # ASCII digits with no leading zero: int() also reads "+1", "1_0" and other scripts' digits
        if not tok or tok[-1] not in "+-" or not (index.isascii() and index.isdigit()) or index != str(int(index)):
            raise ValueError("bad order token %r (want e.g. 3+ or 3-)" % tok)
        seq.append(int(index))
        orient.append(0 if tok[-1] == "+" else 1)
    if sorted(seq) != list(range(n)):
        raise ValueError("order %r is not a permutation of 0..%d" % (spec, n - 1))
    return AprioriOrder(tuple(seq), tuple(orient))


def format_order_spec(order: AprioriOrder) -> str:
    return ",".join("%d%s" % (i, "-" if o else "+") for i, o in zip(order.sequence, order.orient))


def above(convert, low):
    """argparse type: `convert` the option's text and require a finite value above `low`."""
    def parse(text):
        value = convert(text)
        if not low < value < math.inf:  # NaN fails too
            raise argparse.ArgumentTypeError("must be above %s and finite, got %s" % (low, text))
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


# Cost evaluations `solve --heuristic` may spend when --budget is not given.
HEURISTIC_BUDGET = 1_000_000

# Scenarios `evaluate --method mc` samples when --samples is not given.
MC_SAMPLES = 100_000

# For each command with modes: the option that selects the mode, the mode as
# typed, and the options each mode reads with the value each takes when it is
# not given. An option of another mode of the command is a usage error.
MODES = {
    "evaluate": ("method", "--method %s", {"closed": {}, "enum": {}, "mc": {"samples": MC_SAMPLES, "seed": 0}}),
    "solve": ("mode", "--%s", {"exact": {}, "heuristic": {"budget": HEURISTIC_BUDGET}}),
    # original's --required is max(1, e // 3) when not given
    "gen": ("kind", "--kind %s", {"simplified": {"n": 5, "metric": False}, "tsp": {"n": 5},
                                  "original": {"v": 6, "e": 8, "required": None}}),
    "verify": ("suite", "--suite %s", {
        name: {opt: arg.default for opt, arg in inspect.signature(suite).parameters.items()}
        for name, suite in verify.SUITES.items()}),
}

def _load(path, *kinds):
    """The instance stored at `path` if it is one of `kinds`; prints one
    violation= line per broken invariant and raises ValueError if it is invalid."""
    inst = serialize.load(path)
    kind = serialize.to_document(inst)["kind"]
    if kind not in kinds:
        raise serialize.FormatError("%s holds a %s document, not %s" % (path, kind, " or ".join(kinds)))
    violations = serialize.KINDS[kind].validate(inst)
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
    tsp = isinstance(inst, TspInstance)
    if epsilon is None:
        epsilon = transforms.default_epsilon(inst.C if tsp else inst.dist)
    simp, vmap = (transforms.tsp_to_setp if tsp else transforms.simplify)(inst, epsilon)
    print("epsilon=%r" % epsilon)
    return simp, vmap


def cmd_validate(args) -> int:
    _load(args.path, *serialize.KINDS)
    print("OK")
    return 0


def cmd_evaluate(args) -> int:
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
        res = expected_cost_monte_carlo(order, inst, samples=args.samples, seed=args.seed)
    print("method=%s" % res.method)
    print("value=%r" % res.value)
    if res.method == "monte_carlo":
        print("stderr=%r" % res.stderr)
        print("samples=%d" % args.samples)
        print("seed=%d" % args.seed)
    return 0


def cmd_solve(args) -> int:
    inst, _ = _reduce(_load(args.path, "original", "simplified"))
    if args.mode == "exact":
        result = solvers.brute_force(inst)
    else:
        init = solvers.nearest_neighbor(inst)
        result = solvers.local_search(inst, init, budget=args.budget)
    print("order=%s" % format_order_spec(result.order))
    print("cost=%r" % result.cost.value)
    print("evaluations=%d" % result.evaluations)
    if args.mode == "heuristic":
        print("stop=%s" % result.stop, file=sys.stderr)
        print("sweeps=%d" % result.sweeps, file=sys.stderr)
        print("settles=%d" % result.settles, file=sys.stderr)
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


def cmd_gen(args) -> int:
    if args.kind == "simplified":
        obj = transforms.gen_random_simplified(args.n, seed=args.seed, metric=args.metric)
    elif args.kind == "tsp":
        obj = transforms.gen_random_tsp(args.n, seed=args.seed)
    else:
        n_req = max(1, args.e // 3) if args.required is None else args.required
        obj = transforms.gen_random_original(args.v, args.e, n_req, seed=args.seed)
    if args.out:
        serialize.save(obj, args.out)
        print("instance=%s" % args.out)
    else:
        sys.stdout.write(serialize.dumps(obj))
    return 0


def cmd_verify(args) -> int:
    options = MODES["verify"][2][args.suite]
    ok, lines = verify.SUITES[args.suite](**{opt: getattr(args, opt) for opt in options})
    print("suite=%s" % args.suite)
    for line in lines:
        print(line)
    print("result=%s" % ("pass" if ok else "fail"))
    return 0 if ok else 1


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setp", description=__doc__)
    mc, heuristic, gen = MODES["evaluate"][2]["mc"], MODES["solve"][2]["heuristic"], MODES["gen"][2]
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check instance invariants")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evaluate", help="expected cost of an order")
    p.add_argument("path")
    p.add_argument("order", help="comma list of edge indices with +/- orientation, e.g. 0+,2-,1+")
    p.add_argument("--method", choices=sorted(MODES["evaluate"][2]), default="closed")
    p.add_argument("--samples", type=above(int, 0), default=None,
                   help="Monte Carlo samples for --method mc (default %d)" % mc["samples"])
    p.add_argument("--seed", type=above(int, -1), default=None,
                   help="Monte Carlo seed for --method mc (default %d)" % mc["seed"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("solve", help="optimize the expected cost")
    mode = p.add_mutually_exclusive_group(required=True)
    for name in sorted(MODES["solve"][2]):
        mode.add_argument("--" + name, dest="mode", action="store_const", const=name)
    p.add_argument("--budget", type=above(int, 0), default=None,
                   help="cost evaluations for --heuristic (default %d)" % heuristic["budget"])
    p.add_argument("path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="reduce tsp/original to the simplified form")
    p.add_argument("path")
    p.add_argument("--from", dest="source", choices=["tsp", "original"], required=True)
    p.add_argument("--epsilon", type=above(float, 0), default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=sorted(gen), required=True)
    p.add_argument("--n", type=int, help="edges (simplified), default %d, or cities (tsp), default %d"
                   % (gen["simplified"]["n"], gen["tsp"]["n"]))
    p.add_argument("--v", type=int, help="vertices (original), default %d" % gen["original"]["v"])
    p.add_argument("--e", type=int, help="at least this many edges before depot embedding (original); "
                   "repairing odd degrees may add more, default %d" % gen["original"]["e"])
    p.add_argument("--required", type=int, help="required edges (original), default max(1, e // 3)")
    p.add_argument("--seed", type=above(int, -1), default=0)
    p.add_argument("--metric", action="store_true", default=None, help="metric closure of D (simplified)")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run a structural verification suite")
    p.add_argument("--suite", choices=sorted(MODES["verify"][2]), required=True)
    p.add_argument("--seeds", type=above(int, 0), default=None)
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in MODES:
        dest, typed, modes = MODES[args.command]
        reads = modes[getattr(args, dest)]
        for opt in dict.fromkeys(opt for options in modes.values() for opt in options):
            if getattr(args, opt) is None:
                setattr(args, opt, reads.get(opt))
            elif opt not in reads:
                print("error=%s takes no --%s" % (typed % getattr(args, dest), opt), file=sys.stderr)
                return 2
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print("error=%s" % exc, file=sys.stderr)
        # An unreadable or malformed file, and a gen or verify option value that
        # cannot be used or allocated, are usage errors; anything else, such as
        # an invalid instance or a solver's size guard, is a domain failure.
        usage = isinstance(exc, (OSError, serialize.FormatError)) or args.command in ("gen", "verify")
        return 2 if usage else 1


if __name__ == "__main__":
    sys.exit(main())
