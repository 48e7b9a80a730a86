"""Spans around calls into the setp layers, recorded from outside the package.

`Tracer.install` wraps every public function of the layer modules and puts
the wrapper at every module attribute that holds the function, so calls
through re-exports (`setp.solvers.weighted_tour_costs`) are seen as well as
calls through the defining module. Spans are kept in memory and only while
an op is open; `Tracer.uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "serialize", "core", "graph", "transforms", "evaluate", "solvers")


def _weighted_tour_costs(args, result):
    shape = args["W"].shape
    rows = shape[0] if len(shape) == 2 else 1
    return {"rows": rows, "pair_terms": rows * shape[-1] ** 2}


def _solve(args, result):
    return {"evaluations": result.evaluations}


def _brute_force(args, result):
    n = args["inst"].n
    return {"evaluations": result.evaluations, "candidates": math.factorial(n - 1) * 2**n}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# Work counts taken from a wrapped call's arguments and result.
COUNTERS = {
    "evaluate.weighted_tour_costs": _weighted_tour_costs,
    "evaluate.expected_cost_enumeration": lambda args, result: {"scenarios": 2 ** args["inst"].n},
    "evaluate.expected_cost_monte_carlo": lambda args, result: {"samples": args["samples"]},
    "solvers.local_search": _solve,
    "solvers.brute_force": _brute_force,
    "serialize.load": _file_bytes,
    "serialize.save": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        modules = [sys.modules["%s.%s" % (package.__name__, layer)] for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap("%s.%s" % (layer, attr), fn)
        holders = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    tracer.counts["%s.%s" % (name, key)] += value
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per wrapped function."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
