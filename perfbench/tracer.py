"""Outside-in tracer for newton_socle.

Wraps public functions of the package modules from outside, so that no file
of the package changes, records one span per call (name, start, end, parent),
keeps the spans in memory and writes them out when the CLI returns.  Counters
are read from public return values.

Run one traced CLI invocation with the package on PYTHONPATH:

    python perfbench/tracer.py verify-all --poly "x1^2 + x2^3"

The report goes to stdout as usual; the spans go to stderr as one JSON line
starting with ``SPANS_MARKER``.
"""

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

SPANS_MARKER = "perfbench-spans "

# linalg.dot is left out on purpose: it is called about 3.3e5 times per
# surface input, so wrapping it would cost more than it measures.
TARGETS = {
    "cli": ("read_polynomial", "emit_report"),
    "polylattice": ("faces", "newton_polyhedron"),
    "fan": ("dual_fan", "regularize"),
    "facering": ("canonical_quotient", "select_parameters", "class_nonzero"),
    "grobner": ("buchberger", "nondegeneracy_report"),
    "localalg": ("certified_ideal", "build_ideal", "socle",
                 "coset_newton_order", "jacobian_multiplication_check"),
    "residue": ("grothendieck_residue", "verify_residue_nonvanishing"),
    "combid": ("random_minor_identity_trials",),
    "linalg": ("rref", "solve", "kernel_basis"),
}

# Functions whose arguments are keyed, to count calls that repeat earlier work.
KEYED = ("facering.canonical_quotient", "localalg.certified_ideal")


def _primes_retried(bound, report):
    """Primes listed in the report's faces beyond the requested count."""
    primes = bound.arguments.get("primes", 3)
    return sum(sum(len(r) for r in face["primes"]) - primes
               for face in report["faces"] if "primes" in face)


# function -> {metric name: value read from (bound arguments, result)}
COUNTERS = {
    "polylattice.faces": {
        "polylattice.faces.faces_out": lambda b, r: len(r)},
    "residue.grothendieck_residue": {
        "residue.grothendieck_residue.truncation_used":
            lambda b, r: r.truncation_used},
    "localalg.certified_ideal": {
        "localalg.certified_ideal.echelon_rows":
            lambda b, r: len(r.echelon.rows)},
    "fan.regularize": {
        "fan.regularize.rays_added":
            lambda b, r: len(r.rays) - len(b.arguments["fan"].rays)},
    "grobner.buchberger": {
        "grobner.buchberger.basis_size": lambda b, r: len(r.basis)},
    "grobner.nondegeneracy_report": {
        "grobner.primes_retried": _primes_retried},
}


def canonical(obj):
    """A value-based, hashable rendering of ``obj``: containers, dataclasses
    and slotted classes by their contents, anything else by ``repr``."""
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted(((canonical(k), canonical(v))
                             for k, v in obj.items()), key=repr))
    if hasattr(obj, "__dataclass_fields__"):
        names = obj.__dataclass_fields__
    elif hasattr(obj, "__slots__"):
        names = obj.__slots__
    else:
        return repr(obj)
    return (type(obj).__name__,) + tuple(
        (n, canonical(getattr(obj, n))) for n in names)


class Tracer:
    """Span recorder; ``install`` patches the package, ``spans`` holds
    ``[name, start, end, parent index or -1, counters, argument key]``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, None, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        return result, record

    def wrap(self, name, fn):
        counters = COUNTERS.get(name)
        keyed = name in KEYED
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, record = self.span(name, fn, args, kwargs)
            if counters or keyed:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if counters:
                    record[4] = {k: f(bound, result)
                                 for k, f in counters.items()}
                if keyed:
                    text = repr(canonical(bound.arguments))
                    record[5] = hashlib.sha1(text.encode()).hexdigest()
            return result

        return wrapper

    def install(self):
        """Replace each target in every newton_socle module that bound it,
        including names bound with ``from ... import``."""
        modules = [importlib.import_module("newton_socle." + m)
                   for m in TARGETS]
        package = [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "newton_socle"]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for fname in TARGETS[layer]:
                original = getattr(module, fname)
                wrapper = self.wrap(layer + "." + fname, original)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def layer_values(span_lists):
    """Per-layer metric values from the spans of several invocations.

    ``*.calls`` counts spans, ``*.self_s`` is span time minus child-span time,
    ``*.useful_ratio`` is distinct argument keys per invocation over calls,
    and the counters are summed.  Functions never called read 0."""
    values = {}
    for layer, names in TARGETS.items():
        for fname in names:
            values[layer + "." + fname + ".calls"] = 0
            values[layer + "." + fname + ".self_s"] = 0.0
    for metrics in COUNTERS.values():
        for k in metrics:
            values[k] = 0
    distinct = {name: 0 for name in KEYED}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        keys = {name: set() for name in KEYED}
        for i, (name, start, end, _, counters, key) in enumerate(spans):
            if name == "cli.main":
                continue
            values[name + ".calls"] += 1
            values[name + ".self_s"] += end - start - child[i]
            for k, v in (counters or {}).items():
                values[k] += v
            if key is not None:
                keys[name].add(key)
        for name in KEYED:
            distinct[name] += len(keys[name])
    for name in KEYED:
        calls = values[name + ".calls"]
        values[name + ".useful_ratio"] = (distinct[name] / calls
                                          if calls else 0.0)
    return values


def main(argv):
    tracer = Tracer()
    tracer.install()
    from newton_socle import cli
    try:
        code, _ = tracer.span("cli.main", cli.main, (argv,), {})
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + SPANS_MARKER + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
