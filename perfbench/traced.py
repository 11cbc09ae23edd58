"""Run one thetaforge command with spans around the calls into its layers.

    python3 perfbench/traced.py OUT.json CLI-ARG...

The wrappers live here, in the benchmark, not in the program.  Each traced
function is replaced in every thetaforge namespace that holds it, because
several modules import names by value (cli holds its own count_by_norm,
hilbert_eval its own enumerate_coset, ...); a namespace left unwrapped would
make its span read zero.  Spans are kept in memory and written to OUT.json
when the command ends; stdout is the command's own.
"""

import functools
import json
import os
import sys
import time
from fractions import Fraction
from math import isqrt

# Functions that get a span, as (module, attribute, span name).
SPANNED = (
    ("codelattice", "lattice_of_code", "codelattice.lattice_of_code"),
    ("codelattice", "lll_reduce", "codelattice.lll"),
    ("codelattice", "enumerate_coset", "codelattice.enum"),
    ("codelattice", "count_by_norm", "codelattice.count_by_norm"),
    ("codelattice", "theta_series", "codelattice.theta_series"),
    ("codelattice", "box_count_by_norm", "codelattice.box"),
    ("codelattice", "standard_lattice", "codelattice.standard_lattice"),
    ("hilbert_eval", "theta_code_eval", "hilbert_eval.eval"),
    ("hilbert_eval", "theta_class_eval", "hilbert_eval.eval"),
    ("hilbert_eval", "_coset_arrays", "hilbert_eval.coset_arrays"),
    ("voarep", "z_map", "voarep.z_map"),
    ("qexp", "compose_enumerator", "qexp.compose"),
    ("fpcode", "code_predicates", "fpcode.code_predicates"),
    ("fpcode", "weight_enumerator", "fpcode.weight_enumerator"),
    ("octower", "is_perfect", "octower.is_perfect"),
    ("octower", "crossed_hom_space", "octower.crossed_hom"),
    ("cliffcode", "verify_all", "cliffcode.verify_all"),
)

# Methods that only get a call counter, as (module, class, counter name).
COUNTED = (
    ("qexp", "QSeries", "qexp.series_mul_calls"),
    ("cyclotomic", "CycRat", "cyclotomic.cycrat_mul_calls"),
    ("cliffcode", "SignedMatrix", "cliffcode.signed_matrix_products"),
)

# lru_cache'd functions whose cache_info() is reported.  The third one,
# voarep._digit_minimum, is reached only by `rep check-main`, which no
# workload runs.
CACHED = (
    ("codelattice", "standard_lattice"),
    ("hilbert_eval", "_coset_arrays"),
)


class Tracer:
    """Spans as [name, parent index, start, end]; counters by name."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.golay_gram = None
        self.originals = {}

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper


def _modules():
    return {name[len("thetaforge."):]: mod for name, mod in sys.modules.items()
            if name.startswith("thetaforge.")}


def install(tracer):
    """Wrap every SPANNED function and COUNTED method; return the patched
    namespaces as {span or counter name: ["module.attr", ...]}."""
    import thetaforge.cli  # noqa: F401  loads every layer
    mods = _modules()
    patched = {}
    for mod_name, attr, span in SPANNED:
        original = getattr(mods[mod_name], attr)
        tracer.originals[mod_name, attr] = original
        wrapper = tracer.timed(span, _special(tracer, attr, original),
                               _after(tracer, attr, original))
        for holder_name, holder in mods.items():
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    patched.setdefault(span, []).append(
                        "%s.%s" % (holder_name, key))
    for mod_name, cls_name, counter in COUNTED:
        cls = getattr(mods[mod_name], cls_name)
        original = cls.__mul__
        wrapper = tracer.counted(counter, original)
        for key in ("__mul__", "__rmul__"):
            if cls.__dict__.get(key) is original:
                setattr(cls, key, wrapper)
                patched.setdefault(counter, []).append(
                    "%s.%s.%s" % (mod_name, cls_name, key))
    cli = mods["cli"]
    cli.VERIFY_STAGES = tuple(
        (name, tracer.timed("cli.stage." + name, fn))
        for name, fn in cli.VERIFY_STAGES)
    return patched


def _special(tracer, attr, original):
    """The callable the span wraps; enumerate_coset also counts leaves."""
    if attr != "enumerate_coset":
        return original

    def enumerate_coset(gram, shift, bound, emit):
        def counted_emit(x, scaled, scale):
            leaves[0] += 1
            emit(x, scaled, scale)
        leaves = [0]
        try:
            original(gram, shift, bound, counted_emit)
        finally:
            tracer.add("codelattice.enum_leaves", leaves[0])
    return enumerate_coset


def _after(tracer, attr, original):
    """Counts taken from a call's arguments and result."""
    if attr == "box_count_by_norm":
        def after(args, kwargs, result):
            lattice = args[0] if args else kwargs["lattice"]
            bound = Fraction(args[1] if len(args) > 1 else kwargs["bound"])
            if bound >= 0:
                half = isqrt(2 * bound.numerator // bound.denominator)
                tracer.add("codelattice.box_points",
                           (2 * half + 1) ** lattice.rank)
            tracer.add("codelattice.box_useful", sum(result.values()))
        return after
    if attr == "_coset_arrays":
        misses = [0]

        def after(args, kwargs, result):
            now = original.cache_info().misses
            if now != misses[0]:
                misses[0] = now
                coords, norms = result[0], result[1]
                tracer.add("hilbert_eval.vectors_materialised",
                           int(coords.shape[0]))
                tracer.add("hilbert_eval.array_bytes",
                           int(coords.nbytes + norms.nbytes))
        return after
    if attr == "lattice_of_code":
        def after(args, kwargs, result):
            code = args[0] if args else kwargs["code"]
            if (code.p, code.n, len(code)) == (3, 12, 729):
                tracer.golay_gram = [list(row) for row in result.gram]
        return after
    return None


def dump(tracer, path):
    caches = {}
    for mod_name, attr in CACHED:
        info = tracer.originals[mod_name, attr].cache_info()
        caches["%s.%s" % (mod_name, attr)] = [info.hits, info.misses]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "caches": caches, "golay_gram": tracer.golay_gram}, fh)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from thetaforge import cli
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    dump(tracer, out_path)
    return code


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main(sys.argv[1:]))
