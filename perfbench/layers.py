"""Metric names, and the per-layer metrics derived from traced.py's output.

A layer's time is the summed duration of its spans, counting a span only
when no enclosing span has the same name.  hilbert_eval.enum_s is the
enumeration time spent under a Hilbert evaluation span, and
hilbert_eval.float_s the rest of that span: the layer's self time.
"""

from fractions import Fraction

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Stages of `verify all --level desk`, in the order cli runs them.
STAGES = ("expansion", "alpbach_exact_tetracode", "alpbach_exact_random",
          "alpbach_numerical", "e8", "golay", "orbits", "grades", "sl2f3",
          "clifford", "hamming", "tower")

PER_LAYER = tuple(("cli.stage.%s_s" % s, "s", "lower") for s in STAGES) + (
    ("codelattice.lattice_of_code_s", "s", "lower"),
    ("codelattice.lll_s", "s", "lower"),
    ("codelattice.golay_max_gram_diag", "norm", "lower"),
    ("codelattice.golay_max_abs_mu", "coeff", "lower"),
    ("codelattice.enum_calls", "count", "lower"),
    ("codelattice.enum_s", "s", "lower"),
    ("codelattice.enum_leaves", "count", "lower"),
    ("codelattice.leaves_per_s", "1/s", "higher"),
    ("codelattice.count_by_norm_s", "s", "lower"),
    ("codelattice.box_s", "s", "lower"),
    ("codelattice.box_points", "count", "lower"),
    ("codelattice.box_useful_ratio", "ratio", "higher"),
    ("codelattice.standard_lattice_hits", "count", "higher"),
    ("codelattice.standard_lattice_misses", "count", "lower"),
    ("hilbert_eval.eval_s", "s", "lower"),
    ("hilbert_eval.enum_s", "s", "lower"),
    ("hilbert_eval.float_s", "s", "lower"),
    ("hilbert_eval.coset_cache_hits", "count", "higher"),
    ("hilbert_eval.coset_cache_misses", "count", "lower"),
    ("hilbert_eval.coset_cache_hit_ratio", "ratio", "higher"),
    ("hilbert_eval.vectors_materialised", "count", "lower"),
    ("hilbert_eval.array_mb", "MB", "lower"),
    ("voarep.z_map_s", "s", "lower"),
    ("voarep.z_map_calls", "count", "lower"),
    ("qexp.compose_s", "s", "lower"),
    ("qexp.series_mul_calls", "count", "lower"),
    ("cyclotomic.cycrat_mul_calls", "count", "lower"),
    ("fpcode.code_predicates_s", "s", "lower"),
    ("fpcode.weight_enumerator_s", "s", "lower"),
    ("octower.is_perfect_s", "s", "lower"),
    ("octower.crossed_hom_s", "s", "lower"),
    ("cliffcode.signed_matrix_products", "count", "lower"),
    ("cliffcode.verify_all_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

_CACHES = {
    "codelattice.standard_lattice": "codelattice.standard_lattice",
    "hilbert_eval._coset_arrays": "hilbert_eval.coset_cache",
}


def gram_quality(gram):
    """(largest diagonal entry, largest |mu_ij|) of a Gram matrix, where
    G = L D L^T and mu = L are the Gram-Schmidt coefficients, exactly."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    d = []
    for i in range(n):
        for j in range(i):
            s = Fraction(gram[i][j])
            for k in range(j):
                s -= mu[i][k] * d[k] * mu[j][k]
            mu[i][j] = s / d[j]
        d.append(gram[i][i] - sum(mu[i][k] ** 2 * d[k] for k in range(i)))
    worst = max((abs(mu[i][j]) for i in range(n) for j in range(i)),
                default=Fraction(0))
    return max(gram[i][i] for i in range(n)), worst


def command_totals(trace):
    """Additive totals of one traced command: span times and call counts by
    span name, counters, and cache hits and misses."""
    totals = {}

    def add(key, amount):
        totals[key] = totals.get(key, 0) + amount

    spans = trace["spans"]
    ancestors = []
    for name, parent, start, end in spans:
        above = (ancestors[parent] | {spans[parent][0]} if parent >= 0
                 else frozenset())
        ancestors.append(above)
        add(name + "_calls", 1)
        if name not in above:
            add(name + "_s", end - start)
            if name == "codelattice.enum" and "hilbert_eval.eval" in above:
                add("hilbert_eval.enum_s", end - start)
    for key, value in trace["counts"].items():
        add(key, value)
    for key, (hits, misses) in trace["caches"].items():
        add(_CACHES[key] + "_hits", hits)
        add(_CACHES[key] + "_misses", misses)
    if trace["golay_gram"] is not None:
        diag, mu = gram_quality(trace["golay_gram"])
        totals["codelattice.golay_max_gram_diag"] = diag
        totals["codelattice.golay_max_abs_mu"] = float(mu)
    return totals


def merge(totals_list):
    """Totals of several commands: sums, except the golay figures."""
    out = {}
    for totals in totals_list:
        for key, value in totals.items():
            if ".golay_" in key:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals):
    """Every PER_LAYER metric but trace.overhead_ratio, from merged totals;
    a layer the workload never reaches reads 0."""
    def g(key):
        return totals.get(key, 0)

    metrics = {name: g(name) for name, _, _ in PER_LAYER[:-1]}
    hits = g("hilbert_eval.coset_cache_hits")
    misses = g("hilbert_eval.coset_cache_misses")
    metrics.update({
        "codelattice.leaves_per_s": _ratio(g("codelattice.enum_leaves"),
                                           g("codelattice.enum_s")),
        "codelattice.box_useful_ratio": _ratio(g("codelattice.box_useful"),
                                               g("codelattice.box_points")),
        "hilbert_eval.float_s": g("hilbert_eval.eval_s")
        - g("hilbert_eval.enum_s"),
        "hilbert_eval.coset_cache_hit_ratio": _ratio(hits, hits + misses),
        "hilbert_eval.array_mb": g("hilbert_eval.array_bytes") / 1e6,
    })
    return metrics
