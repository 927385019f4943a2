"""Metric names, units and directions, and the per-layer values of a traced run.

``BENCHMARK.json`` lists the same metrics; ``test_bench.py`` keeps the two in
step.  Which end-to-end metric each layer metric should move, and on which
workload, is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

from spans import LAYERS

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (span or counter name, timed, extra per-call counters read by spans.Counter)
_FUNCTIONS = [
    ("fock.wick_product", True, ()),
    ("fock.coherent", False, ()),
    ("fock.pairing", False, ()),
    ("operators.apply_kernel", True, ()),
    ("operators.table_from_kernel", True, ("rows_enumerated", "rows_nonzero")),
    ("operators.apply_table", False, ()),
    ("symbolcalc.symbol_poly", False, ()),
    ("symbolcalc.reduced_symbol", False, ()),
    ("symbolcalc.exp_bracket_poly", True, ()),
    ("symbolcalc.symbol_numeric", False, ()),
    ("expansion.extract_kernels", True, ()),
    ("hochschild.kernel_coboundary", True, ()),
    ("hochschild.table_coboundary", True, ("rows_enumerated", "rows_nonzero")),
    ("hochschild.coboundary_matrix", True, ("cells", "nnz")),
    ("hochschild.matmul", False, ()),
    ("hochschild.rank_nullspace", False, ("pivots",)),
    ("hochschild.cohomology_report", False, ()),
    ("cli.cohomology", False, ()),
]

PER_LAYER = [
    ("scalars.mul_calls", "count", "lower"),
    ("scalars.add_calls", "count", "lower"),
    ("scalars.div_calls", "count", "lower"),
    ("scalars.int_mul_share", "ratio", "higher"),
    ("scalars.max_coeff_bits", "bits", "lower"),
    ("multiindex.concat_calls", "count", "lower"),
    ("multiindex.decompositions_calls", "count", "lower"),
    ("operators.ladder_calls", "count", "lower"),
]
for _name, _counted, _extras in _FUNCTIONS:
    if _counted:
        PER_LAYER.append((f"{_name}.calls", "count", "lower"))
    PER_LAYER.append((f"{_name}.self_s", "s", "lower"))
    PER_LAYER.extend((f"{_name}.{extra}", "count", "lower") for extra in _extras)
PER_LAYER += [
    ("fock.wick_product.term_yield", "ratio", "higher"),
    ("operators.table_from_kernel.row_yield", "ratio", "higher"),
    ("hochschild.table_coboundary.row_yield", "ratio", "higher"),
    ("symbolcalc.exp_bracket_poly.distinct_keys", "count", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
]
PER_LAYER += [(f"{layer}.layer_self_s", "s", "lower") for layer in LAYERS]
PER_LAYER += [
    ("share.routes.table_coboundary", "ratio", "lower"),
    ("share.cohomology.kernel_linalg", "ratio", "lower"),
    ("share.expansion.symbol_layers", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

LADDER = ("apply_creation", "apply_annihilation", "create_by", "annihilate_by")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, counter, passes: int) -> dict[str, float]:
    """Per-batch layer metrics: times averaged over the traced passes, counts
    from the single counted pass."""
    tally = counter.tally
    values: dict[str, float] = {}
    for key in ("mul_calls", "add_calls", "div_calls"):
        values[f"scalars.{key}"] = tally[f"scalars.{key}"]
    values["scalars.int_mul_share"] = _ratio(tally["scalars.int_mul"], tally["scalars.mul_calls"])
    values["scalars.max_coeff_bits"] = counter.max_coeff_bits
    values["multiindex.concat_calls"] = tally["multiindex.concat_calls"]
    values["multiindex.decompositions_calls"] = tally["multiindex.decompositions_calls"]
    values["operators.ladder_calls"] = sum(tally[f"operators.{f}.calls"] for f in LADDER)

    self_times = tracer.self_times()
    roots = tracer.roots()
    names = [tracer.names[n] for n in tracer.name_id]
    by_name: dict[str, float] = {}
    total_by_name: dict[str, float] = {}
    kernel_linalg = 0.0
    for i, name in enumerate(names):
        by_name[name] = by_name.get(name, 0.0) + self_times[i]
        total_by_name[name] = (
            total_by_name.get(name, 0.0) + tracer.end[i] - tracer.start[i]
        )
        if name in ("hochschild.matmul", "hochschild.rank_nullspace"):
            if names[roots[i]] == "item.kernel":
                kernel_linalg += self_times[i]

    for name, counted, extras in _FUNCTIONS:
        if counted:
            values[f"{name}.calls"] = tally[f"{name}.calls"]
        values[f"{name}.self_s"] = by_name.get(name, 0.0) / passes
        for extra in extras:
            values[f"{name}.{extra}"] = tally[f"{name}.{extra}"]
    values["fock.wick_product.term_yield"] = _ratio(
        tally["fock.wick_product.terms_out"], tally["fock.wick_product.term_pairs"]
    )
    for name in ("operators.table_from_kernel", "hochschild.table_coboundary"):
        values[f"{name}.row_yield"] = _ratio(
            tally[f"{name}.rows_nonzero"], tally[f"{name}.rows_enumerated"]
        )
    values["symbolcalc.exp_bracket_poly.distinct_keys"] = len(counter.exp_keys)
    values["cli.stdout_bytes"] = tally["cli.stdout_bytes"]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in by_name.items():
        layer = name.partition(".")[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    for layer, seconds in layer_self.items():
        values[f"{layer}.layer_self_s"] = seconds / passes

    items_total = sum(t for n, t in total_by_name.items() if n.startswith("item."))
    values["share.routes.table_coboundary"] = _ratio(
        total_by_name.get("hochschild.table_coboundary", 0.0), items_total
    )
    values["share.cohomology.kernel_linalg"] = _ratio(
        kernel_linalg, total_by_name.get("item.kernel", 0.0)
    )
    values["share.expansion.symbol_layers"] = _ratio(
        layer_self["symbolcalc"] + layer_self["expansion"], items_total
    )
    return values
