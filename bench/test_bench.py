"""Self-tests of the benchmark: its checks can fail, its spans see every layer.

    python -m pytest bench -q

Each test runs a workload at a small size in this process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "routes": lambda wf, rng: workloads.routes_batch(
        wf, rng, [workloads.ROUTES_SCHEDULE[2], workloads.ROUTES_SCHEDULE[4]]
    ),
    "cohomology": lambda wf, rng: workloads.cohomology_batch(
        wf,
        rng,
        [
            ("kernel", 1, 1, 1, 2),
            ("kernel", 2, 1, 2, 2),
            ("table", 2, 1, 2, 2),
            ("kernel", 2, 1, 1, 2),
        ],
    ),
    "expansion": lambda wf, rng: workloads.expansion_batch(wf, rng, 4),
}


def _small_run(name: str, seed: int = 3, instrument=None) -> list:
    """Run one small batch with ``instrument`` installed; return the failures."""
    wf = run.load_wickfock()
    items = SMALL[name](wf, workloads.batch_rng(name, seed, 0))
    failures: list = []
    run.run_batch(wf, items, failures, instrument)
    return failures


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_library_passes_every_check(name):
    failures = _small_run(name)
    assert failures == []


# Hooks the library keeps for mutation checks: (module, attribute, broken value,
# workloads whose checks must catch it, workloads that run no code of the
# module and must stay clean).  The annihilation constant leaves every
# cohomology output unchanged: the table route reads its kernels back through
# symbols, and the kernel route never applies an operator.  So cohomology is
# asserted neither way for it.
MUTATIONS = [
    ("operators", "_annihilation_coefficient", lambda mult: 1,
     ("routes", "expansion"), ()),
    ("hochschild", "_term_sign", lambda i: 1,
     ("routes", "cohomology"), ("expansion",)),
]


@pytest.mark.parametrize("module, attr, broken, caught, unreached", MUTATIONS)
def test_mutations_make_checks_fail(monkeypatch, module, attr, broken, caught, unreached):
    real_load = run.load_wickfock

    def load_mutated():
        wf = real_load()
        monkeypatch.setattr(getattr(wf.package, module), attr, broken)
        return wf

    monkeypatch.setattr(run, "load_wickfock", load_mutated)
    for name in caught:
        failures = _small_run(name)
        assert failures, f"{module}.{attr} broken, yet {name} reported no failure"
    for name in unreached:
        failures = _small_run(name)
        assert failures == [], f"{name} does not run {module}, yet it failed"


# Spans each workload must record, and span names it must never record.
COVERAGE = {
    "routes": (
        ["hochschild.kernel_coboundary", "hochschild.table_coboundary",
         "operators.apply_kernel", "operators.table_from_kernel",
         "expansion.reconstruct", "fock.wick_product", "fock.truncate"],
        ["hochschild.rank_nullspace", "symbolcalc.reduced_symbol"],
    ),
    "cohomology": (
        ["cli.cohomology", "hochschild.cohomology_report",
         "hochschild.coboundary_matrix", "hochschild.matmul",
         "hochschild.rank_nullspace", "hochschild.kernel_coboundary",
         "expansion.extract_kernels", "symbolcalc.reduced_symbol",
         "symbolcalc.exp_bracket_poly", "operators.apply_kernel"],
        ["operators.table_from_kernel"],
    ),
    "expansion": (
        ["operators.table_from_kernel", "operators.apply_kernel",
         "expansion.extract_kernels", "symbolcalc.symbol_poly",
         "symbolcalc.reduced_symbol", "symbolcalc.symbol_numeric",
         "operators.apply_table", "fock.coherent", "fock.pairing"],
        ["hochschild."],
    ),
}


@pytest.mark.parametrize("name", sorted(COVERAGE))
def test_layer_coverage(name):
    tracer = spans.Tracer()
    failures = _small_run(name, instrument=tracer)
    assert failures == []
    recorded = {tracer.names[i] for i in tracer.name_id}
    exercised, bypassed = COVERAGE[name]
    for span in exercised:
        assert span in recorded, f"{name}: no {span} span"
    for prefix in bypassed:
        assert not any(s.startswith(prefix) for s in recorded), f"{name}: {prefix} ran"


def test_every_import_site_is_wrapped():
    wf = run.load_wickfock()
    tracer = spans.Tracer().install(wf.package)
    try:
        missed = [
            f"{module.__name__}.{attr}"
            for module in spans.wickfock_modules()
            for attr, fn, name in spans.public_functions(module)
            if name not in spans.COUNTED_ONLY and not hasattr(fn, "__wrapped__")
        ]
        assert wf.package.hochschild.RationalMatrix.matmul.__wrapped__
    finally:
        tracer.uninstall()
    assert missed == []
    assert not hasattr(wf.package.hochschild.apply_kernel, "__wrapped__")


def test_counter_reads_work_sizes():
    counter = spans.OperationCounter()
    failures = _small_run("cohomology", instrument=counter)
    assert failures == []
    tally = counter.tally
    assert tally["scalars.mul_calls"] > 0
    assert tally["hochschild.coboundary_matrix.cells"] >= tally["hochschild.coboundary_matrix.nnz"] > 0
    assert tally["hochschild.rank_nullspace.pivots"] > 0
    assert tally["cli.stdout_bytes"] > 0
    assert counter.max_coeff_bits > 0


def test_hkr_closed_form():
    # H^r on (l, m) = (1, r) over n modes: n creation indices times C(n, r).
    assert workloads.hkr_dim(1, 1, 1, 3) == 9
    assert workloads.hkr_dim(2, 1, 2, 4) == 24
    assert workloads.hkr_dim(2, 0, 2, 4) == 6
    assert workloads.hkr_dim(3, 1, 3, 2) == 0
    assert workloads.hkr_dim(2, 1, 1, 2) == 0


def test_same_seed_same_inputs_other_seed_other_inputs():
    wf = run.load_wickfock()

    def families(seed):
        rng = workloads.batch_rng("routes", seed, 0)
        return [workloads.routes_family(wf, rng, e) for e in workloads.ROUTES_SCHEDULE]

    assert families(5) == families(5)
    assert families(5) != families(6)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
