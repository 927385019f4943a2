"""wickfock benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload routes --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Items run one after another, each verified exactly.

Each batch is preceded by a set-up of its own: a fresh import of the library,
drawing the batch's inputs, and a warm-up on items from another stream than
any timed batch.  ``--trace 0`` runs set-up and batch pairs until the next
pair would end after ``--seconds`` (at least three) and reports the
end-to-end metrics: the median batch time (``wall_s``), the median set-up
time (``setup_s``), both normalized to a fixed host speed by the probes of
``reference.py``, and the process's peak resident memory.  ``--trace 1``
runs the seed's first batch untraced and traced, alternately, then once under
operation counters, and reports the per-layer metrics; the spans are written
to ``.bench_out/trace-<workload>.tsv``, which each traced run overwrites.

Human-readable lines go first; the last line of stdout is one JSON object.
The exit code is 1 when any item failed verification and 2 when the library
cannot be found.  ``--workload all`` runs every workload in a process of its
own, prefixes each one's human-readable lines with its name, and exits with
the worst of their codes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, batch_rng, warmup_rng  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_BATCHES = 3
PROBE_EVERY_S = 0.25


def no_span(name):
    return nullcontext()


class Library:
    """The wickfock package as items see it, with the span hook and tally of a pass."""

    def __init__(self, package):
        self.package = package
        self.cli = importlib.import_module("wickfock.cli")
        self.tally: Counter = Counter()
        self.span = no_span

    def __getattr__(self, name):
        return getattr(self.package, name)


def forget_wickfock():
    """Drop any earlier import of the library and free what it held."""
    for name in [n for n in sys.modules if n == "wickfock" or n.startswith("wickfock.")]:
        del sys.modules[name]
    gc.collect()


def load_wickfock():
    """Import the checkout's wickfock afresh, dropping any earlier import."""
    forget_wickfock()
    package = importlib.import_module("wickfock")
    if Path(package.__file__).resolve().parent != SRC / "wickfock":
        raise ImportError(f"wickfock imported from {package.__file__}, not {SRC}")
    return Library(package)


def run_batch(wf, items, failures: list, instrument=None, probes=None) -> float:
    """Run items in order; return the seconds spent in them, appending failed labels.

    ``instrument``, a spans.Tracer or spans.OperationCounter, is installed in
    the library for the batch only.  ``probes``, when given, receives speed
    probes taken before the first item, after the last, and between items
    every PROBE_EVERY_S of item time; probe time is not counted.
    """
    if instrument is not None:
        instrument.install(wf.package)
        if isinstance(instrument, spans.Tracer):
            wf.span = instrument.span
        else:
            wf.tally = instrument.tally
        try:
            return run_batch(wf, items, failures)
        finally:
            instrument.uninstall()
            wf.span = no_span
    if probes is not None:
        probes.append(reference.probe())
    busy = unprobed = 0.0
    for item in items:
        start = perf_counter()
        with wf.span("item." + item.kind):
            try:
                ok = item.run(wf)
            except Exception:
                ok = False
                failures.append(item.label + "\n" + traceback.format_exc(limit=3))
            else:
                if not ok:
                    failures.append(item.label)
        elapsed = perf_counter() - start
        busy += elapsed
        unprobed += elapsed
        if probes is not None and unprobed >= PROBE_EVERY_S:
            probes.append(reference.probe())
            unprobed = 0.0
    if probes is not None and unprobed:
        probes.append(reference.probe())
    return busy


def set_up(workload, seed: int, batch: int, failures: list):
    """Import afresh, draw a timed batch, and warm up on items from another stream."""
    wf = load_wickfock()
    items = workload.batch(wf, batch_rng(workload.name, seed, batch))
    warm = workload.warmup(wf, warmup_rng(workload.name, seed, batch))
    run_batch(wf, warm, failures)
    return wf, items, len(warm)


def measure(workload, seed: int, seconds: float):
    """End-to-end metrics with tracing off.

    Every batch runs right after a set-up of its own, so each starts from the
    same state, no batch can use what an earlier one left in a cache, and the
    set-up samples spread over the whole run as the batch samples do.  Both
    times are normalized by the speed probes taken around them.
    """
    failures: list = []
    attempted = 0
    setups, walls, measured_setups, measured_walls, all_probes = [], [], [], [], []
    start = perf_counter()
    for batch in itertools.count():
        forget_wickfock()
        probes = [reference.probe()]
        begin = perf_counter()
        wf, items, warm_items = set_up(workload, seed, batch, failures)
        measured_setups.append(perf_counter() - begin)
        measured_walls.append(run_batch(wf, items, failures, probes=probes))
        setups.append(reference.normalized(measured_setups[-1], probes[:2]))
        walls.append(reference.normalized(measured_walls[-1], probes[1:]))
        all_probes += probes
        attempted += warm_items + len(items)
        ahead = statistics.median(measured_setups) + statistics.median(measured_walls)
        if len(walls) >= MIN_BATCHES and perf_counter() - start + ahead > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib / 1024,
    }
    notes = {
        "batches": len(walls),
        "measured_wall_s": round(statistics.median(measured_walls), 4),
        "measured_setup_s": round(statistics.median(measured_setups), 4),
        "probe_ms": round(1000 * statistics.median(all_probes), 3),
    }
    return values, attempted, failures, notes


def measure_traced(workload, seed: int, seconds: float, out_dir: Path):
    """Per-layer metrics: untraced and traced passes over the seed's first
    batch, alternately, then one counted pass; each pass sets up afresh."""
    failures: list = []
    attempted = 0

    def fresh_pass(instrument=None):
        nonlocal attempted
        wf, items, warm_items = set_up(workload, seed, 0, failures)
        attempted += warm_items + len(items)
        return run_batch(wf, items, failures, instrument)

    tracer = spans.Tracer()
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(fresh_pass())
        traced.append(fresh_pass(tracer))
        # The counted pass costs one to two untraced batches.
        if perf_counter() - start + plain[-1] + traced[-1] + 2 * plain[-1] > seconds:
            break
    counter = spans.OperationCounter()
    counted = fresh_pass(counter)

    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}.tsv")
    values = metrics.per_layer(tracer, counter, passes=len(traced))
    values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    notes = {
        "untraced_s": [round(t, 3) for t in plain],
        "traced_s": [round(t, 3) for t in traced],
        "counted_s": round(counted, 3),
        "spans": len(tracer.start),
    }
    return values, attempted, failures, notes


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        for line in done.stdout.splitlines()[:-1]:
            print(f"{name}: {line}")
        sys.stderr.write(done.stderr)
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wickfock" / "__init__.py").is_file():
        print(f"error: no wickfock sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.trace:
        values, attempted, failures, notes = measure_traced(
            workload, args.seed, args.seconds, ROOT / ".bench_out"
        )
        specs = metrics.PER_LAYER
    else:
        values, attempted, failures, notes = measure(workload, args.seed, args.seconds)
        specs = metrics.END_TO_END
    for label in failures:
        print(f"FAILED {label}", file=sys.stderr)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} {notes}")
    print(f"fail_frac {len(failures) / attempted:.6f} ratio ({len(failures)}/{attempted})")
    for name, unit, _ in specs:
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in specs
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
