"""The three benchmark workloads: inputs drawn from a seed, items verified exactly.

Every workload has a fixed schedule of shapes, so the work in one batch stays
about the same from seed to seed; the seed only draws modes, entries and
coefficients (or, for ``cohomology``, the order of the ladder).  Inputs are
made here, not by ``wickfock.checks``, so that the benchmark's inputs stay the
same when the library's own generators change.

Items call the library through the ``wickfock`` package namespace and the
``wickfock.cli`` entry point at call time, so a tracer or a mutation patched
into those namespaces after import is seen by every item.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from click.testing import CliRunner

# One routes batch: per cochain, its entries as (creation, annihilation per
# slot), written with the two mode letters a and b ("ab" is one quantum in
# each).  Arity 1 and 2, top l + m in {0, 1, 2}; caps are (2, top + r + 1),
# so the arity-2 top-2 cochain is tabulated at (2, 5): 21 labels, 9,261 rows.
# The table work depends strongly on these patterns, so they are fixed; the
# seed draws which mode is a and the coefficients.
ROUTES_SCHEDULE = [
    [("", [""])],
    [("a", [""]), ("", ["b"])],
    [("a", ["b"]), ("b", ["b"])],
    [("", ["", ""])],
    [("a", ["", ""]), ("", ["", "b"])],
    [("a", ["b", ""]), ("b", ["", "a"])],
]
ROUTES_MODES = 2

# (route, r, l, m, modes) for one cohomology batch, mixing m = r (nonzero H)
# with m != r (H = 0) over r = 1..3.
COHOMOLOGY_LADDER = [
    ("kernel", 1, 1, 1, 3),
    ("kernel", 1, 1, 2, 3),
    ("kernel", 2, 1, 2, 3),
    ("kernel", 2, 2, 2, 3),
    ("kernel", 2, 0, 2, 4),
    ("kernel", 2, 1, 2, 4),
    ("kernel", 3, 1, 3, 2),
    ("table", 2, 1, 1, 2),
    ("table", 1, 1, 2, 3),
    ("table", 2, 1, 2, 2),
]
# Strata outside the ladder, so the set-up warm-up cannot answer timed items.
COHOMOLOGY_WARMUP = [
    ("kernel", 1, 0, 1, 2),
    ("kernel", 2, 1, 2, 2),
    ("table", 1, 0, 1, 2),
]

EXPANSION_CAPS = (3, 3)
EXPANSION_MAX_LM = 3
EXPANSION_MAX_ENTRIES = 3
EXPANSION_ITEMS = 24  # arity 1 and 2 alternating


@dataclass
class Item:
    """One unit of work: ``run(wf)`` does it and returns True when verified.

    ``kind`` names the item's span in a traced pass, e.g. the cohomology route.
    """

    label: str
    kind: str
    run: Callable


# -- input generation -----------------------------------------------------------


def _rand_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _rand_nonzero_rational(rng: Random) -> Fraction:
    while True:
        value = _rand_rational(rng)
        if value:
            return value


def _rand_scalar(wf, rng: Random):
    """A nonzero Gaussian rational with small parts, complex half of the time."""
    while True:
        im = _rand_rational(rng) if rng.random() < 0.5 else 0
        value = wf.Scalar(_rand_rational(rng), im)
        if value:
            return value


def _rand_index(wf, rng: Random, modes: int, degree: int):
    pattern: dict[int, int] = {}
    for _ in range(degree):
        mode = rng.randrange(modes)
        pattern[mode] = pattern.get(mode, 0) + 1
    return wf.MultiIndex(pattern)


def _rand_entry(wf, rng: Random, arity: int, modes: int, budget: int):
    """(I, (J_1, ..., J_r), c) with deg I + sum deg J_j == budget."""
    l = rng.randint(0, budget)
    split = [0] * arity
    for _ in range(budget - l):
        split[rng.randrange(arity)] += 1
    creation = _rand_index(wf, rng, modes, l)
    slots = tuple(_rand_index(wf, rng, modes, d) for d in split)
    return creation, slots, _rand_scalar(wf, rng)


def routes_family(wf, rng: Random, entries):
    """A cochain on two modes with the given entry patterns.

    The seed draws which mode plays ``a`` and, per entry, the coefficient:
    real for the first entry, with a nonzero imaginary part for the others.
    """
    modes = dict(zip("ab", rng.sample(range(ROUTES_MODES), 2)))

    def index(letters):
        return wf.MultiIndex([(modes[letter], 1) for letter in letters])

    triples = []
    for k, (creation, slots) in enumerate(entries):
        im = _rand_nonzero_rational(rng) if k else 0
        coeff = wf.Scalar(_rand_nonzero_rational(rng), im)
        triples.append((index(creation), tuple(index(j) for j in slots), coeff))
    return wf.KernelFamily.from_entries(len(entries[0][1]), triples)


def expansion_family(wf, rng: Random, arity: int):
    """1 to 3 entries with l + m <= 3 on 3 modes, as checks.rand_kernel_family
    draws them; redrawn in the rare case that the entries cancel."""
    while True:
        entries = [
            _rand_entry(wf, rng, arity, EXPANSION_CAPS[0], rng.randint(0, EXPANSION_MAX_LM))
            for _ in range(rng.randint(1, EXPANSION_MAX_ENTRIES))
        ]
        family = wf.KernelFamily.from_entries(arity, entries)
        if not family.is_zero():
            return family


def _rand_test_vector(wf, rng: Random, modes: int):
    """Two or three Gaussian-rational mode coefficients."""
    picked = rng.sample(range(modes), rng.randint(2, modes))
    return wf.TestVector({mode: _rand_scalar(wf, rng) for mode in picked})


# -- routes ----------------------------------------------------------------------


def _routes_item(wf, family):
    top = max(l + sum(m) for l, m in family.blocks)
    caps = wf.TruncationCaps(ROUTES_MODES, top + family.arity + 1)

    def run(wf):
        image = wf.kernel_coboundary(family)
        squares_to_zero = wf.kernel_coboundary(image).is_zero()
        by_table = wf.table_coboundary(wf.Cochain.from_kernels(family, caps))
        return squares_to_zero and by_table == wf.reconstruct(image, caps)

    return Item(f"routes arity={family.arity} caps={caps}", "routes", run)


def routes_batch(wf, rng: Random, schedule=ROUTES_SCHEDULE) -> list[Item]:
    return [_routes_item(wf, routes_family(wf, rng, entries)) for entries in schedule]


# -- cohomology -------------------------------------------------------------------


def hkr_dim(r: int, l: int, m: int, modes: int) -> int:
    """Hochschild-Kostant-Rosenberg: #{I : deg I = l} * C(n, r) when m == r, else 0."""
    if m != r:
        return 0
    creations = math.comb(modes + l - 1, l) if modes else int(l == 0)
    return creations * math.comb(modes, r)


def cohomology_args(route, r, l, m, modes) -> list[str]:
    return [
        "cohomology", "--r", str(r), "--l", str(l), "--m", str(m),
        "--modes", str(modes), "--route", route,
    ]


def _cohomology_item(route, r, l, m, modes, stdout_by_stratum: dict) -> Item:
    """One run of the CLI entry point, checked against the closed form.

    The table-route item of a stratum the kernel route also runs must print
    byte-identical stdout; whichever of the two runs second compares.
    """

    def run(wf):
        with wf.span("cli.cohomology"):
            result = CliRunner().invoke(wf.cli.main, cohomology_args(route, r, l, m, modes))
        out = result.stdout
        wf.tally["cli.stdout_bytes"] += len(out.encode())
        if result.exit_code != 0:
            return False
        report = json.loads(out)
        consistent = (
            report["dim_H"] == hkr_dim(r, l, m, modes)
            and report["dim_H"] == report["dim_ker"] - report["dim_im_prev"]
            and len(report["basis_cocycles"]) == report["dim_ker"]
        )
        seen = stdout_by_stratum.setdefault((r, l, m, modes), {})
        seen[route] = out
        return consistent and len(set(seen.values())) == 1

    return Item(f"cohomology {route} (r,l,m,modes)={(r, l, m, modes)}", route, run)


def cohomology_batch(wf, rng: Random, ladder=COHOMOLOGY_LADDER) -> list[Item]:
    order = list(ladder)
    rng.shuffle(order)
    stdout_by_stratum: dict = {}
    return [_cohomology_item(*rung, stdout_by_stratum) for rung in order]


# -- expansion --------------------------------------------------------------------


def _expansion_item(wf, rng: Random, arity: int):
    family = expansion_family(wf, rng, arity)
    caps = wf.TruncationCaps(*EXPANSION_CAPS)
    xis = [_rand_test_vector(wf, rng, caps.max_mode) for _ in range(arity)]
    eta = _rand_test_vector(wf, rng, caps.max_mode)

    def run(wf):
        table = wf.table_from_kernel(family, caps)
        extracted = wf.extract_kernels(table)
        kernel_trip = extracted == family
        # table -> kernels -> table: when the kernels came back equal, the
        # re-tabulation is table_from_kernel(family, caps) again, i.e. `table`.
        table_trip = kernel_trip or wf.table_from_kernel(extracted, caps) == table
        numeric = wf.symbol_numeric(table, xis, eta)
        return (
            kernel_trip
            and table_trip
            and numeric == wf.symbol_poly(table).evaluate(xis, eta)
        )

    return Item(f"expansion arity={arity}", f"arity{arity}", run)


def expansion_batch(wf, rng: Random, items: int = EXPANSION_ITEMS) -> list[Item]:
    return [_expansion_item(wf, rng, 1 + k % 2) for k in range(items)]


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    batch: Callable  # (wf, rng) -> list[Item]
    warmup: Callable  # (wf, rng) -> list[Item], on strata or shapes cheaper than a batch


WORKLOADS = {
    "routes": Workload(
        "routes",
        routes_batch,
        lambda wf, rng: routes_batch(wf, rng, ROUTES_SCHEDULE[2:4]),
    ),
    "cohomology": Workload(
        "cohomology",
        cohomology_batch,
        lambda wf, rng: cohomology_batch(wf, rng, COHOMOLOGY_WARMUP),
    ),
    "expansion": Workload(
        "expansion",
        expansion_batch,
        lambda wf, rng: expansion_batch(wf, rng, 2),
    ),
}


def batch_rng(workload: str, seed: int, round_index: int) -> Random:
    """The stream for one timed batch; string seeds hash the same in every process."""
    return Random(f"{workload}/timed/{seed}/{round_index}")


def warmup_rng(workload: str, seed: int, rep: int) -> Random:
    """A stream disjoint from every timed batch of the same seed."""
    return Random(f"{workload}/warmup/{seed}/{rep}")
