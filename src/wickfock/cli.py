"""Command-line front end.

All values travel as JSON with rationals rendered as strings "p/q" (or "p"),
so nothing is ever rounded.  Output on stdout is canonical: terms, blocks,
and rows are emitted in sorted order, and rerunning a command with the same
inputs produces byte-identical bytes.  Exit codes: 0 success, 1 check-suite
failure, 2 malformed input or usage error.
"""

from __future__ import annotations

import json
import sys

import click

from .checks import SUITES, run_suite
from .errors import WickfockError
from .expansion import extract_kernels, reconstruct, reliability_flags
from .fock import (
    FockVector,
    TestVector,
    TruncationCaps,
    coherent,
    norm_squared,
    pairing,
    wick_product,
)
from .hochschild import Cochain, cohomology_report, coboundary
from .operators import BasisActionTable, KernelFamily, apply_kernel
from .scalars import format_fraction, parse_fraction
from .symbolcalc import symbol_numeric, symbol_poly


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _parse(path: str, parser, what: str):
    data = _load_json(path)
    try:
        return parser(data)
    except (WickfockError, ValueError, KeyError, TypeError) as exc:
        _fail(f"{path} is not a valid {what}: {exc}")


def _emit(obj):
    click.echo(json.dumps(obj, indent=2))


def _caps_from_flags(max_mode, max_degree) -> TruncationCaps:
    if max_mode is None or max_degree is None:
        _fail("this input needs --max-mode and --max-degree")
    return TruncationCaps(max_mode, max_degree)


def _operator_from_json(data) -> BasisActionTable | KernelFamily:
    return (BasisActionTable if "rows" in data else KernelFamily).from_json(data)


def _load_operator_table(path, max_mode, max_degree) -> BasisActionTable:
    operator = _parse(path, _operator_from_json, "operator")
    if isinstance(operator, BasisActionTable):
        return operator
    return reconstruct(operator, _caps_from_flags(max_mode, max_degree))


@click.group()
def main():
    """Exact Wick-algebra toolkit on truncated Fock windows."""


@main.command()
@click.argument("file_a")
@click.argument("file_b")
def wick(file_a, file_b):
    """Wick product of two Fock vectors."""
    x = _parse(file_a, FockVector.from_json, "FockVector")
    y = _parse(file_b, FockVector.from_json, "FockVector")
    _emit(wick_product(x, y).to_json())


@main.command("coherent")
@click.argument("xi_file")
@click.option("--max-degree", type=int, required=True)
def coherent_cmd(xi_file, max_degree):
    """Truncated coherent vector of a test vector."""
    xi = _parse(xi_file, TestVector.from_json, "TestVector")
    if max_degree < 0:
        _fail("--max-degree must be nonnegative")
    _emit(coherent(xi, max_degree).to_json())


@main.command()
@click.argument("file_a")
@click.argument("file_b")
def pair(file_a, file_b):
    """Bilinear pairing of two Fock vectors."""
    x = _parse(file_a, FockVector.from_json, "FockVector")
    y = _parse(file_b, FockVector.from_json, "FockVector")
    _emit(pairing(x, y).json_fields())


@main.command()
@click.argument("file")
@click.option("--k", type=int, default=0, show_default=True)
@click.option("--c", "c_text", default="1", show_default=True, help="positive rational p/q")
def norm(file, k, c_text):
    """Squared weighted norm of a Fock vector."""
    x = _parse(file, FockVector.from_json, "FockVector")
    try:
        c = parse_fraction(c_text)
        value = norm_squared(x, k, c)
    except ValueError as exc:
        _fail(str(exc))
    _emit({"value": format_fraction(value)})


@main.command("apply")
@click.argument("kernel_file")
@click.argument("arg_files", nargs=-1)
def apply_cmd(kernel_file, arg_files):
    """Apply a kernel family to Fock-vector arguments, exactly."""
    family = _parse(kernel_file, KernelFamily.from_json, "KernelFamily")
    if len(arg_files) != family.arity:
        _fail(
            f"kernel family has arity {family.arity} but got {len(arg_files)} arguments"
        )
    args = [_parse(path, FockVector.from_json, "FockVector") for path in arg_files]
    _emit(apply_kernel(family, args).to_json())


@main.command()
@click.argument("op_file")
@click.option("--poly", "as_poly", is_flag=True, help="emit the symbol polynomial")
@click.option(
    "--at",
    "at_files",
    multiple=True,
    help="evaluate: one file per argument slot, then one for the output side",
)
@click.option("--max-mode", type=int, default=None)
@click.option("--max-degree", type=int, default=None)
def symbol(op_file, as_poly, at_files, max_mode, max_degree):
    """Symbol of a tabulated operator (table JSON, or kernel JSON plus caps)."""
    table = _load_operator_table(op_file, max_mode, max_degree)
    if as_poly == bool(at_files):
        _fail("choose exactly one of --poly or --at")
    if as_poly:
        _emit(symbol_poly(table).to_json())
        return
    if len(at_files) != table.arity + 1:
        _fail(
            f"operator has arity {table.arity}: need {table.arity} slot files "
            "plus one output-side file"
        )
    vectors = [_parse(path, TestVector.from_json, "TestVector") for path in at_files]
    try:
        value = symbol_numeric(table, vectors[:-1], vectors[-1])
    except WickfockError as exc:
        _fail(str(exc))
    _emit(value.json_fields())


@main.command()
@click.argument("op_file")
@click.option("--max-mode", type=int, default=None)
@click.option("--max-degree", type=int, default=None)
def expand(op_file, max_mode, max_degree):
    """Kernel family of a tabulated operator, with per-block reliability."""
    table = _load_operator_table(op_file, max_mode, max_degree)
    family = extract_kernels(table)
    _emit(family.to_json(reliable=reliability_flags(family, table.caps)))


@main.command()
@click.argument("op_file")
@click.option(
    "--route",
    type=click.Choice(["kernel", "table"]),
    default="kernel",
    show_default=True,
)
@click.option("--max-mode", type=int, default=None)
@click.option("--max-degree", type=int, default=None)
def delta(op_file, route, max_mode, max_degree):
    """Hochschild coboundary of a cochain given as a kernel family."""
    family = _parse(op_file, KernelFamily.from_json, "KernelFamily")
    if max_mode is None:
        max_mode = 1 + max(
            (mode for (i, js), _ in family.entries() for idx in (i, *js) for mode in idx.modes()),
            default=0,
        )
    if max_degree is None:
        top = max((l + sum(m) for l, m in family.blocks), default=0)
        max_degree = top + family.arity + 1
    cochain = Cochain.from_kernels(family, TruncationCaps(max_mode, max_degree))
    try:
        result = coboundary(cochain, route=route)
    except WickfockError as exc:
        _fail(str(exc))
    if route == "kernel":
        _emit(result.kernels.to_json())
    else:
        _emit(result.table.to_json())


@main.command()
@click.option("--r", "arity", type=int, required=True)
@click.option("--l", "l_degree", type=int, required=True)
@click.option("--m", "m_degree", type=int, required=True)
@click.option("--modes", type=int, required=True, help="mode cap (modes < this)")
@click.option("--max-degree", type=int, default=None, help="defaults to l+m+r+1")
@click.option(
    "--route",
    type=click.Choice(["kernel", "table"]),
    default="kernel",
    show_default=True,
)
def cohomology(arity, l_degree, m_degree, modes, max_degree, route):
    """Cohomology dimensions of one homogeneous stratum, exactly."""
    if min(arity, l_degree, m_degree, modes) < 0:
        _fail("all of --r, --l, --m, --modes must be nonnegative")
    if max_degree is None:
        max_degree = l_degree + m_degree + arity + 1
    caps = TruncationCaps(modes, max_degree)
    try:
        report = cohomology_report(arity, l_degree, m_degree, caps, route=route)
    except WickfockError as exc:
        _fail(str(exc))
    _emit(
        {
            "dim_ker": report["dim_ker"],
            "dim_im_prev": report["dim_im_prev"],
            "dim_H": report["dim_H"],
            "basis_cocycles": [fam.to_json() for fam in report["cocycles"]],
        }
    )


@main.command()
@click.option(
    "--suite",
    type=click.Choice(sorted(SUITES) + ["all"]),
    default="all",
    show_default=True,
)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--cases", type=int, default=25, show_default=True)
def check(suite, seed, cases):
    """Run the property suites; exit 0 if everything holds."""
    report = run_suite(suite, seed=seed, cases=cases)
    _emit(report.to_json())
    click.echo(
        f"{report.suite}: {report.cases} checks, {len(report.failures)} failures "
        f"in {report.elapsed:.2f}s",
        err=True,
    )
    sys.exit(0 if report.ok else 1)


if __name__ == "__main__":
    main()
