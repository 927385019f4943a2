"""Command-line front end.

All values travel as JSON with rationals rendered as strings "p/q" (or "p"),
so nothing is ever rounded.  Output on stdout is canonical: terms, blocks,
and rows are emitted in sorted order, and rerunning a command with the same
inputs produces byte-identical bytes.  Every command prints through one
writer, ``_write_json``, whose text is exactly ``json.dumps(obj, indent=2)``;
``_emit`` writes it one piece per element of the top-level values, then a
newline, then flushes.  Exit codes: 0 success, 1 check-suite failure, 2
malformed input or usage error.  Only ``check`` imports the property suites
(``checks``), so no other command pays to load them at start-up.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii

import click

from .errors import WickfockError
from .expansion import extract_kernels, reconstruct
from .fock import (
    FockVector,
    TestVector,
    TruncationCaps,
    coherent,
    norm_squared,
    pairing,
    wick_product,
)
from .hochschild import Cochain, cohomology_report, kernel_coboundary, table_coboundary
from .operators import BasisActionTable, KernelFamily, apply_kernel
from .scalars import format_fraction, parse_fraction
from .symbolcalc import symbol_numeric, symbol_poly


# Every echo names its stream: click's default-stream lookup caches a wrapper
# per stream object, and under CliRunner that cache keeps each run's captured
# output alive for the life of the process.
def _fail(message: str):
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    # ValueError covers bad UTF-8, bad JSON and integer literals past the
    # interpreter's digit limit; RecursionError covers very deep nesting.
    except (OSError, ValueError, RecursionError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _parse(path: str, parser, what: str):
    data = _load_json(path)
    try:
        return parser(data)
    except (WickfockError, ValueError, KeyError, TypeError) as exc:
        _fail(f"{path} is not a valid {what}: {exc}")


def _json_key(key) -> str:
    # A non-string key is converted as json converts it.
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(obj, write) -> None:
    """Pass the text of ``json.dumps(obj, indent=2)`` to ``write``, in pieces.

    The pieces concatenate to exactly that text (ASCII escapes, ``","`` and
    ``": "`` separators, insertion order); a piece ends after each element of
    each top-level value, so no string holds the whole output.  json's own
    encoder takes its slow pure-Python path whenever ``indent`` is set; this
    one renders each list of plain ints once per (values, indent) for the call,
    such as each block's ``M``, and, below the top two levels, each other tuple
    once per (identity, indent), since labels are interned tuples
    (``MultiIndex.to_json``) that repeat throughout a basis.  That memo keeps
    each such tuple alive until the call returns, so no id is reused, and a
    fresh tuple costs one memo entry.  Types are tested as json tests them, so
    subclasses render as their base, in the order of their frequency in the
    output (lists, dicts, strings), and a dict's string values are written
    with their keys.  A plain int is written by ``int.__repr__``, as json
    writes it; other leaves, bools and int subclasses among them, go through
    ``json.dumps``.
    """
    memo: dict = {}  # (int values, indent) -> text
    shared: dict = {}  # (id, indent) -> (tuple, text), kept alive for the call
    out: list = []
    append = out.append

    def render(o, nl: str, depth: int) -> None:
        if isinstance(o, (list, tuple)):
            if not o:
                append("[]")
            # bool is an int subclass, but renders as true/false.
            elif type(o[0]) is int and all(type(x) is int for x in o):
                key = (tuple(o), nl)
                text = memo.get(key)
                if text is None:
                    inner = nl + "  "
                    text = "[" + inner + ("," + inner).join(map(json.dumps, o)) + nl + "]"
                    memo[key] = text
                append(text)
            elif depth > 1 and isinstance(o, tuple):
                key = (id(o), nl)
                hit = shared.get(key)
                if hit is None:
                    start = len(out)
                    render(list(o), nl, depth)
                    shared[key] = (o, "".join(out[start:]))
                else:
                    append(hit[1])
            else:
                inner = nl + "  "
                sep = "[" + inner
                for value in o:
                    append(sep)
                    render(value, inner, depth + 1)
                    if depth < 2:
                        flush()
                    sep = "," + inner
                append(nl + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for key, value in o.items():
                if key.__class__ is not str:
                    key = _json_key(key)
                head = sep + encode_basestring_ascii(key) + ": "
                if isinstance(value, str):
                    append(head + encode_basestring_ascii(value))
                else:
                    append(head)
                    render(value, inner, depth + 1)
                if depth < 2:
                    flush()
                sep = "," + inner
            append(nl + "}")
        elif isinstance(o, str):
            append(encode_basestring_ascii(o))
        elif o.__class__ is int:
            append(int.__repr__(o))
        else:
            append(json.dumps(o))

    def flush() -> None:
        write("".join(out))
        out.clear()

    render(obj, "\n", 0)
    flush()


def _emit(obj):
    _write_json(obj, sys.stdout.write)
    sys.stdout.write("\n")
    sys.stdout.flush()


def _caps_from_flags(max_mode, max_degree) -> TruncationCaps:
    if max_mode is None or max_degree is None:
        _fail("this input needs --max-mode and --max-degree")
    if max_mode < 0 or max_degree < 0:
        _fail(f"caps must be nonnegative, got max_mode={max_mode}, max_degree={max_degree}")
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
    """Kernel family of a tabulated operator, read exactly on its window."""
    table = _load_operator_table(op_file, max_mode, max_degree)
    payload = extract_kernels(table).to_json()
    # Extraction reads only inside the table's window, where every entry is
    # exact, so each block is reliable; the flag stays in the output format.
    for block in payload["blocks"]:
        block["reliable"] = True
    _emit(payload)


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
        top = max((l + m for l, m in family.strata()), default=0)
        max_degree = top + family.arity + 1
    caps = _caps_from_flags(max_mode, max_degree)
    try:
        if route == "kernel":
            result = kernel_coboundary(family)
        else:
            result = table_coboundary(Cochain.from_kernels(family, caps))
    except WickfockError as exc:
        _fail(str(exc))
    _emit(result.to_json())


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
    caps = _caps_from_flags(modes, max_degree)
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
    # sorted(checks.SUITES) + ["all"], spelled out: only `check` imports checks
    type=click.Choice(["algebra", "ccr", "expansion", "hochschild", "pairing", "symbol", "all"]),
    default="all",
    show_default=True,
)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--cases", type=int, default=25, show_default=True)
def check(suite, seed, cases):
    """Run the property suites; exit 0 if everything holds."""
    if cases < 1:
        _fail(f"--cases must be at least 1, got {cases}")
    from .checks import run_suite

    report = run_suite(suite, seed=seed, cases=cases)
    _emit(report.to_json())
    click.echo(
        f"{report.suite}: {report.cases} checks, {len(report.failures)} failures "
        f"in {report.elapsed:.2f}s",
        file=sys.stderr,
    )
    sys.exit(0 if report.ok else 1)


if __name__ == "__main__":
    main()
