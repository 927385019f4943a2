import gc
import io
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from decimal import Decimal
from enum import IntEnum
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

import wickfock.operators
from wickfock import checks
from wickfock.cli import _write_json, main
from wickfock.fock import (
    FockVector,
    TestVector,
    TruncationCaps,
    coherent,
    norm_squared,
    pairing,
)
from wickfock.hochschild import cohomology_report, kernel_coboundary
from wickfock.multiindex import VACUUM, MultiIndex
from wickfock.operators import KernelFamily, apply_kernel, table_from_kernel
from wickfock.scalars import Scalar
from wickfock.symbolcalc import symbol_poly

mi = MultiIndex
e = FockVector.basis
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def runner():
    return CliRunner()


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_wick_command(tmp_path, runner):
    a = write_json(tmp_path, "a.json", e(mi([(1, 2)])).to_json())
    b = write_json(tmp_path, "b.json", e(mi([(1, 1), (3, 1)])).to_json())
    result = runner.invoke(main, ["wick", a, b])
    assert result.exit_code == 0
    assert FockVector.from_json(json.loads(result.output)) == e(mi([(1, 3), (3, 1)]))


def test_wick_command_vacuum_neutral(tmp_path, runner):
    v = e(mi([(0, 1)])) + e(mi([(2, 1)]), Scalar(-2))
    a = write_json(tmp_path, "vac.json", FockVector.vacuum().to_json())
    b = write_json(tmp_path, "v.json", v.to_json())
    result = runner.invoke(main, ["wick", a, b])
    assert result.exit_code == 0
    assert FockVector.from_json(json.loads(result.output)) == v


def test_wick_command_rejects_malformed_json(tmp_path, runner):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = write_json(tmp_path, "good.json", FockVector.vacuum().to_json())
    result = runner.invoke(main, ["wick", str(bad), good])
    assert result.exit_code == 2

    wrong_shape = write_json(tmp_path, "shape.json", {"coeffs": []})
    result = runner.invoke(main, ["wick", wrong_shape, good])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000, b'{"terms": [{"index": [[0, ' + b"9" * 5000 + b']], "re": "1"}]}'],
    ids=["not-utf8", "nested-100000-deep", "integer-5000-digits"],
)
def test_unreadable_json_exits_2_without_traceback(tmp_path, runner, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    good = write_json(tmp_path, "good.json", FockVector.vacuum().to_json())
    result = runner.invoke(main, ["wick", str(bad), good])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in result.stderr


def test_coherent_command(tmp_path, runner):
    xi = TestVector.unit(0) + TestVector.unit(1, Scalar(2))
    path = write_json(tmp_path, "xi.json", xi.to_json())
    result = runner.invoke(main, ["coherent", path, "--max-degree", "3"])
    assert result.exit_code == 0
    assert FockVector.from_json(json.loads(result.output)) == coherent(xi, 3)


def test_pair_and_norm_commands(tmp_path, runner):
    x = e(mi([(0, 2)]), Scalar(3))
    a = write_json(tmp_path, "x.json", x.to_json())
    result = runner.invoke(main, ["pair", a, a])
    assert result.exit_code == 0
    assert Scalar.from_json_fields(json.loads(result.output)) == pairing(x, x)

    result = runner.invoke(main, ["norm", a, "--k", "1", "--c", "1/2"])
    assert result.exit_code == 0
    from fractions import Fraction

    expected = norm_squared(x, 1, Fraction(1, 2))
    assert json.loads(result.output)["value"] == str(expected)


def test_apply_command(tmp_path, runner):
    family = KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),))
    op = write_json(tmp_path, "op.json", family.to_json())
    arg = write_json(tmp_path, "arg.json", e(mi([(0, 2)])).to_json())
    result = runner.invoke(main, ["apply", op, arg])
    assert result.exit_code == 0
    assert FockVector.from_json(json.loads(result.output)) == apply_kernel(
        family, [e(mi([(0, 2)]))]
    )
    # arity mismatch is a usage error
    result = runner.invoke(main, ["apply", op, arg, arg])
    assert result.exit_code == 2


def test_symbol_command_poly_and_at(tmp_path, runner):
    family = KernelFamily.single(1, mi([(0, 1)]), (mi([(1, 1)]),))
    op = write_json(tmp_path, "op.json", family.to_json())
    caps = ["--max-mode", "2", "--max-degree", "2"]
    result = runner.invoke(main, ["symbol", op, "--poly", *caps])
    assert result.exit_code == 0
    expected = symbol_poly(table_from_kernel(family, TruncationCaps(2, 2)))
    from wickfock.symbolcalc import SymbolPolynomial

    assert SymbolPolynomial.from_json(json.loads(result.output)) == expected

    xi = write_json(tmp_path, "xi.json", TestVector.unit(1).to_json())
    eta = write_json(tmp_path, "eta.json", TestVector.unit(0).to_json())
    result = runner.invoke(main, ["symbol", op, "--at", xi, "--at", eta, *caps])
    assert result.exit_code == 0
    assert Scalar.from_json_fields(json.loads(result.output)) == Scalar(1)

    # wrong argument count for the arity
    result = runner.invoke(main, ["symbol", op, "--at", xi, *caps])
    assert result.exit_code == 2
    # --poly and --at together
    result = runner.invoke(
        main, ["symbol", op, "--poly", "--at", xi, "--at", eta, *caps]
    )
    assert result.exit_code == 2


def test_expand_command_round_trip(tmp_path, runner):
    family = KernelFamily.single(1, mi([(0, 1)]), (mi([(0, 1)]),))
    table = table_from_kernel(family, TruncationCaps(2, 3))
    op = write_json(tmp_path, "table.json", table.to_json())
    result = runner.invoke(main, ["expand", op])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert KernelFamily.from_json(payload) == family
    assert all(block["reliable"] is True for block in payload["blocks"])


@pytest.mark.parametrize("value", [[[5, 1]], [[0, 3]]], ids=["mode-5", "degree-3"])
def test_table_value_outside_caps_exits_2(tmp_path, runner, value):
    # A value term beyond the caps would come back as kernel entries that
    # the window cannot determine, each marked reliable.
    table = {
        "arity": 1,
        "caps": {"max_mode": 2, "max_degree": 2},
        "rows": [{"args": [[[0, 1]]], "value": {"terms": [{"index": value, "re": "1"}]}}],
    }
    result = runner.invoke(main, ["expand", write_json(tmp_path, "table.json", table)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "outside caps" in result.stderr


def test_delta_command(tmp_path, runner):
    identity = KernelFamily.single(1, VACUUM, (VACUUM,))
    op = write_json(tmp_path, "id.json", identity.to_json())
    result = runner.invoke(main, ["delta", op])
    assert result.exit_code == 0
    assert KernelFamily.from_json(json.loads(result.output)) == kernel_coboundary(
        identity
    )

    result = runner.invoke(
        main, ["delta", op, "--route", "table", "--max-mode", "1", "--max-degree", "2"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["arity"] == 2


def test_cohomology_command(tmp_path, runner):
    result = runner.invoke(
        main, ["cohomology", "--r", "1", "--l", "0", "--m", "1", "--modes", "2"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    report = cohomology_report(1, 0, 1, TruncationCaps(2, 3))
    assert payload["dim_ker"] == report["dim_ker"] == 2
    assert payload["dim_im_prev"] == 0
    assert payload["dim_H"] == 2
    cocycles = [KernelFamily.from_json(fam) for fam in payload["basis_cocycles"]]
    assert all(kernel_coboundary(fam).is_zero() for fam in cocycles)


def test_check_command_passes_and_is_deterministic(runner):
    args = ["check", "--suite", "pairing", "--seed", "7", "--cases", "5"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert json.loads(first.stdout)["failures"] == []
    assert first.stdout == second.stdout


def test_check_command_unknown_suite(runner):
    result = runner.invoke(main, ["check", "--suite", "nonsense"])
    assert result.exit_code == 2


def test_check_suite_choices_are_the_sorted_suites_then_all():
    (suite,) = [p for p in main.commands["check"].params if p.name == "suite"]
    assert list(suite.type.choices) == sorted(checks.SUITES) + ["all"]


def test_cli_start_leaves_the_check_suites_unloaded():
    # A fresh process, because other tests import wickfock.checks in this one.
    script = (
        "import wickfock, wickfock.cli, sys\n"
        "from click.testing import CliRunner\n"
        "assert 'wickfock.checks' not in sys.modules, 'checks loaded at start'\n"
        "args = ['check', '--suite', 'pairing', '--cases', '2']\n"
        "result = CliRunner().invoke(wickfock.cli.main, args)\n"
        "assert result.exit_code == 0, result.output\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


@pytest.mark.parametrize("cases", ["0", "-4"])
def test_check_command_rejects_fewer_than_one_case(runner, cases):
    # a suite of no cases verifies nothing, so it must not report a pass
    result = runner.invoke(main, ["check", "--suite", "algebra", "--cases", cases])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_check_command_detects_injected_bad_constant(runner, monkeypatch):
    monkeypatch.setattr(
        wickfock.operators, "_annihilation_coefficient", lambda mult: 1
    )
    result = runner.invoke(main, ["check", "--suite", "ccr", "--cases", "3"])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["failures"]


def test_outputs_reparse_canonically(tmp_path, runner):
    # emitted JSON reparses to an equal value and re-emits byte-identically
    x = e(mi([(3, 1)]), Scalar(-1, 2)) + e(mi([(0, 2)]))
    a = write_json(tmp_path, "a.json", x.to_json())
    b = write_json(tmp_path, "vac.json", FockVector.vacuum().to_json())
    first = runner.invoke(main, ["wick", a, b])
    echo = write_json(tmp_path, "echo.json", json.loads(first.output))
    second = runner.invoke(main, ["wick", echo, b])
    assert first.output == second.output


def _term(index, re="1", im="0"):
    return {"terms": [{"index": index, "re": re, "im": im}]}


def _block(l, M):
    # one identity entry (deg I = 0, deg J = (0,)) filed under the given labels
    return {"arity": 1, "blocks": [{"l": l, "M": M, "entries": [{"I": [], "J": [[]], "re": "1"}]}]}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("wick", _term([[0, 1.7]])),
        ("wick", _term([[0, True]])),
        ("wick", _term([[0, 1]], re=1)),
        ("wick", _term([[0, 1]], re="1/0")),
        ("wick", _term([[0, 1]], re="1.5e3")),
        ("coherent", {"coeffs": [{"mode": True, "re": "1"}]}),
        ("apply", {"arity": 1.0, "blocks": []}),
        ("expand", {"arity": 1, "caps": {"max_mode": "1", "max_degree": 1}, "rows": []}),
        ("delta", _block(l=5, M=[0])),
        ("delta", _block(l=0, M=[7])),
    ],
    ids=[
        "float-multiplicity", "bool-multiplicity", "numeric-re", "zero-denominator",
        "exponent-re", "bool-mode", "float-arity", "string-cap",
        "block-l-mismatch", "block-M-mismatch",
    ],
)
def test_non_integer_or_non_rational_json_exits_2(tmp_path, runner, command, payload):
    bad = write_json(tmp_path, "bad.json", payload)
    extra = {
        "wick": [write_json(tmp_path, "vac.json", FockVector.vacuum().to_json())],
        "coherent": ["--max-degree", "1"],
    }.get(command, [])
    result = runner.invoke(main, [command, bad, *extra])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "is not a valid" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["delta", "OP", "--max-mode", "-1"],
        ["delta", "OP", "--route", "table", "--max-degree", "-1"],
        ["cohomology", "--r", "1", "--l", "0", "--m", "1", "--modes", "2", "--max-degree", "-1"],
        ["expand", "OP", "--max-mode", "-1", "--max-degree", "2"],
        ["symbol", "OP", "--poly", "--max-mode", "2", "--max-degree", "-1"],
    ],
    ids=["delta-kernel", "delta-table", "cohomology", "expand", "symbol"],
)
def test_negative_caps_flags_exit_2(tmp_path, runner, args):
    op = write_json(tmp_path, "op.json", KernelFamily.single(1, VACUUM, (VACUUM,)).to_json())
    result = runner.invoke(main, [op if arg == "OP" else arg for arg in args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "nonnegative" in result.stderr


def test_long_exact_results_print(tmp_path, runner):
    # <e_A, e_A> = A! = 2000!, which has 5736 digits
    v = write_json(tmp_path, "v.json", {"terms": [{"index": [[0, 2000]], "re": "1"}]})
    result = runner.invoke(main, ["pair", v, v])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["im"] == "0" and len(payload["re"]) == 5736
    assert int(Decimal(payload["re"])) == math.factorial(2000)


def test_repeated_runs_release_their_output_streams(runner):
    """Each CliRunner run captures output in fresh BytesIO buffers; none of
    them may stay alive once the run is over."""

    def live_buffers():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if isinstance(obj, io.BytesIO))

    good = ["cohomology", "--r", "1", "--l", "1", "--m", "1", "--modes", "2"]
    bad = ["cohomology", "--r", "-1", "--l", "1", "--m", "1", "--modes", "2"]
    runner.invoke(main, good)
    runner.invoke(main, bad)
    before = live_buffers()
    for _ in range(20):
        assert runner.invoke(main, good).exit_code == 0
        assert runner.invoke(main, bad).exit_code == 2
    assert live_buffers() <= before


def _written(obj) -> str:
    pieces = []
    _write_json(obj, pieces.append)
    return "".join(pieces)


class _Text(str):
    """A str subclass: json renders it as a string, so the writer must too."""


class _Level(IntEnum):
    """An int subclass: json renders it by int.__repr__, as a number."""

    LOW = 1
    HIGH = 2**70


_tricky_text = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001d11e'))
_json_leaves = (
    st.none() | st.booleans() | st.integers() | st.sampled_from(_Level)
    | _tricky_text | _tricky_text.map(_Text)
)
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: (
        st.lists(kids)
        | st.lists(kids).map(tuple)
        | st.dictionaries(_tricky_text, kids)
        | st.dictionaries(_tricky_text | _tricky_text.map(_Text), kids).map(OrderedDict)
    ),
    max_leaves=40,
)


@given(_json_trees)
@example({"flag": True, "level": _Level.HIGH, "big": 2**64 + 1, "neg": -(2**80)})
@example([True, False, 2**64, _Level.LOW, 0])
def test_writer_matches_json_dumps_indent_2(obj):
    assert _written(obj) == json.dumps(obj, indent=2)


@given(st.lists(st.integers(), min_size=1), _json_trees)
def test_writer_renders_a_repeated_int_list_at_each_depth(ints, tree):
    # The memo is keyed by values and indent: the same list at another
    # depth, or an equal-comparing list holding bools, must not reuse it.
    obj = [ints, {"a": [ints, [ints, tree]], "b": [1, *ints], "c": [True, *ints]}, [], {}, ints]
    assert _written(obj) == json.dumps(obj, indent=2)


@given(
    st.dictionaries(
        st.integers() | st.floats() | st.booleans() | st.none() | st.tuples(st.integers()) | st.text(),
        _json_leaves,
    )
)
def test_writer_handles_non_string_keys_as_json_does(obj):
    try:
        expected = json.dumps(obj, indent=2)
    except TypeError as exc:
        with pytest.raises(TypeError) as raised:
            _written(obj)
        assert str(raised.value) == str(exc)
    else:
        assert _written(obj) == expected


def test_writer_renders_a_shared_tuple_once_per_identity_and_indent():
    # One tuple object at depths 1 (twice) to 5, beside an equal but
    # distinct tuple, and (1,) beside (True,) in both orders.  A memo keyed
    # by value cannot hash t (it holds a list), one shared with the int-list
    # memo would print (True,) as [1], and one at depth 1 would store t's
    # text after its pieces were flushed.
    pair = (4, 5)
    t = (True, [1, [2, (3,)]], {"k": (), "v": [pair]}, ())
    twin = (True, [1, [2, (3,)]], {"k": (), "v": [pair]}, ())
    obj = [
        t,
        [t, twin, (1,), (True,)],
        {"a": [t, (True,), (1,), twin]},
        [[[t, (1,)]], [(True,), pair]],
        {"b": [[twin, [t, (True,), (1,)]]]},
        t,
    ]
    pieces = []
    _write_json(obj, pieces.append)
    assert "".join(pieces) == json.dumps(obj, indent=2)
    # A piece ends after each element of each top-level value (so t at
    # depth 1 is split, not memoized), and each top-level value's closing
    # bracket, like the whole output's, is a piece of its own.
    assert len(pieces) == sum(len(x) + 1 for x in obj) + 1


def test_writer_pieces_hold_one_element_of_a_top_level_value():
    obj = {"n": 3, "items": [{"x": [0, 1]}, {"x": [0, 2]}, {"x": [0, 3]}]}
    pieces = []
    _write_json(obj, pieces.append)
    assert "".join(pieces) == json.dumps(obj, indent=2)
    assert max(piece.count('"x"') for piece in pieces) == 1
