import json

import pytest
from click.testing import CliRunner

import wickfock.operators
from wickfock.cli import main
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
    ],
    ids=[
        "float-multiplicity", "bool-multiplicity", "numeric-re", "zero-denominator",
        "exponent-re", "bool-mode", "float-arity", "string-cap",
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
