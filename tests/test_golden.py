"""Golden CLI outputs: stdout of each command on fixed inputs, byte for byte.

The inputs in ``golden/inputs`` are deliberately not canonical (repeated
keys that merge or cancel, zero coefficients, Gaussian rationals), so these
cases pin how every reader normalizes as well as what each command prints.
The expected bytes live in ``golden/<case>.out``.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from wickfock.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _in(name: str) -> str:
    return str(GOLDEN / "inputs" / name)


CASES = {
    "wick": ["wick", _in("fock_a.json"), _in("fock_b.json")],
    "wick_cancel": ["wick", _in("cancel_x.json"), _in("cancel_y.json")],
    "coherent": ["coherent", _in("xi.json"), "--max-degree", "3"],
    "pair": ["pair", _in("fock_a.json"), _in("fock_b.json")],
    "norm": ["norm", _in("fock_a.json"), "--k", "1", "--c", "2/3"],
    "apply_1": ["apply", _in("kernel_1.json"), _in("fock_a.json")],
    "apply_2": ["apply", _in("kernel_2.json"), _in("fock_a.json"), _in("fock_b.json")],
    "symbol_poly_kernel": [
        "symbol", _in("kernel_1.json"), "--poly", "--max-mode", "3", "--max-degree", "2",
    ],
    "symbol_poly_table": ["symbol", _in("table_2.json"), "--poly"],
    "symbol_at_kernel": [
        "symbol", _in("kernel_1.json"), "--at", _in("xi.json"), "--at", _in("eta.json"),
        "--max-mode", "3", "--max-degree", "3",
    ],
    "symbol_at_table": [
        "symbol", _in("table_2.json"),
        "--at", _in("xi.json"), "--at", _in("eta.json"), "--at", _in("xi.json"),
    ],
    "expand_table": ["expand", _in("table_2.json")],
    "expand_kernel": ["expand", _in("kernel_1.json"), "--max-mode", "2", "--max-degree", "3"],
    "delta_kernel": ["delta", _in("kernel_1.json")],
    "delta_table": ["delta", _in("kernel_1.json"), "--route", "table"],
    "delta_kernel_2": ["delta", _in("kernel_2.json")],
    "cohomology_kernel": ["cohomology", "--r", "1", "--l", "1", "--m", "2", "--modes", "3"],
    "cohomology_table": [
        "cohomology", "--r", "1", "--l", "1", "--m", "2", "--modes", "3", "--route", "table",
    ],
    "cohomology_kernel_h1": ["cohomology", "--r", "1", "--l", "1", "--m", "1", "--modes", "2"],
    "cohomology_table_h1": [
        "cohomology", "--r", "1", "--l", "1", "--m", "1", "--modes", "2", "--route", "table",
    ],
    "check_all": ["check", "--suite", "all", "--cases", "3"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case):
    result = CliRunner().invoke(main, CASES[case])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / f"{case}.out").read_bytes()
