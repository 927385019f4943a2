"""Golden CLI outputs: stdout of each command on fixed inputs, byte for byte.

The inputs in ``golden/inputs`` are deliberately not canonical (repeated
keys that merge or cancel, zero coefficients, Gaussian rationals), so these
cases pin how every reader normalizes as well as what each command prints.
The expected bytes live in ``golden/<case>.out``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from wickfock.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


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
    "apply_ladder": [
        "apply", _in("kernel_ladder.json"), _in("fock_ladder.json"), _in("fock_ladder.json"),
    ],
    "symbol_poly_kernel": [
        "symbol", _in("kernel_1.json"), "--poly", "--max-mode", "3", "--max-degree", "2",
    ],
    "symbol_poly_table": ["symbol", _in("table_2.json"), "--poly"],
    "symbol_poly_edge": [
        "symbol", _in("kernel_edge.json"), "--poly", "--max-mode", "2", "--max-degree", "2",
    ],
    "symbol_at_kernel": [
        "symbol", _in("kernel_1.json"), "--at", _in("xi.json"), "--at", _in("eta.json"),
        "--max-mode", "3", "--max-degree", "3",
    ],
    "symbol_at_table": [
        "symbol", _in("table_2.json"),
        "--at", _in("xi.json"), "--at", _in("eta.json"), "--at", _in("xi.json"),
    ],
    "expand_table": ["expand", _in("table_2.json")],
    "expand_repeated_rows": ["expand", _in("table_repeated.json")],
    "expand_kernel": ["expand", _in("kernel_1.json"), "--max-mode", "2", "--max-degree", "3"],
    "expand_edge": ["expand", _in("kernel_edge.json"), "--max-mode", "2", "--max-degree", "2"],
    "delta_kernel": ["delta", _in("kernel_1.json")],
    "delta_table": ["delta", _in("kernel_1.json"), "--route", "table"],
    "delta_kernel_2": ["delta", _in("kernel_2.json")],
    "delta_table_2": ["delta", _in("kernel_2_mode0.json"), "--route", "table"],
    "delta_table_mixed": ["delta", _in("kernel_2_mixed.json"), "--route", "table"],
    "delta_table_caps": [
        "delta", _in("kernel_1.json"), "--route", "table", "--max-mode", "1", "--max-degree", "5",
    ],
    "delta_table_reach": [
        "delta", _in("kernel_reach.json"), "--route", "table",
        "--max-mode", "2", "--max-degree", "5",
    ],
    "cohomology_kernel": ["cohomology", "--r", "1", "--l", "1", "--m", "2", "--modes", "3"],
    "cohomology_table": [
        "cohomology", "--r", "1", "--l", "1", "--m", "2", "--modes", "3", "--route", "table",
    ],
    "cohomology_kernel_h1": ["cohomology", "--r", "1", "--l", "1", "--m", "1", "--modes", "2"],
    "cohomology_table_h1": [
        "cohomology", "--r", "1", "--l", "1", "--m", "1", "--modes", "2", "--route", "table",
    ],
    "cohomology_kernel_blocks": ["cohomology", "--r", "2", "--l", "1", "--m", "2", "--modes", "3"],
    "cohomology_table_blocks": [
        "cohomology", "--r", "2", "--l", "1", "--m", "2", "--modes", "2", "--route", "table",
    ],
    "cohomology_table_r3": [
        "cohomology", "--r", "3", "--l", "0", "--m", "3", "--modes", "2", "--route", "table",
    ],
    "cohomology_r0": ["cohomology", "--r", "0", "--l", "2", "--m", "0", "--modes", "2"],
    "cohomology_kernel_modes4": ["cohomology", "--r", "2", "--l", "0", "--m", "2", "--modes", "4"],
    "cohomology_kernel_r4": ["cohomology", "--r", "4", "--l", "0", "--m", "4", "--modes", "1"],
    "cohomology_kernel_r3": ["cohomology", "--r", "3", "--l", "1", "--m", "3", "--modes", "2"],
    "cohomology_kernel_m3": ["cohomology", "--r", "2", "--l", "0", "--m", "3", "--modes", "3"],
    "check_all": ["check", "--suite", "all", "--cases", "3"],
    "check_help": ["check", "--help"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case):
    result = CliRunner().invoke(main, CASES[case])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / f"{case}.out").read_bytes()


# Table-route cohomology of strata whose kernel-route output is already
# golden, (r, l, m, modes) = (2, 1, 2, 3), (3, 1, 3, 2), (2, 0, 2, 4) and
# (2, 0, 3, 3): the two routes must print the same bytes.
TABLE_AS_KERNEL = [
    "cohomology_kernel_blocks",
    "cohomology_kernel_r3",
    "cohomology_kernel_modes4",
    "cohomology_kernel_m3",
]


@pytest.mark.parametrize("case", TABLE_AS_KERNEL)
def test_table_route_cohomology_matches_the_kernel_golden(case):
    result = CliRunner().invoke(main, CASES[case] + ["--route", "table"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / f"{case}.out").read_bytes()


@pytest.mark.parametrize(
    "case",
    [
        "cohomology_kernel_r4",
        "check_all",
        "wick",
        "cohomology_table_blocks",
        "delta_table_mixed",
        "delta_table_reach",
    ],
)
def test_module_entry_point_stdout_matches_golden(case):
    """A real process: catches flush and encoding faults that CliRunner hides,
    and, since labels hash by address, any output that follows hash order."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wickfock.cli", *CASES[case]],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (GOLDEN / f"{case}.out").read_bytes()
