"""The tests' reference tabulator: a table built from any row function, the
oracle the full-product tests compare the library's tabulators against."""

from typing import Callable, Iterable

from wickfock.fock import FockVector, TruncationCaps, truncate
from wickfock.multiindex import MultiIndex
from wickfock.operators import BasisActionTable


def _tabulate(
    arity: int, caps: TruncationCaps, rows: Iterable, value_of: Callable
) -> BasisActionTable:
    """The table of the nonzero values of value_of over rows, truncated to
    caps; rows must be arity-tuples of labels the caps admit (unchecked)."""
    action: dict[tuple[MultiIndex, ...], FockVector] = {}
    for row in rows:
        value = truncate(value_of(row), caps)
        if value:
            action[row] = value
    return BasisActionTable._raw(arity, caps, action)
