"""Multi-index combinatorics for the symmetric occupation-number basis.

A multi-index is a finite occupation pattern ((i1, r1), ..., (in, rn)) with
strictly increasing modes i and positive multiplicities r; it labels the basis
vector built from r1 quanta in mode i1, r2 in mode i2, and so on.  The empty
pattern labels the vacuum.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .scalars import _json_int


class MultiIndex:
    """An immutable occupation pattern, stored sorted by mode.

    The constructor accepts any iterable of (mode, multiplicity) pairs (or a
    mode -> multiplicity mapping) and normalizes: duplicate modes are merged,
    zero multiplicities dropped, and the pairs sorted.  Equal patterns are
    equal objects in the dict/set sense.
    """

    __slots__ = ("pairs", "degree", "_hash")

    def __init__(self, pairs: Iterable[tuple[int, int]] | dict = ()):
        if isinstance(pairs, dict):
            items = pairs.items()
        else:
            items = pairs
        merged: dict[int, int] = {}
        for mode, mult in items:
            if mode < 0:
                raise ValueError(f"mode must be nonnegative, got {mode}")
            if mult < 0:
                raise ValueError(f"multiplicity must be nonnegative, got {mult}")
            if mult:
                merged[mode] = merged.get(mode, 0) + mult
        normalized = tuple(sorted(merged.items()))
        object.__setattr__(self, "pairs", normalized)
        object.__setattr__(self, "degree", sum(m for _, m in normalized))
        object.__setattr__(self, "_hash", hash(normalized))

    @classmethod
    def _raw(cls, pairs: tuple[tuple[int, int], ...]) -> "MultiIndex":
        """Fast path for pairs already sorted, merged, and positive."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "pairs", pairs)
        object.__setattr__(obj, "degree", sum(m for _, m in pairs))
        object.__setattr__(obj, "_hash", hash(pairs))
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

    # -- basic data ----------------------------------------------------------

    @property
    def hida_weight(self) -> int:
        """prod (2*mode + 2) ** multiplicity, exactly."""
        w = 1
        for mode, mult in self.pairs:
            w *= (2 * mode + 2) ** mult
        return w

    @property
    def factorial_degree(self) -> int:
        """degree! as an exact integer."""
        return math.factorial(self.degree)

    @property
    def pairing_weight(self) -> int:
        """prod multiplicity! over the stored pairs (written A!)."""
        w = 1
        for _, mult in self.pairs:
            w *= math.factorial(mult)
        return w

    def modes(self) -> tuple[int, ...]:
        return tuple(mode for mode, _ in self.pairs)

    def multiplicity(self, mode: int) -> int:
        for m, r in self.pairs:
            if m == mode:
                return r
            if m > mode:
                break
        return 0

    def is_vacuum(self) -> bool:
        return not self.pairs

    # -- structural operations -----------------------------------------------

    def concat(self, other: "MultiIndex") -> "MultiIndex":
        """Merge two patterns, adding multiplicities of shared modes."""
        a, b = self.pairs, other.pairs
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ma, ra = a[i]
            mb, rb = b[j]
            if ma == mb:
                out.append((ma, ra + rb))
                i += 1
                j += 1
            elif ma < mb:
                out.append((ma, ra))
                i += 1
            else:
                out.append((mb, rb))
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return MultiIndex._raw(tuple(out))

    def decompositions(self) -> list[tuple["MultiIndex", "MultiIndex"]]:
        """All ordered pairs (B, D) with B.concat(D) == self.

        The count is prod (multiplicity + 1) over stored pairs; the list is
        ordered with B increasing lexicographically.
        """
        splits: list[tuple[MultiIndex, MultiIndex]] = [
            (MultiIndex._raw(()), MultiIndex._raw(()))
        ]
        for mode, mult in self.pairs:
            extended = []
            for b, d in splits:
                for k in range(mult + 1):
                    left = b.pairs + ((mode, k),) if k else b.pairs
                    right = d.pairs + ((mode, mult - k),) if k < mult else d.pairs
                    extended.append((MultiIndex._raw(left), MultiIndex._raw(right)))
            splits = extended
        return splits

    def increment(self, mode: int) -> "MultiIndex":
        """The pattern with one more quantum in the given mode."""
        out = []
        placed = False
        for m, r in self.pairs:
            if m == mode:
                out.append((m, r + 1))
                placed = True
            elif m > mode and not placed:
                out.append((mode, 1))
                out.append((m, r))
                placed = True
            else:
                out.append((m, r))
        if not placed:
            out.append((mode, 1))
        return MultiIndex._raw(tuple(out))

    def decrement(self, mode: int) -> "MultiIndex":
        """The pattern with one quantum removed from the given mode."""
        out = []
        found = False
        for m, r in self.pairs:
            if m == mode:
                found = True
                if r > 1:
                    out.append((m, r - 1))
            else:
                out.append((m, r))
        if not found:
            raise ValueError(f"mode {mode} absent from {self!r}")
        return MultiIndex._raw(tuple(out))

    # -- comparisons / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self.pairs == other.pairs

    def __lt__(self, other: "MultiIndex") -> bool:
        return self.pairs < other.pairs

    def __le__(self, other: "MultiIndex") -> bool:
        return self.pairs <= other.pairs

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"MultiIndex({list(self.pairs)!r})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list:
        return [[mode, mult] for mode, mult in self.pairs]

    @classmethod
    def from_json(cls, data: list) -> "MultiIndex":
        return cls((_json_int(m), _json_int(r)) for m, r in data)


VACUUM = MultiIndex()


def binomial_product(upper: MultiIndex, lower: MultiIndex) -> int:
    """prod over modes of C(upper_r, lower_r); zero if lower exceeds upper."""
    total = 1
    for mode, r in lower.pairs:
        ru = upper.multiplicity(mode)
        if r > ru:
            return 0
        total *= math.comb(ru, r)
    return total


def indices_of_degree(degree: int, modes: Sequence[int]) -> list[MultiIndex]:
    """All multi-indices of the given degree supported on the given modes."""
    modes = sorted(set(modes))
    out: list[MultiIndex] = []

    def walk(pos: int, remaining: int, pairs: list[tuple[int, int]]):
        if pos == len(modes):
            if remaining == 0:
                out.append(MultiIndex._raw(tuple(pairs)))
            return
        if pos == len(modes) - 1:
            if remaining:
                out.append(MultiIndex._raw(tuple(pairs + [(modes[pos], remaining)])))
            else:
                out.append(MultiIndex._raw(tuple(pairs)))
            return
        walk(pos + 1, remaining, pairs)
        for r in range(1, remaining + 1):
            walk(pos + 1, remaining - r, pairs + [(modes[pos], r)])

    if degree == 0:
        return [VACUUM]
    if not modes:
        return []
    walk(0, degree, [])
    return sorted(out)


def indices_up_to(max_degree: int, modes: Sequence[int]) -> list[MultiIndex]:
    """All multi-indices of degree <= max_degree on the given modes, sorted."""
    out: list[MultiIndex] = []
    for d in range(max_degree + 1):
        out.extend(indices_of_degree(d, modes))
    return sorted(out)


def iter_index_tuples(
    slots: int, total_degree: int, modes: Sequence[int]
) -> Iterator[tuple[MultiIndex, ...]]:
    """All slot-tuples of multi-indices with total degree <= total_degree."""
    per_degree = [indices_of_degree(d, modes) for d in range(total_degree + 1)]

    def walk(slot: int, budget: int, prefix: tuple[MultiIndex, ...]):
        if slot == slots:
            yield prefix
            return
        for d in range(budget + 1):
            for idx in per_degree[d]:
                yield from walk(slot + 1, budget - d, prefix + (idx,))

    yield from walk(0, total_degree, ())
