"""Multi-index combinatorics for the symmetric occupation-number basis.

A multi-index is a finite occupation pattern ((i1, r1), ..., (in, rn)) with
strictly increasing modes i and positive multiplicities r; it labels the basis
vector built from r1 quanta in mode i1, r2 in mode i2, and so on.  The empty
pattern labels the vacuum.

Labels are hash-consed: equal patterns are one object, so identity is both
equality and hash, computed in C.  The intern table, a plain module dict from
pairs to label, lives as long as the module: 27, 19 and 20 labels after one
``routes``, ``cohomology`` and ``expansion`` benchmark set-up and batch, 126
after ``cohomology`` at (r, l, m, modes) = (4, 2, 5, 4).  Beside it,
``_SUMS`` maps each pair of nonvacuous labels ever merged to their
concatenation, so it grows with the distinct pairs merged: 149, 9 and 45
entries after the same three set-ups and batches, 45 after the table route
at (3, 1, 3, 3); the kernel route merges none.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .scalars import _json_int


_INTERNED: dict = {}  # pairs -> the one MultiIndex with those pairs
_SUMS: dict = {}  # (a, b) -> a.concat(b), both nonvacuous


class MultiIndex:
    """An immutable occupation pattern, stored sorted by mode.

    The constructor accepts any iterable of (mode, multiplicity) pairs (or a
    mode -> multiplicity mapping) and normalizes: duplicate modes are merged,
    zero multiplicities dropped, and the pairs sorted.  It returns the one
    object for that pattern: equal patterns are the same object, and
    identity is both ``==`` and ``hash``.  ``degree`` and ``pairing_weight``
    (prod multiplicity! over the pairs, written A!) are stored on the label
    when it is first interned.
    """

    __slots__ = ("pairs", "degree", "pairing_weight")

    def __new__(cls, pairs: Iterable[tuple[int, int]] | dict = ()):
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
        return cls._raw(tuple(sorted(merged.items())))

    @classmethod
    def _raw(cls, pairs: tuple[tuple[int, int], ...], degree: int | None = None) -> "MultiIndex":
        """The one label for pairs already sorted, merged and positive (of
        ``degree`` if given); ``setdefault`` keeps one when two threads miss."""
        obj = _INTERNED.get(pairs)
        if obj is None:
            obj = object.__new__(cls)
            object.__setattr__(obj, "pairs", pairs)
            object.__setattr__(obj, "degree", sum(m for _, m in pairs) if degree is None else degree)
            object.__setattr__(obj, "pairing_weight", math.prod(math.factorial(m) for _, m in pairs))
            obj = _INTERNED.setdefault(pairs, obj)
        return obj

    def __reduce__(self):
        return MultiIndex._raw, (self.pairs,)

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
        """Merge two patterns, adding multiplicities of shared modes; each
        pair of nonvacuous labels is merged once per process (``_SUMS``)."""
        a, b = self.pairs, other.pairs
        if not a:
            return other
        if not b:
            return self
        merged = _SUMS.get((self, other))
        if merged is not None:
            return merged
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
        merged = _SUMS[self, other] = MultiIndex._raw(tuple(out))
        return merged

    def decompositions(self) -> list[tuple["MultiIndex", "MultiIndex"]]:
        """All ordered pairs (B, D) with B.concat(D) == self.

        The count is prod (multiplicity + 1) over stored pairs; the list is
        ordered with B increasing lexicographically.
        """
        splits = [((), 0, ())]  # left pairs, left degree, right pairs
        for mode, mult in self.pairs:
            splits = [
                (b + ((mode, k),) if k else b, deg + k, d + ((mode, mult - k),) if k < mult else d)
                for b, deg, d in splits
                for k in range(mult + 1)
            ]
        total = self.degree
        return [(MultiIndex._raw(b, deg), MultiIndex._raw(d, total - deg)) for b, deg, d in splits]

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

    # -- ordering -------------------------------------------------------------

    def __lt__(self, other: "MultiIndex") -> bool:
        return self.pairs < other.pairs

    def __le__(self, other: "MultiIndex") -> bool:
        return self.pairs <= other.pairs

    def __repr__(self) -> str:
        return f"MultiIndex({list(self.pairs)!r})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> tuple:
        """The interned ``pairs`` themselves, the same tuple on every call,
        which json renders as ``[[mode, mult], ...]`` (the vacuum as ``[]``);
        the CLI writer renders each one once per indent."""
        return self.pairs

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
    """All multi-indices of the given degree supported on the given modes,
    sorted, as a new list.  Each (degree, set of modes) is enumerated once
    per process (while among the 256 most recent) and shared as a tuple."""
    return list(_indices_of_degree(degree, tuple(sorted(set(modes)))))


@lru_cache(maxsize=256)
def _indices_of_degree(degree: int, modes: tuple[int, ...]) -> tuple[MultiIndex, ...]:
    out: list[MultiIndex] = []

    def walk(pos: int, remaining: int, pairs: list[tuple[int, int]]):
        if pos == len(modes) - 1:
            last = [(modes[pos], remaining)] if remaining else []
            out.append(MultiIndex._raw(tuple(pairs + last)))
            return
        walk(pos + 1, remaining, pairs)
        for r in range(1, remaining + 1):
            walk(pos + 1, remaining - r, pairs + [(modes[pos], r)])

    if degree == 0:
        return (VACUUM,)
    if not modes:
        return ()
    walk(0, degree, [])
    return tuple(sorted(out))


def indices_up_to(max_degree: int, modes: Sequence[int]) -> list[MultiIndex]:
    """All multi-indices of degree <= max_degree on the given modes, sorted."""
    modes = tuple(sorted(set(modes)))
    return sorted(a for d in range(max_degree + 1) for a in _indices_of_degree(d, modes))


def iter_index_tuples(
    slots: int, total_degree: int, modes: Sequence[int]
) -> Iterator[tuple[MultiIndex, ...]]:
    """All slot-tuples of multi-indices with total degree <= total_degree."""
    modes = tuple(sorted(set(modes)))
    per_degree = [_indices_of_degree(d, modes) for d in range(total_degree + 1)]

    def walk(slot: int, budget: int, prefix: tuple[MultiIndex, ...]):
        if slot == slots:
            yield prefix
            return
        for d in range(budget + 1):
            for idx in per_degree[d]:
                yield from walk(slot + 1, budget - d, prefix + (idx,))

    yield from walk(0, total_degree, ())
