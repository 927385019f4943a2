"""Spans and counters recorded from the benchmark's own files.

Two instruments, never active at the same time:

* :class:`Tracer` wraps every public function of the wickfock layer modules,
  in every wickfock module that holds a reference to it, plus
  ``RationalMatrix.matmul``.  Each call records a span (name, start, end,
  parent) in flat in-memory arrays; self time is computed at the end.
* :class:`OperationCounter` counts ``Scalar`` and ``MultiIndex`` operations, which run
  millions of times and are therefore only counted, and reads work sizes
  (rows, cells, pivots, terms) off arguments and results.  It runs in its own
  pass so its bookkeeping never lands in a span's self time.

Both patch module and class attributes and restore them on ``uninstall``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import Counter as _Tally
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "scalars",
    "multiindex",
    "fock",
    "operators",
    "symbolcalc",
    "expansion",
    "hochschild",
    "cli",
)

# Per-quantum ladder helpers run inside apply_kernel hundreds of thousands of
# times per batch; like Scalar and MultiIndex operations they are counted,
# not timed, and their time is apply_kernel's self time.
COUNTED_ONLY = {
    "operators.apply_creation",
    "operators.apply_annihilation",
    "operators.create_by",
    "operators.annihilate_by",
}


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    package, _, layer = module.partition(".")
    return layer if package == "wickfock" and layer in LAYERS else None


def public_functions(module):
    """(attribute, function, span name) for layer functions held by a module."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        layer = _layer_of(obj)
        if layer is None or inspect.isgeneratorfunction(obj):
            continue
        yield attr, obj, f"{layer}.{obj.__name__}"


def wickfock_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "wickfock" or name.startswith("wickfock."))
    ]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer(_Patches):
    """Span recorder over the public functions of the layer modules."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        self.start[index] = perf_counter()
        try:
            yield
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def install(self, wickfock_package):
        wrappers = {}
        for module in wickfock_modules():
            for attr, fn, name in public_functions(module):
                if name in COUNTED_ONLY:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(name, fn)
                self.set(module, attr, wrappers[fn])
        matrix = wickfock_package.hochschild.RationalMatrix
        self.set(matrix, "matmul", self._wrap("hochschild.matmul", matrix.matmul))
        return self

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            if self.parent[i] >= 0:
                own[self.parent[i]] -= self.end[i] - self.start[i]
        return own

    def roots(self) -> list[int]:
        """For each span, the index of its outermost ancestor."""
        root: list[int] = []
        for i, p in enumerate(self.parent):
            root.append(i if p < 0 else root[p])
        return root

    def write(self, path):
        """All spans as tab-separated index, name, start, end, parent, self time."""
        own = self.self_times()
        t0 = self.start[0] if own else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\tself_s\n")
            for i, self_s in enumerate(own):
                handle.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self_s:.9f}\n"
                )


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _labels(caps) -> int:
    """Basis labels admitted by caps: multisets of size <= max_degree on max_mode modes."""
    return math.comb(caps.max_mode + caps.max_degree, caps.max_degree)


class OperationCounter(_Patches):
    """Operation counts and work sizes for one pass; no timing."""

    def __init__(self):
        super().__init__()
        self.tally: _Tally = _Tally()
        self.max_coeff_bits = 0
        self.exp_keys: set = set()

    def _count_calls(self, fn, name, after=None):
        tally = self.tally

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tally[name + ".calls"] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return counted

    def install(self, wickfock_package):
        self._install_scalar(wickfock_package.scalars.Scalar)
        self._install_multiindex(wickfock_package.multiindex.MultiIndex)
        after = {
            "fock.wick_product": self._after_wick,
            "operators.table_from_kernel": self._after_table_from_kernel,
            "hochschild.table_coboundary": self._after_table_coboundary,
            "hochschild.coboundary_matrix": self._after_matrix,
            "hochschild.rank_nullspace": self._after_rank,
            "symbolcalc.exp_bracket_poly": self._after_exp_bracket,
        }
        wrappers = {}
        for module in wickfock_modules():
            for attr, fn, name in public_functions(module):
                if fn not in wrappers:
                    wrappers[fn] = self._count_calls(fn, name, after.get(name))
                self.set(module, attr, wrappers[fn])
        return self

    def _install_scalar(self, scalar_cls):
        tally = self.tally

        def observe(result):
            if isinstance(result, scalar_cls):
                bits = max(_bits(result.re), _bits(result.im))
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits
            return result

        def is_int(value) -> bool:
            if isinstance(value, scalar_cls):
                return not value.im and value.re.denominator == 1
            if isinstance(value, Fraction):
                return value.denominator == 1
            return isinstance(value, int)

        def counting(op, key, check_int=False):
            def method(a, b):
                tally[key] += 1
                if check_int and is_int(a) and is_int(b):
                    tally["scalars.int_mul"] += 1
                return observe(op(a, b))

            return method

        for attr in ("__add__", "__sub__"):
            self.set(scalar_cls, attr, counting(getattr(scalar_cls, attr), "scalars.add_calls"))
        for attr in ("__mul__", "__rmul__"):
            self.set(
                scalar_cls,
                attr,
                counting(getattr(scalar_cls, attr), "scalars.mul_calls", check_int=True),
            )
        self.set(
            scalar_cls,
            "__truediv__",
            counting(scalar_cls.__truediv__, "scalars.div_calls"),
        )

    def _install_multiindex(self, index_cls):
        tally = self.tally
        concat, decompositions = index_cls.concat, index_cls.decompositions

        def counted_concat(a, b):
            tally["multiindex.concat_calls"] += 1
            return concat(a, b)

        def counted_decompositions(a):
            tally["multiindex.decompositions_calls"] += 1
            return decompositions(a)

        self.set(index_cls, "concat", counted_concat)
        self.set(index_cls, "decompositions", counted_decompositions)

    # -- work sizes read off arguments and results --------------------------------

    def _after_wick(self, args, kwargs, result):
        self.tally["fock.wick_product.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        self.tally["fock.wick_product.terms_out"] += len(result.terms)

    def _after_table_from_kernel(self, args, kwargs, result):
        family, caps = args
        self.tally["operators.table_from_kernel.rows_enumerated"] += _labels(caps) ** family.arity
        self.tally["operators.table_from_kernel.rows_nonzero"] += len(result.action)

    def _after_table_coboundary(self, args, kwargs, result):
        self.tally["hochschild.table_coboundary.rows_enumerated"] += (
            _labels(result.caps) ** result.arity
        )
        self.tally["hochschild.table_coboundary.rows_nonzero"] += len(result.action)

    def _after_matrix(self, args, kwargs, result):
        self.tally["hochschild.coboundary_matrix.cells"] += result.rows * result.cols
        self.tally["hochschild.coboundary_matrix.nnz"] += sum(
            1 for row in result.entries for value in row if value
        )

    def _after_rank(self, args, kwargs, result):
        self.tally["hochschild.rank_nullspace.pivots"] += result[0]

    def _after_exp_bracket(self, args, kwargs, result):
        self.exp_keys.add((args, tuple(sorted(kwargs.items()))))
