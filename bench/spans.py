"""Per-layer tracing from outside the library: wrappers, spans and counters.

Each traced function is rebound, in its defining module and in every
``zgdual`` module that imported it by name, to a wrapper that records a
span (name, start, end, parent span, item id) and updates work counters.
Methods are rebound on their class.  ``Tracer.remove`` puts every original
back and checks that nothing was missed.

Self time is a span's duration minus the durations of its child spans.
Counters are computed after the wrapped call returns; their cost is
charged to neither the span nor its parent.

Counters only count; they never change arguments or results, so a traced
run returns the same verdicts as an untraced one.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

from zgdual import cli, complexes, dual_form, gr_linalg, group_core, int_linalg, lens, serialize


def _nnz(coeffs):
    return len(coeffs) - coeffs.count(0)


def _int_matrix_key(A):
    return hash((A.rows, A.cols, A.entries))


def _max_bits(matrices):
    top = 0
    for M in matrices:
        for row in M.entries:
            for v in row:
                if v > top:
                    top = v
                elif -v > top:
                    top = -v
    return top.bit_length()


class _GroupKeys:
    """Value-based keys for groups, computed once per group object."""

    def __init__(self):
        self._by_id = {}

    def key(self, G):
        hit = self._by_id.get(id(G))
        if hit is None:
            hit = (G, hash((G.order, G.mul_table)))
            self._by_id[id(G)] = hit
        return hit[1]


# Counter functions take (stats, args, kwargs, result).  ``stats`` is the
# target's own dict; the counter names listed with each target in
# _targets() are reported as metrics.


def _count_gr_mul(st, args, kwargs, result):
    a, b = args
    st["term_products"] += _nnz(a.coeffs) * _nnz(b.coeffs)


def _count_group_from_table(st, args, kwargs, result):
    st["order_cubed"] += result.order ** 3


def _count_snf(st, args, kwargs, result):
    A = args[0]
    st["cells"] += A.rows * A.cols
    st["_distinct"].add(_int_matrix_key(A))
    st["max_bits"] = max(st["max_bits"], _max_bits((result.U, result.D, result.V)))


def _count_int_matmul(st, args, kwargs, result):
    a, b = args
    st["madds"] += a.rows * a.cols * b.cols


def _count_lll(st, args, kwargs, result):
    rows = args[0]
    st["cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_gr_matmul(st, args, kwargs, result):
    a, b = args
    n = 0
    for i in range(a.rows):
        arow = a.entries[i]
        for k in range(a.cols):
            if arow[k].is_zero:
                continue
            brow = b.entries[k]
            for j in range(b.cols):
                if not brow[j].is_zero:
                    n += 1
    st["products"] += n


def _count_expand(st, args, kwargs, result):
    A = args[0]
    N = A.group.order
    st["cells"] += A.rows * N * A.cols * N
    coeffs = tuple(e.coeffs for row in A.entries for e in row)
    st["_distinct"].add(hash((st["_groups"].key(A.group), A.rows, A.cols, coeffs)))


def _count_unsolved(st, args, kwargs, result):
    st["_misses"] += result is None


def _count_found(st, args, kwargs, result):
    st["_hits"] += result is not None


def _count_dumps(st, args, kwargs, result):
    # output size without the wall-clock ``timings`` key, so the count repeats
    obj = args[0]
    if isinstance(obj, dict) and "timings" in obj:
        obj = {k: v for k, v in obj.items() if k != "timings"}
    st["bytes"] += len(json.dumps(obj, sort_keys=True, indent=2)) + 1


# (display name, owner object, attribute, counter function, reported counters)
def _targets():
    IM, GM = int_linalg.IntegerMatrix, gr_linalg.GRMatrix
    return [
        ("group_core.gr_mul", group_core, "gr_mul", _count_gr_mul, ("term_products",)),
        ("group_core.group_from_table", group_core, "group_from_table", _count_group_from_table,
         ("order_cubed",)),
        ("group_core.cyclic_group", group_core, "cyclic_group", None, ()),
        ("int_linalg.smith_normal_form", int_linalg, "smith_normal_form", _count_snf,
         ("cells", "distinct_ratio", "max_bits")),
        ("int_linalg.IntegerMatrix.matmul", IM, "__matmul__", _count_int_matmul, ("madds",)),
        ("int_linalg.solve_integer", int_linalg, "solve_integer", None, ()),
        ("int_linalg.kernel_basis", int_linalg, "kernel_basis", None, ()),
        ("int_linalg.homology_pair", int_linalg, "homology_pair", None, ()),
        ("int_linalg.lll_reduce", int_linalg, "lll_reduce", _count_lll, ("cells",)),
        ("int_linalg.babai_nearest", int_linalg, "babai_nearest", None, ()),
        ("int_linalg.determinant", int_linalg, "determinant", None, ()),
        ("gr_linalg.GRMatrix.matmul", GM, "__matmul__", _count_gr_matmul, ("products",)),
        ("gr_linalg.GRMatrix.expand", GM, "expand", _count_expand, ("cells", "distinct_ratio")),
        ("gr_linalg.solve_gr_linear", gr_linalg, "solve_gr_linear", _count_unsolved,
         ("unsolved_ratio",)),
        ("gr_linalg.invert_gr_matrix", gr_linalg, "invert_gr_matrix", None, ()),
        ("complexes.homology", complexes, "homology", None, ()),
        ("complexes.five_complex_report", complexes, "five_complex_report", None, ()),
        ("complexes.validate_complex", complexes, "validate_complex", None, ()),
        ("complexes.is_chain_map", complexes, "is_chain_map", None, ()),
        ("complexes.verify_homotopy", complexes, "verify_homotopy", None, ()),
        ("dual_form.to_dual_form_stage6", dual_form, "to_dual_form_stage6", None, ()),
        ("dual_form.recognize_dual_form", dual_form, "recognize_dual_form", None, ()),
        ("dual_form.obstruction_check", dual_form, "obstruction_check", None, ()),
        ("dual_form.normalize_duality", dual_form, "normalize_duality", None, ()),
        ("dual_form.solve_chain_isomorphism", dual_form, "solve_chain_isomorphism", _count_found,
         ("found_ratio",)),
        ("dual_form.assemble_dual_form", dual_form, "assemble_dual_form", None, ()),
        ("lens.lens_asd_transform", lens, "lens_asd_transform", None, ()),
        ("serialize.complex_from_json", serialize, "complex_from_json", None, ()),
        ("serialize.complex_to_json", serialize, "complex_to_json", None, ()),
        ("serialize.duality_map_from_json", serialize, "duality_map_from_json", None, ()),
        ("serialize.canonical_dumps", serialize, "canonical_dumps", _count_dumps, ("bytes",)),
        ("cli.main", cli, "main", None, ()),
    ]


_UNITS = {
    "calls": "count",
    "self_s": "s",
    "distinct_ratio": "ratio",
    "unsolved_ratio": "ratio",
    "found_ratio": "ratio",
    "max_bits": "bits",
    "bytes": "bytes",
}

# ratio counters: numerator per target, divided by its calls (0 when never called)
_RATIOS = {
    "distinct_ratio": lambda st: len(st["_distinct"]),
    "unsolved_ratio": lambda st: st["_misses"],
    "found_ratio": lambda st: st["_hits"],
}

OVERHEAD_METRIC = "trace.items_per_s_ratio"


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name, _, _, _, counters in _targets():
        for stat in ("calls", "self_s") + counters:
            out.append((f"{name}.{stat}", _UNITS.get(stat, "count")))
    out.append((OVERHEAD_METRIC, "ratio"))
    return out


def _new_stats():
    return {
        "calls": 0,
        "self_s": 0.0,
        "term_products": 0,
        "order_cubed": 0,
        "cells": 0,
        "madds": 0,
        "products": 0,
        "max_bits": 0,
        "bytes": 0,
        "_distinct": set(),
        "_misses": 0,
        "_hits": 0,
    }


class Tracer:
    """Installs wrappers, records spans in memory, aggregates per target."""

    def __init__(self):
        self.item = -1
        self.names = []
        self.stats = []
        # one entry per span, in start order
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self._stack = []  # [span index, child seconds]
        self._rebound = []  # (owner, attribute, original)
        self._groups = _GroupKeys()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, tid, fn, counter):
        st = self.stats[tid]
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, items = self.span_parent, self.span_item

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(tid)
            parents.append(stack[-1][0] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                st["calls"] += 1
                st["self_s"] += (t1 - t0) - frame[1]
            if counter is not None:
                counter(st, args, kwargs, result)
            if stack:
                stack[-1][1] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "zgdual" or n.startswith("zgdual.")]
        for name, owner, attr, counter, _ in _targets():
            tid = len(self.names)
            self.names.append(name)
            st = _new_stats()
            st["_groups"] = self._groups
            self.stats.append(st)
            original = getattr(owner, attr)
            wrapper = self._wrap(tid, original, counter)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        left = [(o, a) for o, a, orig in self._rebound if getattr(o, a) is not orig]
        self._rebound = []
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer metric name -> value, for every target (zero when unused)."""
        out = {}
        for (name, _, _, _, counters), st in zip(_targets(), self.stats):
            calls = st["calls"]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = st["self_s"]
            for c in counters:
                if c in _RATIOS:
                    num = _RATIOS[c](st)
                    out[f"{name}.{c}"] = num / calls if calls else 0.0
                else:
                    out[f"{name}.{c}"] = st[c]
        return out

    def write_spans(self, path):
        """One JSON line per span: name, start and end (s), parent index, item id."""
        base = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"[{self.span_name[i]},{self.span_start[i] - base:.7f},"
                    f"{self.span_end[i] - base:.7f},{self.span_parent[i]},{self.span_item[i]}]\n"
                )
