"""Outside tracer: wraps the public entry points of each bredon layer.

Nothing in ``src/bredon`` knows about this module.  :class:`Tracer`
replaces every binding of each listed function with a timing wrapper: the
defining module, every ``bredon.*`` namespace that imported the name with
``from .x import y``, and the class attribute for methods.  Spans (name,
start, end, parent, operation id) and the counts taken at each boundary
stay in memory until :meth:`Tracer.write_spans` writes them out.

The counts are taken after the wrapped call returns and are recorded as a
sibling ``trace.count`` span, so the tracer's own bookkeeping is not
charged to the layer that called the traced function.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps


def _matrix_stats(matrix) -> tuple:
    """(nonzero entries, largest entry bit length) of an IntMatrix."""
    nnz = 0
    top = 0
    for row in matrix.data:
        nnz += len(row) - row.count(0)
        if row:
            top = max(top, max(row), -min(row))
    return nnz, top.bit_length()


def _bits(values) -> int:
    return max((abs(v) for v in values), default=0).bit_length()


def _smith_counts(diagonal, transforms):
    def count(args, kwargs, result):
        A = args[0]
        nnz, bits = _matrix_stats(A)
        diag = diagonal(result)
        bits = max([bits, _bits(diag)]
                   + [_matrix_stats(m)[1] for m in transforms(result)])
        nonzero = [d for d in diag if d]
        return {"cells": A.rows * A.cols, "nnz": nnz,
                "max_dim": max(A.rows, A.cols), "max_bits": bits,
                "ones": sum(1 for d in nonzero if d == 1),
                "nonzero": len(nonzero),
                "diagonal_calls": int(not transforms(result))}
    return count


def _tensor_counts(args, kwargs, result):
    M, N = args[0], args[1]
    return {"relations_in": (len(M.relations) * N.ngens
                             + M.ngens * len(N.relations)),
            "relations_kept": len(result.relations)}


def _largest_module(modules) -> int:
    return max((m.flat_dim for m in modules), default=0)


# (span name, module, attribute, counter).  An attribute "Class.method"
# patches the class.  The span name's first component is the layer.
ENTRY_POINTS = (
    ("cli.main", "bredon.cli", "main", None),
    ("specfile.parse", "bredon.specfile", "parse_spec", None),
    ("ktheory.report", "bredon.ktheory", "full_report", None),
    ("pullback.run", "bredon.pullback", "run_pullback", None),
    ("pullback.fold", "bredon.pullback", "kunneth_tensor", None),
    ("pullback.e2", "bredon.pullback", "em_e2", None),
    ("pullback.product_complex", "bredon.pullback", "product_complex",
     lambda a, k, r: {"flat_dim": _largest_module(r.modules)}),
    ("complexes.cochain", "bredon.complexes", "bredon_cochain_complex", None),
    ("complexes.validate", "bredon.complexes", "validate_block", None),
    ("complexes.cohomology", "bredon.complexes", "cohomology_table",
     lambda a, k, r: {"flat_dim": _largest_module(a[0].modules)}),
    ("repring.tensor", "bredon.repring", "tensor_over_ring", _tensor_counts),
    ("repring.flatten", "bredon.repring", "FpModule.flatten",
     lambda a, k, r: {"flat_dim": a[0].flat_dim}),
    ("repring.tor", "bredon.repring", "tor", None),
    ("repring.present_lattice", "bredon.repring", "present_lattice", None),
    ("repring.presentation_kernel", "bredon.repring", "presentation_kernel",
     None),
    ("intlinalg.smith", "bredon.intlinalg", "snf",
     _smith_counts(lambda r: r.diagonal(), lambda r: (r.U, r.V))),
    ("intlinalg.smith", "bredon.intlinalg", "smith_diagonal",
     _smith_counts(lambda r: r, lambda r: ())),
    ("intlinalg.smith", "bredon.intlinalg", "smith_with_inverse",
     _smith_counts(lambda r: r[0], lambda r: (r[1], r[2]))),
    ("intlinalg.kernel", "bredon.intlinalg", "kernel_lattice", None),
    ("intlinalg.solve", "bredon.intlinalg", "LinearSolver.solve",
     lambda a, k, r: {"columns": 1}),
    ("intlinalg.solve", "bredon.intlinalg", "LinearSolver.solve_matrix", None),
    ("intlinalg.subquotient", "bredon.intlinalg", "subquotient_with_action",
     None),
)

LAYERS = ("cli", "specfile", "ktheory", "pullback", "complexes", "repring",
          "intlinalg")

# Counts summed over an operation's spans; the rest are maxima.
_SUMMED = {"cells", "nnz", "ones", "nonzero", "diagonal_calls",
           "relations_in", "relations_kept", "columns"}

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """Installs span-recording wrappers and aggregates per-layer metrics."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                begin = clock()
                span[COUNTS] = counter(args, kwargs, result)
                spans.append(["trace.count", begin, clock(), parent, self.op,
                              None])
            return result
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None
                      and (key == "bredon" or key.startswith("bredon."))]
        for name, module_name, attr, counter in ENTRY_POINTS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for idx, s in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": idx, "name": s[NAME], "start": s[START],
                     "end": s[END], "parent": s[PARENT], "op": s[OP],
                     "counts": s[COUNTS]}) + "\n")


def self_times(spans) -> list:
    """Span duration minus the durations of its direct children.

    ``spans`` is the tracer's full list, so parent indices resolve; spans
    nest properly because the program runs on one thread.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def op_metrics(tracer: Tracer, op) -> dict:
    """Every per-layer metric of one traced operation.

    Counts of an entry point the operation never called are absent; they
    read as 0 (see :func:`metric`).
    """
    spans = tracer.spans
    own = self_times(spans)
    members = [i for i, s in enumerate(spans) if s[OP] == op]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("trace",)}
    entries = {name for name, *_ in ENTRY_POINTS}
    for name in entries:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.total_s"] = 0.0
    counts = {}
    for i in members:
        s = spans[i]
        name = s[NAME]
        out[f"{name.split('.')[0]}.self_s"] += own[i]
        if name not in entries:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[i]
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            out[f"{name}.total_s"] += s[END] - s[START]
        for key, value in (s[COUNTS] or {}).items():
            slot = f"{name}.{key}"
            if key in _SUMMED:
                counts[slot] = counts.get(slot, 0) + value
            else:
                counts[slot] = max(counts.get(slot, 0), value)
    out.update(counts)

    def share(part, whole):
        return counts.get(part, 0) / max(1, counts.get(whole, 0))

    out["intlinalg.smith.unit_frac"] = share("intlinalg.smith.ones",
                                             "intlinalg.smith.nonzero")
    out["repring.tensor.kept_ratio"] = share("repring.tensor.relations_kept",
                                             "repring.tensor.relations_in")
    return out


def metric(metrics: dict, name: str):
    """Look up one metric; a count of an entry point never called is 0."""
    if name in metrics:
        return metrics[name]
    if metrics.get(name.rsplit(".", 1)[0] + ".calls") == 0:
        return 0
    raise KeyError(f"the tracer does not produce metric {name!r}")
