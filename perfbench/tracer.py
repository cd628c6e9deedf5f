"""Per-layer tracing from outside the library.

``Tracer.install`` wraps probfold's public functions and the constructors of
its two value types. A wrapped function replaces the original under every
name bound to it: in the defining module, in every module that imported it
(``probfold.schemes.bind`` is ``probfold.dist.bind``) and in the benchmark's
own modules. Each call records one span -- name, start, end, parent span,
operation id -- plus a work figure for the derived counts. Spans stay in
memory in flat integer arrays; ``aggregate`` derives self time, counts,
computed flops and bytes from them after the pass, and ``save`` writes them.
"""

from __future__ import annotations

import sys
import time
from array import array
from types import ModuleType
from typing import Any, Callable

import numpy as np

import probfold.dims as dims
import probfold.dist as dist
import probfold.functors as functors
import probfold.matrix as matrix
import probfold.schemes as schemes

ROOT = -1


def _first_len(args, kwargs, out):
    """Support size of a Dist argument (for a constructor: of the new Dist)."""
    return len(args[0])


def _pair_entries(args, kwargs, out):
    return len(args[0]) * len(args[1])


def _matrix_bytes(args, kwargs, out):
    return args[0].data.nbytes


def _compose_flops(args, kwargs, out):
    m, n = args[0].data, args[1].data
    return 2 * m.shape[0] * m.shape[1] * n.shape[1]


def _fixpoint_flops_per_step(args, kwargs, out):
    """Flops of one iteration of the seed's fixpoint loop: shift the iterate
    (M x C by C x C), leak check (M by M x C), apply the body (M x M by M x C),
    with M states and C = n_max + 1 columns."""
    m, c = args[0].data.shape[0], args[2] + 1
    return 2 * m * c * c + 2 * m * c + 2 * m * m * c


# (module, attribute, span name, work function computed after the call)
FUNCTIONS = [
    (dist, "bind", "dist.bind", _first_len),
    (dist, "pair", "dist.pair", _pair_entries),
    (dist, "marginals", "dist.marginals", None),
    (dist, "choice", "dist.choice", None),
    (matrix, "compose", "matrix.compose", _compose_flops),
    (matrix, "kron", "matrix.kron", None),
    (matrix, "khatri", "matrix.khatri", None),
    (matrix, "madd", "matrix.madd", None),
    (matrix, "from_probfn", "matrix.from_probfn", None),
    (matrix, "from_probfn_truncated", "matrix.from_probfn_truncated", None),
    (schemes, "matrix_cata_fixpoint", "schemes.matrix_cata_fixpoint", _fixpoint_flops_per_step),
    (schemes, "for_loop", "schemes.for_loop", None),
    (schemes, "fold_list", "schemes.fold_list", None),
    (schemes, "cata_eval", "schemes.cata_eval", None),
    (schemes, "mutual_eval", "schemes.mutual_eval", None),
    (schemes, "tupled_from_mutual", "schemes.tupled_from_mutual", None),
    (schemes, "banana_split", "schemes.banana_split", None),
]

# (class, method, span name, work function computed after the call)
METHODS = [
    (dist.Dist, "__init__", "dist.Dist", _first_len),
    (matrix.Matrix, "__init__", "matrix.Matrix", _matrix_bytes),
    (dims.Dim, "index_of", "dims.index_of", None),
] + [
    (cls, "on_matrix", "functors.on_matrix", None)
    for cls in vars(functors).values()
    if isinstance(cls, type) and issubclass(cls, functors.FunctorDesc) and "on_matrix" in vars(cls)
    and cls is not functors.FunctorDesc
]

SPAN_NAMES = sorted({f[2] for f in FUNCTIONS} | {m[2] for m in METHODS}) + ["op"]


class Tracer:
    """Span recorder for one pass; install() patches, uninstall() restores."""

    def __init__(self, extra_modules: tuple[ModuleType, ...] = ()):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.extra_modules = extra_modules
        self.op = -1
        self._stack = [ROOT]
        self._undo: list[tuple[Any, str, Any]] = []
        self.name, self.parent, self.op_id = array("q"), array("q"), array("q")
        self.start, self.end, self.work = array("q"), array("q"), array("q")

    def _wrap(self, fn: Callable, span: str, work: Callable | None) -> Callable:
        nid = self.ids[span]
        name, parent, op_id = self.name, self.parent, self.op_id
        start, end, work_col, stack = self.start, self.end, self.work, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            start.append(0)
            end.append(0)
            work_col.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if work is not None:
                work_col[i] = work(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "probfold" or n.startswith("probfold.")]
        modules += list(self.extra_modules)
        for module, attr, span, work in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self._wrap(original, span, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for cls, meth, span, work in METHODS:
            original = vars(cls)[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span, work))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def begin_op(self, op: int) -> int:
        """Open the root span of one operation."""
        self.op = op
        i = len(self.name)
        for col, value in ((self.name, self.ids["op"]), (self.parent, ROOT), (self.op_id, op),
                           (self.start, time.perf_counter_ns()), (self.end, 0), (self.work, 0)):
            col.append(value)
        self._stack.append(i)
        return i

    def end_op(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        self.op = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("name", "parent", "op_id", "start", "end", "work")}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def aggregate(spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer metrics from one pass's spans.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the program is single-threaded.
    """
    name, parent, work = spans["name"], spans["parent"], spans["work"]
    dur = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    n_names = len(SPAN_NAMES)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
    self_s = np.bincount(name, weights=dur - child_time, minlength=n_names)
    calls = np.bincount(name, minlength=n_names)
    work_sum = np.bincount(name, weights=work.astype(np.float64), minlength=n_names)
    ids = {n: i for i, n in enumerate(SPAN_NAMES)}

    out: dict[str, float] = {}
    for span, i in ids.items():
        if span == "op":
            continue
        out[f"{span}.calls"] = int(calls[i])
        out[f"{span}.self_s"] = float(self_s[i])
    out["dist.Dist.support_out"] = int(work_sum[ids["dist.Dist"]])
    dist_spans = name == ids["dist.Dist"]
    out["dist.max_support"] = int(work[dist_spans].max()) if dist_spans.any() else 0
    out["dist.bind.cont_calls"] = int(work_sum[ids["dist.bind"]])
    out["dist.pair.entries"] = int(work_sum[ids["dist.pair"]])
    out["matrix.Matrix.bytes"] = int(work_sum[ids["matrix.Matrix"]])
    out["matrix.compose.flops"] = int(work_sum[ids["matrix.compose"]])

    fix = np.flatnonzero(name == ids["schemes.matrix_cata_fixpoint"])
    madd_children = (name == ids["matrix.madd"]) & np.isin(parent, fix)
    steps = np.bincount(parent[madd_children], minlength=len(name))[fix] if fix.size else np.zeros(0)
    out["schemes.matrix_cata_fixpoint.madd_calls"] = int(steps.sum())
    out["schemes.matrix_cata_fixpoint.flops"] = int((steps * work[fix]).sum())
    return out
