"""Spans around the public functions of each cbopt module.

The benchmark times cbopt from the outside: :class:`Tracer` replaces every
public function of each layer module (and every public method of the
classes those modules export) with a wrapper that records a span.  The
wrapper is installed in every cbopt namespace that holds the function, so a
name imported elsewhere (``diagnostics.consensus_point``) is traced too.
Nothing under ``src/`` changes, and :meth:`Tracer.uninstall` puts the
original objects back, so untraced passes run exactly the shipped code.

A span is ``[name, parent, t_enter, t_start, t_end, t_exit, info]``:
``t_start..t_end`` is the call itself and ``t_enter..t_exit`` also covers the
wrapper's own bookkeeping.  A parent's self time subtracts the union of its
children's ``t_enter..t_exit`` intervals, so wrapper cost never shows up as
some layer's self time.  A span opened on a worker thread with nothing open
on that thread is a child of the span open on the main thread, which is how
the thread pools in ``decay_experiment`` and ``grid_search_simplex`` hand
out work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

import numpy as np

LAYERS = (
    "core",
    "projections",
    "objectives",
    "diagnostics",
    "baseline",
    "market",
    "metaio",
    "cli",
)

# Per-value formatting helpers run about 3.5 million times in one portfolio
# pass; a span each would cost more than the work they do and swamp the
# writers' timings, so their time stays inside their callers.
UNTRACED = {"metaio.fmt_float", "metaio.fmt_vector", "metaio.parse_vector"}

# Artifact writers: the positional index of their ``path`` argument
# (counting ``self`` for methods) and whether their first argument is a row
# collection whose length is counted.  Their spans make up ``metaio.write_s``.
WRITERS = {
    "core.write_trace_csv": (1, True),
    "market.write_frontier_csv": (1, True),
    "metaio.write_metadata": (0, False),
    "diagnostics.DecayReport.write_csv": (1, False),
    "diagnostics.write_laplace_csv": (1, False),
    "diagnostics.write_error_csv": (2, False),
}


def _probe_rows(args, kwargs, out):
    """Rows projected and rows the projection changed."""
    raw = np.asarray(args[1] if len(args) > 1 else kwargs["vs"], dtype=float)
    out = np.asarray(out)
    return out.shape[0], int(np.any(out != raw, axis=1).sum())


def _probe_evals(args, kwargs, out):
    """Objective family (descriptor prefix) and number of points evaluated."""
    return args[0].descriptor.partition(":")[0], int(np.size(out))


def _probe_len(args, kwargs, out):
    return len(out)


def _probe_workers(args, kwargs, out):
    return kwargs.get("workers", 1)


def _writer_probe(index: int, counts_rows: bool):
    """Bytes the writer left at its path, and rows it was given."""

    def probe(args, kwargs, out):
        path = args[index] if len(args) > index else kwargs["path"]
        return os.path.getsize(path), len(args[0]) if counts_rows else 0

    return probe


PROBES = {
    "projections.SimplexProjector.project_rows": _probe_rows,
    "projections.BoxProjector.project_rows": _probe_rows,
    "projections.BallProjector.project_rows": _probe_rows,
    "objectives.Objective.eval_many": _probe_evals,
    "objectives.Objective.__call__": _probe_evals,
    "baseline.simplex_lattice": _probe_len,
    "diagnostics.decay_experiment": _probe_workers,
}
PROBES.update({name: _writer_probe(*spec) for name, spec in WRITERS.items()})

# Spans whose wrapper also reads the process CPU clock around the call; the
# info becomes ``(probe result, cpu seconds)``.
CPU_SPANS = {"diagnostics.decay_experiment"}


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return [n for n in names if getattr(getattr(mod, n, None), "__module__", None) == mod.__name__]


class Tracer:
    """Installs span-recording wrappers into the cbopt package."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list = []
        self._patches: list[tuple[object, str, object]] = []
        self._modules = {layer: importlib.import_module(f"cbopt.{layer}") for layer in LAYERS}
        self._namespaces = [importlib.import_module("cbopt"), *self._modules.values()]

    def targets(self) -> list[tuple[str, object, str, object]]:
        """``(span name, owner, attribute, original)`` for every traced callable."""
        out = []
        for layer, mod in self._modules.items():
            for name in _public_names(mod):
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    out.append((f"{layer}.{name}", mod, name, obj))
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if inspect.isfunction(member) and (
                            not attr.startswith("_") or attr == "__call__"
                        ):
                            out.append((f"{layer}.{name}.{attr}", obj, attr, member))
        return [t for t in out if t[0] not in UNTRACED]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        for span_name, owner, attr, original in self.targets():
            wrapper = self._wrap(span_name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in self._namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn):
        perf = time.perf_counter
        probe = PROBES.get(name)
        cpu = name in CPU_SPANS
        spans = self.spans
        stack_of = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = perf()
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            rec = [name, parent, t_enter, 0.0, 0.0, 0.0, None]
            stack.append(rec)
            c0 = time.process_time() if cpu else 0.0
            try:
                rec[3] = perf()
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                stack.pop()
                spans.append(rec)
            if probe is not None:
                rec[6] = probe(args, kwargs, out)
            if cpu:
                rec[6] = (rec[6], time.process_time() - c0)
            rec[5] = perf()
            return out

        return wrapper

    def take(self) -> "SpanTable":
        """Hand over the spans recorded so far and start a fresh list."""
        table = SpanTable(list(self.spans))
        self.spans.clear()
        return table


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTable:
    """One traced pass: totals, self times and probe results by span name."""

    def __init__(self, spans: list[list]):
        self.by_name: dict[str, list[list]] = {}
        self._children: dict[int, list[list]] = {}
        for rec in spans:
            self.by_name.setdefault(rec[0], []).append(rec)
            if rec[1] is not None:
                self._children.setdefault(id(rec[1]), []).append(rec)
        self.n_spans = len(spans)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        return sum(r[4] - r[3] for r in self.by_name.get(name, ()))

    def self_time(self, name: str) -> float:
        total = 0.0
        for rec in self.by_name.get(name, ()):
            lo, hi = rec[3], rec[4]
            cover = []
            for c in self._children.get(id(rec), ()):
                c_lo, c_hi = max(c[2], lo), min(c[5] or c[4], hi)
                if c_hi > c_lo:
                    cover.append((c_lo, c_hi))
            total += (hi - lo) - _union_length(cover)
        return total

    def infos(self, name: str) -> list:
        return [r[6] for r in self.by_name.get(name, ())]

    def under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        n = 0
        for rec in self.by_name.get(name, ()):
            parent = rec[1]
            while parent is not None:
                if parent[0] == ancestor:
                    n += 1
                    break
                parent = parent[1]
        return n

    def call_counts(self) -> dict[str, int]:
        return {name: len(recs) for name, recs in sorted(self.by_name.items())}
