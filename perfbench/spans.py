"""Span recorder that wraps bulksurf's public functions from outside.

A span is (name, start, end, parent).  Spans stay in memory while the
workload runs and are written out once at the end.  Several bulksurf modules
import functions by value (``bulksurf.cli.carleman_ratio``,
``bulksurf.config.build_polar_mesh``, ``bulksurf.carleman.conormal_flux``),
so a module-level function is rebound in every ``bulksurf`` module that holds
it; methods are replaced on their class.  A name that no longer exists is
kept in ``missing`` for the coverage report, so a rename in the package shows
as a report line and not as a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent index]
        self._stack: list[int] = []
        self._name_index: dict[str, int] = {}
        self._undo: list = []
        self.lu_fill: list[int] = []
        self.missing: list[str] = []

    def _key(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        key = self._key(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def install(self, span_names) -> None:
        """Wrap every ``module.function`` or ``module.Class.method`` named."""
        self.missing = []
        for name in span_names:
            self._key(name)   # a missing name still reports zero calls
            module_name, _, attr = name.partition(".")
            try:
                module = importlib.import_module(f"bulksurf.{module_name}")
            except ModuleNotFoundError:
                self.missing.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is None:
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self.span(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self.span(name, orig)
            for mod in _bulksurf_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        self._install_splu_counter()

    def _install_splu_counter(self) -> None:
        """Count factorizations where bulksurf.forward looks up ``splu``."""
        forward = importlib.import_module("bulksurf.forward")
        real = forward.spla
        fill = self.span("trace.lu_fill", lambda lu: lu.L.nnz + lu.U.nnz)

        def splu(*args, **kwargs):
            lu = real.splu(*args, **kwargs)
            self.lu_fill.append(fill(lu))
            return lu

        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(vars(real))
        proxy.splu = splu
        forward.spla = proxy
        self._undo.append((forward, "spla", real))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def mark(self) -> tuple[int, int]:
        """Current position, for summarising the spans recorded after it."""
        return len(self.spans), len(self.lu_fill)

    def summary(self, since: tuple[int, int], until: tuple[int, int]) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is the span's duration minus the time its child spans
        cover.  Only spans recorded between the marks ``since`` and
        ``until`` count.
        """
        first, last = since[0], until[0]
        spans = self.spans
        child = {}
        for rec in spans[first:last]:
            if rec[3] >= first:
                child[rec[3]] = child.get(rec[3], 0.0) + rec[2] - rec[1]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(first, last):
            key, start, end, _ = spans[i]
            row = out[self.names[key]]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child.get(i, 0.0)
        return out

    def nested_s(self, name: str, parent: str, since: tuple[int, int],
                 until: tuple[int, int]) -> float:
        """Total time of ``name`` spans whose direct parent is a ``parent`` span."""
        if name not in self._name_index or parent not in self._name_index:
            return 0.0
        key, pkey = self._name_index[name], self._name_index[parent]
        spans = self.spans
        return sum(rec[2] - rec[1] for rec in spans[since[0]:until[0]]
                   if rec[0] == key and rec[3] >= 0 and spans[rec[3]][0] == pkey)

    def write(self, path: str) -> None:
        """Write the recorded spans as CSV: name, start, end, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (key, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[key]},{start - t0:.9f},"
                         f"{end - t0:.9f},{parent}\n")


def _bulksurf_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bulksurf" or name.startswith("bulksurf."))]

