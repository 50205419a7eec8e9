"""Span tracer that wraps `chanstruct`'s layers from the outside.

`Tracer.installed()` wraps, for the duration of a `with` block:

* each public function defined in one of the seven `chanstruct` modules,
  found by listing the module; the wrapper replaces the function under
  every name that binds it in any loaded `chanstruct` module, because
  modules import functions from each other by name;
* the numpy/scipy LAPACK entry points the program calls, by attribute on
  `numpy.linalg` and `scipy.linalg`.

Spans are kept in memory as (name, operation, start, end, parent) and nest
through a stack.  A layer's self time is its span time less the time of its
child spans.  Methods of classes are not wrapped: their time is self time of
the function that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np
import scipy.linalg

MODULES = ("channel", "numerics", "algebra", "structure", "cycles", "oqrw",
           "cli")
LAPACK = ((np.linalg, ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr")),
          (scipy.linalg, ("schur", "solve_sylvester")))
MIB = 1024.0 * 1024.0


def _out_bytes(value) -> int:
    """Bytes of the arrays a LAPACK wrapper returned (tuples unpacked)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_out_bytes(v) for v in value)
    return 0


class Tracer:
    """Spans of one traced pass."""

    def __init__(self):
        self.names = []          # span name ids -> name
        self._ids = {}
        self.spans = []          # [name_id, op, start, end, parent]
        self.out_bytes = {}      # LAPACK name id -> bytes returned
        self._stack = []
        self.op = ""

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, lapack: bool = False):
        nid = self._name_id(name)
        spans, stack, out_bytes = self.spans, self._stack, self.out_bytes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, self.op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if lapack:
                out_bytes[nid] = out_bytes.get(nid, 0) + _out_bytes(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer while the block runs, then restore the
        original functions."""
        originals = []          # (namespace, attribute, original)
        wrapped = {}            # id(original) -> wrapper
        for short in MODULES:
            module = importlib.import_module(f"chanstruct.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "chanstruct" or name.startswith("chanstruct."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        originals.append((module, attr, obj))
                        setattr(module, attr, wrapped[id(obj)])
        for namespace, routines in LAPACK:
            for attr in routines:
                obj = getattr(namespace, attr)
                originals.append((namespace, attr, obj))
                setattr(namespace, attr,
                        self.wrap(f"lapack.{attr}", obj, lapack=True))
        try:
            yield self
        finally:
            for namespace, attr, obj in reversed(originals):
                setattr(namespace, attr, obj)

    def _nested_in_same(self, parent: int, nid: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == nid:
                return True
            parent = self.spans[parent][4]
        return False

    def layer_metrics(self) -> dict:
        """`<module>.<function>.calls/.total_s/.self_s`, `<module>.self_s`
        and `lapack.<routine>.calls/.s/.out_mib` over the recorded spans.

        `total_s` counts only the outermost span of a recursive chain.
        """
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.spans)
        # spans are stored in start order, so children follow their parent
        for k in range(len(self.spans) - 1, -1, -1):
            nid, _, start, end, parent = self.spans[k]
            self_s[nid] += end - start - child[k]
            if parent >= 0:
                child[parent] += end - start
        for nid, _, start, end, parent in self.spans:
            calls[nid] += 1
            if not self._nested_in_same(parent, nid):
                total[nid] += end - start
        metrics, layers = {}, {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s[nid]
            metrics[f"{name}.calls"] = calls[nid]
            if layer == "lapack":
                metrics[f"{name}.s"] = total[nid]
                metrics[f"{name}.out_mib"] = self.out_bytes.get(nid, 0) / MIB
            else:
                metrics[f"{name}.total_s"] = total[nid]
                metrics[f"{name}.self_s"] = self_s[nid]
        for layer, value in layers.items():
            metrics[f"{layer}.self_s"] = value
        return metrics

    def top_level_s(self) -> float:
        """Time inside outermost spans; the rest of a pass is the
        benchmark's own code between calls."""
        return sum(end - start for _, _, start, end, parent in self.spans
                   if parent < 0)
