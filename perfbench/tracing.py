"""Spans around the public functions of symstab, recorded from outside.

`Tracer.install` replaces every public function of the traced modules, in
every symstab module namespace that holds a reference to it, by a wrapper
that records a span (name, layer, start, end, parent).  The value and
values methods of SymplecticPath get spans too, so path evaluation shows
as its own layer.  Spans stay in memory; `dump` writes them at the end.
Self time of a span is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("dynamics", "paths", "index", "spectral", "galerkin", "classify",
          "cli", "io")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, layer, start, end, parent]
        self._stack: list[int] = []
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][3] = time.perf_counter()

    def wrap(self, name: str, layer: str, fn, on_result=None):
        """`fn` with a span per call while the tracer is active;
        `on_result(args, kwargs, out)` updates counters from a result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[name + "_errors"] += 1
                raise
            finally:
                self._close(sid)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself."""
        if not self.active:
            yield
            return
        sid = self._open(name, layer)
        try:
            yield
        finally:
            self._close(sid)

    # -- installation -------------------------------------------------------

    def _index_result(self, args, kwargs, out) -> None:
        opts = kwargs.get("opts", args[2] if len(args) > 2 else None)
        eps0 = opts.eps if opts is not None else self._default_eps
        self.counts["index.crossings"] += len(out.crossings)
        self.counts["index.eps_halvings"] += round(math.log2(eps0 / out.eps))

    def _galerkin_result(self, args, kwargs, out) -> None:
        self.counts["galerkin.modes"] += out[2]

    def install(self, package) -> None:
        """Wrap the public functions of every traced layer of `package`."""
        mods = {name: sys.modules[f"{package.__name__}.{name}"]
                for name in LAYERS}
        everywhere = [m for k, m in sys.modules.items()
                      if k == package.__name__
                      or k.startswith(package.__name__ + ".")]
        self._default_eps = mods["index"].IndexOptions().eps
        hooks = {"index_nu": self._index_result,
                 "stabilized_index": self._galerkin_result}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                w = self.wrap(f"{layer}.{attr}", layer, fn, hooks.get(attr))
                for other in everywhere:
                    for k, v in list(vars(other).items()):
                        if v is fn:
                            self._undo.append((other, k, v))
                            setattr(other, k, w)
        cls = mods["paths"].SymplecticPath
        for meth in ("value", "values"):
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"paths.{meth}", "paths", orig))
        self._undo.append((cls, "__call__", cls.__dict__["__call__"]))
        cls.__call__ = cls.value

    def uninstall(self) -> None:
        for obj, k, v in reversed(self._undo):
            setattr(obj, k, v)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Gzipped tab-separated lines: id, parent, name, start, end, with
        times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            fh.writelines(f"{sid}\t{parent}\t{name}\t{a - t0:.7f}\t{b - t0:.7f}\n"
                          for sid, (name, _l, a, b, parent)
                          in enumerate(self.spans))

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass layer figures from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = defaultdict(float)     # inclusive seconds per span name
        count = defaultdict(int)
        self_by_layer = defaultdict(float)
        nu_ms = []
        for sid, (name, layer, t0, t1, parent) in enumerate(self.spans):
            dur = t1 - t0
            total[name] += dur
            count[name] += 1
            self_by_layer[layer] += dur - child[sid]
            if name == "index.index_nu":
                nu_ms.append(1e3 * dur)

        doublings = sum(1 for name, _l, _a, _b, parent in self.spans
                        if name == "galerkin.assemble_dual_form"
                        and parent >= 0
                        and self.spans[parent][0] == "galerkin.stabilized_index")
        doublings -= count["galerkin.stabilized_index"]

        p = float(passes)
        out = {
            "index.mean_index_s": (total["index.mean_index"] / p, "s"),
            "index.index_nu_calls": (count["index.index_nu"] / p, "count"),
            "index.index_nu_s": (total["index.index_nu"] / p, "s"),
            "index.index_nu_errors": (self.counts["index.index_nu_errors"] / p,
                                      "count"),
            "index.index_nu_p50_ms": (statistics.median(nu_ms) if nu_ms
                                      else 0.0, "ms"),
            "index.crossings": (self.counts["index.crossings"] / p, "count"),
            "index.eps_halvings": (self.counts["index.eps_halvings"] / p,
                                   "count"),
            "index.splitting_numeric_s":
                (total["index.splitting_numbers_numeric"] / p, "s"),
            "index.iterate_indices_s": (total["index.iterate_indices"] / p, "s"),
            "paths.value_calls": (count["paths.value"] / p, "count"),
            "paths.values_calls": (count["paths.values"] / p, "count"),
            "galerkin.stabilized_index_s":
                (total["galerkin.stabilized_index"] / p, "s"),
            "galerkin.assemble_s": (total["galerkin.assemble_dual_form"] / p, "s"),
            "galerkin.eigen_s": (total["galerkin.morse_index_nullity"] / p, "s"),
            "galerkin.modes": (self.counts["galerkin.modes"] / p, "count"),
            "galerkin.doublings": (doublings / p, "count"),
            "dynamics.g_sample_s": (total["dynamics.g_sample"] / p, "s"),
            "dynamics.g_samples": (count["dynamics.g_sample"] / p, "count"),
            "dynamics.find_orbits_s": (total["dynamics.find_orbits"] / p, "s"),
            "dynamics.monodromy_path_s":
                (total["dynamics.monodromy_path"] / p, "s"),
            "dynamics.enclosing_radii_s":
                (total["dynamics.enclosing_radii"] / p, "s"),
            "spectral.spectral_summary_s":
                (total["spectral.spectral_summary"] / p, "s"),
            "spectral.splitting_table_s":
                (total["spectral.splitting_table"] / p, "s"),
            "io.canonical_json_s": (total["io.canonical_json"] / p, "s"),
        }
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = (self_by_layer[layer] / p, "s")
        return out
