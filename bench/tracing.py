"""Spans around the public entry points of each polydescent layer.

The tracer patches, from outside the program, every module-level name in
``polydescent.*`` and in the benchmark's ``workloads`` module that refers
to one of the entry points in ``TARGETS`` (and
``PulledBackObjective.__call__``), so calls are caught wherever the entry
point was imported.  Each call records a span: layer, start, end,
parent span and root span, plus a failure flag (an exception, or a ``None``
returned by the projection oracle).  Spans stay in flat arrays in memory
and are written out once the run ends.

A callback passed to ``descend`` (the CLI's CSV writer) runs as a span of
the layer that called ``descend``, so CSV writing counts as CLI work and not
as loop overhead.  Roots are the benchmark's own spans: ``setup``,
``probe``, ``input``, ``solve`` and ``check``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOTS = ("setup", "probe", "input", "solve", "check")
SCOPES = ("polydescent", "workloads")  # modules whose imported names are patched

# (layer, module, attribute) -- several entry points may share a layer
TARGETS = (
    ("polynomials.parse", "polydescent.polynomials", "parse_polynomial"),
    ("triangular.partition", "polydescent.triangular", "validate_triangular"),
    ("triangular.partition", "polydescent.triangular", "whitney_partition"),
    ("geometry.residuals", "polydescent.geometry", "residuals"),
    ("geometry.frame", "polydescent.geometry", "tangent_frame"),
    ("geometry.project", "polydescent.geometry", "project_to_manifold"),
    ("geometry.pullback", "polydescent.geometry", "PulledBackObjective.__call__"),
    ("geometry.lift", "polydescent.geometry", "lift"),
    ("geodesics.christoffel", "polydescent.geodesics", "christoffel"),
    ("geodesics.integrate", "polydescent.geodesics", "geodesic_integrate"),
    ("descent", "polydescent.descent", "descend"),
    ("cli.load_problem", "polydescent.cli", "load_problem"),
    ("cli", "polydescent.cli", "main"),
)

LAYERS = ROOTS + tuple(dict.fromkeys(t[0] for t in TARGETS))
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, layer_id: int) -> int:
        i = len(self.layer)
        stack = self._stack
        self.layer.append(layer_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else i)
        self.failed.append(0)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int, failed: bool):
        self.end[i] = perf_counter()
        self._stack.pop()
        if failed:
            self.failed[i] = 1

    @contextmanager
    def root_span(self, kind: str):
        """A benchmark-owned root span; yields its index."""
        i = self._open(LAYER_ID[kind])
        try:
            yield i
        finally:
            self._close(i, False)

    def _wrap(self, fn, layer_id: int, none_fails: bool):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(layer_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                close(i, True)
                raise
            close(i, none_fails and out is None)
            return out

        return traced

    def _wrap_descend(self, fn, layer_id: int):
        traced = self._wrap(fn, layer_id, False)
        open_, close, layer, stack = self._open, self._close, self.layer, self._stack

        @functools.wraps(fn)
        def traced_descend(problem, cfg, on_record=None):
            if on_record is None:
                return traced(problem, cfg)
            caller = layer[stack[-1]] if stack else LAYER_ID["solve"]

            def callback(rec):
                i = open_(caller)
                try:
                    on_record(rec)
                finally:
                    close(i, False)

            return traced(problem, cfg, callback)

        return traced_descend

    # -- patching ---------------------------------------------------------------

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] in SCOPES
        ]
        for layer, modname, attr in TARGETS:
            lid = LAYER_ID[layer]
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, lid, False))
                continue
            orig = getattr(owner, attr)
            if attr == "descend":
                wrapped = self._wrap_descend(orig, lid)
            else:
                wrapped = self._wrap(orig, lid, attr == "project_to_manifold")
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, orig, wrapped)

    def _patch(self, owner, name, orig, wrapped):
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, orig))

    def uninstall(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    # -- output -------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).astype(np.int64),
            "parent": parent,
            "root": np.frombuffer(self.root, dtype=np.int32).astype(np.int64),
            "start": start,
            "dur": dur,
            "self": dur - child,
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(bool),
        }

    def write(self, path):
        """All spans as CSV: id, layer, parent, root, start, end, failed."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,layer,parent,root,start_s,end_s,failed\n")
            for i in range(len(self.layer)):
                fh.write(
                    f"{i},{LAYERS[self.layer[i]]},{self.parent[i]},{self.root[i]},"
                    f"{self.start[i] - t0!r},{self.end[i] - t0!r},{self.failed[i]}\n"
                )
