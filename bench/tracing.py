"""Spans around lpcompact's layers, recorded from outside the package.

The package imports functions by name (``from .spaces import weighted_norm``),
so a wrapper installed only in the defining module misses most calls.
``install`` therefore replaces every binding of a traced function across the
loaded ``lpcompact`` modules with one shared wrapper.  ``GridFunction`` is a
class that other code may test with ``isinstance``, so its ``__post_init__``
(the copy and finiteness check every construction pays) is wrapped instead.

Spans live in memory and are written once, when the traced process ends.
Only traced child processes call ``install``; untraced timings never run a
wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute).  The span name is the defining module
# without the package prefix, which is also the per-layer metric prefix.
TARGETS = (
    ("specfile.load_problem", "lpcompact.specfile", "load_problem"),
    ("moduli.bound_modulus", "lpcompact.moduli", "bound_modulus"),
    ("moduli.tail_modulus", "lpcompact.moduli", "tail_modulus"),
    ("moduli.translation_modulus", "lpcompact.moduli", "translation_modulus"),
    ("spaces.weighted_norm", "lpcompact.spaces", "weighted_norm"),
    ("netbuilder.select_tail_level", "lpcompact.netbuilder", "select_tail_level"),
    ("netbuilder.select_mesh", "lpcompact.netbuilder", "select_mesh"),
    ("netbuilder.null_cube_mask", "lpcompact.netbuilder", "null_cube_mask"),
    ("netbuilder.cube_witnesses", "lpcompact.netbuilder", "cube_witnesses"),
    ("netbuilder.cube_projection", "lpcompact.netbuilder", "cube_projection"),
    ("netbuilder.projection_error", "lpcompact.netbuilder", "projection_error"),
    ("netbuilder.quantize_net", "lpcompact.netbuilder", "quantize_net"),
    ("netbuilder.build_certificate", "lpcompact.netbuilder", "build_certificate"),
    ("netbuilder.validate_certificate", "lpcompact.netbuilder", "validate_certificate"),
    ("netbuilder.save_certificate", "lpcompact.netbuilder", "save_certificate"),
    ("netbuilder.load_certificate", "lpcompact.netbuilder", "load_certificate"),
    ("quasi.root_family", "lpcompact.quasi", "root_family"),
    ("quasi.quasi_certificate", "lpcompact.quasi", "quasi_certificate"),
    ("quasi.validate_quasi_certificate", "lpcompact.quasi", "validate_quasi_certificate"),
)
ROOT = "cli.main"
GRID_FUNCTION = "grid.GridFunction"


def _cells(args) -> int:
    """Cells held by the first argument: the function a norm reads, or the
    values a GridFunction is about to copy."""
    return int(np.size(args[0].values))


class Recorder:
    """In-memory spans of one operation: name, start, end, parent span id,
    operation id, and the cells the call touched (0 where not counted)."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, cells=None):
        """Wrap ``fn`` in a span; ``cells`` maps its positional arguments to a work count."""
        spans, stack, op = self.spans, self._stack, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, op, 0]
            spans.append(span)
            stack.append(sid)
            if cells is not None:
                span[5] = cells(args)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder) -> None:
    """Wrap every target at every binding site in the loaded package."""
    import lpcompact  # noqa: F401  (loads every submodule)
    from lpcompact.grid import GridFunction

    modules = [m for n, m in sys.modules.items() if n == "lpcompact" or n.startswith("lpcompact.")]
    for name, module, attr in TARGETS:
        original = getattr(sys.modules[module], attr)
        cells = _cells if name == "spaces.weighted_norm" else None
        wrapped = recorder.wrap(name, original, cells)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    GridFunction.__post_init__ = recorder.wrap(
        GRID_FUNCTION, GridFunction.__post_init__, _cells
    )


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and cells.

    Self time is a span's duration minus the durations of its direct children;
    one thread runs each operation, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _n in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for sid, (name, start, end, _parent, _op, cells) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "cells": 0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child_time[sid]
        t["cells"] += cells
    return totals


def merge_totals(*parts) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, t in part.items():
            o = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "cells": 0})
            for k in o:
                o[k] += t[k]
    return out
