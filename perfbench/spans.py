"""Span tracer that wraps bodywave's public functions from outside the package.

Each wrapped call records one span: name, start, end, parent span and task
id.  Self time (duration minus the time covered by direct child spans) and
work units (cells, points, nodes) are aggregated per span name as calls
return, so per-layer figures need no pass over the spans.  With
``record=True`` the spans themselves are kept in memory too and written out
once, at the end, by ``Tracer.save``.

Functions are wrapped where the caller looks them up (``harness.dirk_step``,
not ``rigidbody3d.dirk_step``), so a span is a call across a layer boundary.
Nothing inside ``src/`` changes; ``instrument`` restores every original on
exit.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from time import perf_counter

import numpy as np


def _size(i):
    """Work units = element count of positional argument i."""
    return lambda args, result: int(np.size(args[i]))


def _cells(args, result):
    return args[0].grid.n_cells


# ('module' or 'module:Class', attribute, span name, units(args, result) or None).
# The layer of a span is the part of its name before the first dot.
SITES = (
    ("bodywave.cli", "main", "cli.main", None),
    ("bodywave.cli", "run_mode", "harness.run_mode", None),
    ("bodywave.harness", "step_algorithm1", "coupling.step", None),
    ("bodywave.harness", "step_algorithm2", "coupling.step", None),
    ("bodywave.stability", "step_algorithm1", "coupling.step", None),
    ("bodywave.stability", "step_algorithm2", "coupling.step", None),
    ("bodywave.coupling", "upwind_step", "schemes.upwind", _cells),
    ("bodywave.coupling", "lax_wendroff_step", "schemes.lax_wendroff", _cells),
    ("bodywave.materials:FluidField1D", "to_characteristics", "materials.to_characteristics",
     lambda args, result: int(args[0].v.size)),
    ("bodywave.materials:FluidField1D", "from_characteristics", "materials.from_characteristics",
     _size(3)),
    ("bodywave.harness", "field_exact", "exact.field", _size(2)),
    ("bodywave.harness", "body_velocity_exact", "exact.body_velocity", _size(1)),
    # only reached from inside field_exact; its points are already counted there
    ("bodywave.exact", "body_velocity_exact", "exact.body_velocity_reflected", None),
    ("bodywave.harness", "count_unstable_modes", "stability.count_modes", None),
    ("bodywave.harness", "second_order_determinant", "stability.determinant", _size(0)),
    ("bodywave.harness", "empirical_growth_rate", "stability.growth", None),
    ("bodywave.harness", "sample_surface", "addedmass.sample", lambda args, result: len(result)),
    ("bodywave.harness", "added_mass_tensors", "addedmass.tensors", lambda args, result: len(args[0])),
    ("bodywave.harness", "dirk_step", "rigidbody3d.dirk_step", None),
)

LAYERS = ("materials", "schemes", "coupling", "exact", "stability",
          "addedmass", "rigidbody3d", "harness", "cli")


class Tracer:
    """Span stack plus per-name totals: calls, units, duration, self time."""

    def __init__(self, record: bool = False):
        self.record = record
        self.task = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.totals: dict[str, list] = {}  # name -> [calls, units, dur_s, self_s]
        self._stack: list[list] = []        # [span index, child time]
        self.cols = {k: array(t) for k, t in
                     (("name", "l"), ("start", "d"), ("end", "d"), ("parent", "l"), ("task", "l"))}

    def wrap(self, name: str, fn, units=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, cols = self._stack, self.cols

        def traced(*args, **kwargs):
            idx = -1
            if self.record:
                idx = len(cols["name"])
                cols["name"].append(nid)
                cols["parent"].append(stack[-1][0] if stack else -1)
                cols["task"].append(self.task)
                cols["start"].append(0.0)
                cols["end"].append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tot = self.totals.setdefault(name, [0, 0, 0.0, 0.0])
                tot[0] += 1
                if units is not None and result is not None:
                    tot[1] += units(args, result)
                tot[2] += dur
                tot[3] += dur - frame[1]
                if idx >= 0:
                    cols["start"][idx] = t0
                    cols["end"][idx] = t1

        return traced

    def save(self, path) -> None:
        """Write the recorded spans (times in perf_counter seconds)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.cols.items()},
        )


def _resolve(owner: str):
    """'pkg.module' or 'pkg.module:Class' -> the module or class object."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers at every site in SITES; undo on exit."""
    saved = []
    try:
        for owner, attr, name, units in SITES:
            obj = _resolve(owner)
            raw = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            saved.append((obj, attr, raw))
            if isinstance(raw, classmethod):
                setattr(obj, attr, classmethod(tracer.wrap(name, raw.__func__, units)))
            else:
                setattr(obj, attr, tracer.wrap(name, raw, units))
        yield tracer
    finally:
        for obj, attr, raw in reversed(saved):
            setattr(obj, attr, raw)
