"""Span tracer that wraps the program's layers from outside.

``Tracer.install`` replaces the public functions and methods of each layer
module (and the sweep's per-cell task) with timing wrappers, in every
``streamfdr`` module namespace that holds them; ``uninstall`` puts the
originals back.  Each call records a span (layer, name, start, end, parent).
``step`` is called once per row, so its calls are only counted and timed in
aggregate, and every ``SAMPLE_EVERY``-th call samples the controller's live
rejection terms.  A span's self time is its duration minus the time of the
spans (and steps) it contains.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("gamma", "controllers", "metrics", "simulation", "forecaster", "cli")
SAMPLE_EVERY = 64

#: per-element accessors called from inside ``step``; their cost belongs to it
_SKIP = {("GammaSequence", "weight"), ("GammaSequence", "weights"),
         ("DecayedGammaSequence", "weight"),
         ("DecayedGammaSequence", "weights")}
#: private functions that mark a layer boundary: one sweep cell
_EXTRA = {"simulation": ("_sweep_task",)}


def _verify_name(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "scratch")
    return f"verify_oracle_and_surplus[{method}]"


_NAMERS = {"verify_oracle_and_surplus": _verify_name}
#: calls that report failure through their result instead of raising
_FAILED = {"main": lambda code: code != 0,
           "_sweep_task": lambda rows: any("error" in row for row in rows)}


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent, layer, name, start, end, self)
        self.stack = []            # open frames: [id, layer, name, start, child]
        self.errors = defaultdict(int)
        self.steps = 0
        self.step_s = 0.0
        self.sample_s = 0.0
        self.live_sum = 0
        self.live_samples = 0
        self.live_max = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        namer = _NAMERS.get(name)
        failed = _FAILED.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            frame = [len(tracer.spans) + len(tracer.stack), layer, label,
                     clock(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                tracer.stack.pop()
                duration = end - frame[3]
                parent = tracer.stack[-1] if tracer.stack else None
                if parent is not None:
                    parent[4] += duration
                tracer.spans.append((frame[0], parent[0] if parent else None,
                                     layer, label, frame[3], end,
                                     duration - frame[4]))
            if failed is not None and failed(result):
                tracer.errors[layer] += 1
            return result
        return traced

    def _wrap_step(self, fn, rejection_times):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def step(ctrl, p):
            start = clock()
            try:
                decision = fn(ctrl, p)
            except BaseException:
                tracer.errors["controllers"] += 1
                raise
            end = clock()
            tracer.steps += 1
            tracer.step_s += end - start
            if tracer.steps % SAMPLE_EVERY == 0:
                live = len(rejection_times(ctrl))
                tracer.live_sum += live
                tracer.live_samples += 1
                if live > tracer.live_max:
                    tracer.live_max = live
                sampled = clock()
                tracer.sample_s += sampled - end
                end = sampled
            if tracer.stack:
                tracer.stack[-1][4] += end - start
            return decision
        return step

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer of the ``streamfdr`` package."""
        modules = [importlib.import_module(f"streamfdr.{layer}")
                   for layer in LAYERS]
        namespaces = [m for n, m in sys.modules.items()
                      if n == "streamfdr" or n.startswith("streamfdr.")]
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    # private base classes hold public methods too
                    self._install_class(layer, obj)
                elif callable(obj) and (not name.startswith("_")
                                        or name in _EXTRA.get(layer, ())):
                    wrapped = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)

    def _install_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or (cls.__name__, attr) in _SKIP:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr,
                            type(value)(self._wrap(layer, name, value.__func__)))
            elif inspect.isfunction(value) and attr == "step":
                # sample with the unwrapped method, so sampling adds no span
                rejection_times = inspect.unwrap(cls.rejection_times)
                self._patch(cls, attr, self._wrap_step(value, rejection_times))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(layer, name, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def layer_self(self) -> dict:
        """Self seconds per layer, steps counted under controllers."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            out[span[2]] += span[6]
        out["controllers"] += self.step_s
        return out

    def by_name(self, name):
        return [s for s in self.spans if s[3] == name]

    def total(self, name) -> float:
        return sum(s[5] - s[4] for s in self.by_name(name))

    def self_time(self, name) -> float:
        return sum(s[6] for s in self.by_name(name))

    def covered(self) -> float:
        """Seconds inside root spans (spans without a parent)."""
        return sum(s[5] - s[4] for s in self.spans if s[1] is None)
