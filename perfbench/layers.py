"""Per-layer attribution for the traced run, installed from outside the program.

A layer is a package under ``src/repro/``.  :class:`LayerTracer` wraps
every function and method that a layer's modules define.  A call that
enters a layer from another one (or from the benchmark) opens a span and
counts as one ``calls`` of that layer; a call within the same layer goes
straight through.  Self time is kept by charging the host clock, at each
span boundary, to the layer on top of the span stack, which is the same as
each span's duration minus its child spans.

Two hazards of wrapping from outside are handled here:

* A name bound at import time elsewhere (``from repro.util.sizing import
  payload_nbytes`` inside ``repro.core.messages``) keeps the original
  function, so every ``repro`` module's globals are rebound to the wrapper
  as well.
* The kernel arms its fast lanes only when a balancer's hooks *are* the
  ``Balancer`` base methods.  Only attributes in a class's own
  ``__dict__`` are wrapped, so an inherited hook still resolves to the
  one (wrapped) base function and the identity test keeps its answer.

The harness's app registry (``repro.bench.harness.APPS``) captured each
runner at import time; its entries are replaced by copies that hold the
wrapped runner.  Generator functions and properties are left alone; their
own time is charged to their caller's layer.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["LAYERS", "LayerTracer"]

LAYERS = ("sim", "core", "queueing", "balance", "sharing", "quiescence",
          "machine", "util", "apps", "faults", "workloads", "trace",
          "metrics", "obs", "bench")

#: Dunder methods worth a span (construction and calls); the rest are
#: cheap protocol hooks whose time stays with the caller.
_DUNDERS = ("__init__", "__call__")


def _layer_modules(layer: str) -> List[Any]:
    pkg = importlib.import_module(f"repro.{layer}")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, f"repro.{layer}."):
        if not info.name.endswith("__main__"):
            mods.append(importlib.import_module(info.name))
    return mods


class LayerTracer:
    """Self time and inbound call counts per layer, for one traced region."""

    def __init__(self) -> None:
        n = len(LAYERS) + 1  # the last slot is the benchmark's own code
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self._stack = [len(LAYERS)]
        self._last = [0.0]
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- wrapping
    def _wrap(self, fn: Callable, layer: int) -> Callable:
        stack, last, self_s, calls = (self._stack, self._last, self.self_s,
                                      self.calls)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            now = clock()
            self_s[stack[-1]] += now - last[0]
            last[0] = now
            calls[layer] += 1
            stack.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[layer] += now - last[0]
                last[0] = now
                stack.pop()

        return span

    @staticmethod
    def _assign(owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)

    def _set(self, owner: Any, name: str, new: Any, old: Any) -> None:
        self._assign(owner, name, new)
        self._undo.append((owner, name, old))

    def install(self) -> None:
        """Wrap every layer's functions; undone by :meth:`uninstall`."""
        wrapped: Dict[int, Callable] = {}  # id(original) -> wrapper
        originals: Dict[int, Any] = {}
        for index, layer in enumerate(LAYERS):
            for mod in _layer_modules(layer):
                for name, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isclass(obj):
                        self._wrap_class(obj, index, wrapped, originals)
                    elif self._wrappable(obj):
                        new = wrapped.setdefault(id(obj), self._wrap(obj, index))
                        originals[id(obj)] = obj
                        self._set(mod, name, new, obj)
        # Rebind names other repro modules imported before wrapping.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for name, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None and originals[id(obj)] is obj:
                    self._set(mod, name, new, obj)
        # The harness calls each app through the runner its registry holds.
        from repro.bench.harness import APPS

        apps = LAYERS.index("apps")
        for name, spec in list(APPS.items()):
            new = (wrapped.get(id(spec.runner))
                   or self._wrap(spec.runner, apps))
            self._set(APPS, name, dataclasses.replace(spec, runner=new), spec)

    @staticmethod
    def _wrappable(obj: Any) -> bool:
        return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)

    def _wrap_class(self, cls: type, layer: int, wrapped: Dict[int, Callable],
                    originals: Dict[int, Any]) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _DUNDERS:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                if self._wrappable(fn):
                    self._set(cls, name, type(attr)(self._wrap(fn, layer)), attr)
            elif self._wrappable(attr):
                new = self._wrap(attr, layer)
                wrapped[id(attr)] = new
                originals[id(attr)] = attr
                self._set(cls, name, new, attr)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            self._assign(owner, name, old)
        self._undo.clear()

    # --------------------------------------------------------------- region
    def start(self) -> None:
        self._last[0] = time.perf_counter()

    def stop(self) -> None:
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last[0]
        self._last[0] = now

    def report(self) -> Dict[str, Tuple[float, int]]:
        """``layer -> (self seconds, inbound calls)``."""
        return {layer: (self.self_s[i], self.calls[i])
                for i, layer in enumerate(LAYERS)}
