"""Spans around calls into chowkit's layers, recorded from outside the package.

The layers are the package's modules.  :class:`Tracer` replaces every public
module-level function in each layer's namespace with a wrapper, both where
it is defined and where another module imported it, so a call is seen
however it is reached.  A wrapper records a span only when the call enters
a layer from outside it: a call made while the innermost open span belongs
to the same layer runs straight through.  Spans live in flat arrays until
the tracer is closed, then can be written out in one pass.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "catalog", "monads", "resolutions", "bounds", "splitting", "chow")


class Tracer:
    """One span per call into a layer: name, start, end and parent span."""

    def __init__(self, record_args: tuple[str, ...] = ()) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        # per recorded function: (args, sorted kwargs) -> number of spans
        self.args: dict[str, Counter] = {name: Counter() for name in record_args}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._layers: list[int] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"chowkit.{layer}") for layer in LAYERS}
        layer_of = {f"chowkit.{layer}": i for i, layer in enumerate(LAYERS)}
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, layer: int):
        name = f"{LAYERS[layer]}.{fn.__name__}"
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        fns, starts, ends, parents = self.fn, self.start, self.end, self.parent
        stack, layers = self._stack, self._layers
        counter = self.args.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            if counter is not None:
                counter[args, tuple(sorted(kwargs.items()))] += 1
            index = len(fns)
            fns.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            layers.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                layers.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- aggregation --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.fn)

    def function_stats(self) -> dict[str, tuple[float, int]]:
        """Busy seconds and call count per traced function."""
        busy = [0] * len(self.names)
        calls = [0] * len(self.names)
        for f, s, e in zip(self.fn, self.start, self.end):
            busy[f] += e - s
            calls[f] += 1
        return {n: (busy[i] / 1e9, calls[i]) for i, n in enumerate(self.names) if calls[i]}

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: busy time (outermost spans), self time and call count.

        A span's self time is its duration minus its child spans'.  Busy
        time counts a span only when no ancestor belongs to the same layer,
        so nested entries into one layer are not counted twice.
        """
        n = len(self.fn)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        mask = [0] * n
        layer = [self.name_layer[f] for f in self.fn]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
                mask[i] = mask[p] | (1 << layer[p])
        stats = {name: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for name in LAYERS}
        for i in range(n):
            entry = stats[LAYERS[layer[i]]]
            entry["calls"] += 1
            entry["self_s"] += (dur[i] - child[i]) / 1e9
            if not (mask[i] >> layer[i]) & 1:
                entry["busy_s"] += dur[i] / 1e9
        return stats

    def root_seconds(self) -> float:
        """Time covered by spans opened outside every other span."""
        return sum(e - s for p, s, e in zip(self.parent, self.start, self.end) if p < 0) / 1e9

    def write(self, path: Path, label: str, mode: str = "at") -> None:
        """Append the spans as CSV rows: replay, name, start_ns, end_ns, parent."""
        with gzip.open(path, mode, compresslevel=1, encoding="ascii") as out:
            if mode.startswith("w"):
                out.write("replay,name,start_ns,end_ns,parent\n")
            names = self.names
            for f, s, e, p in zip(self.fn, self.start, self.end, self.parent):
                out.write(f"{label},{names[f]},{s},{e},{p}\n")
