"""In-memory span tracing of pinquad's layers, from outside the package.

``Tracer.install`` replaces every public function of a layer module wherever
it is bound (in its own module, in the modules that import it, and in the
package namespace) with a wrapper that records a span: layer, name, start,
end and the index of the enclosing span.  Dataclass validation
(``__post_init__``) and the q-null search methods are wrapped on their
classes.  ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time spent inside the
package, and the rest of the traced wall time is the benchmark's own.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from types import ModuleType
from typing import Any, Callable

LAYERS = ("f2", "forms", "brown", "vanishing", "fourmanifold", "cli")
SEARCH_METHODS = {"_NullSearch": ("exists", "collect")}


def _classes_tabulated(args, result) -> tuple[str, int]:
    return "forms.classes_tabulated", 1 << args[0].form.dim


def _classes_counted(args, result) -> tuple[str, int]:
    return "brown.classes_counted", 1 << args[0].form.dim


# work counted at a span boundary: (layer, name) -> counter(args, result)
COUNTERS: dict[tuple[str, str], Callable[[tuple, Any], tuple[str, int]]] = {
    ("forms", "value_table"): _classes_tabulated,
    ("brown", "gauss_sum"): _classes_counted,
    ("vanishing", "_NullSearch.exists"): lambda a, r: ("vanishing.decisions", 1),
    ("vanishing", "vanishing_subspaces"): lambda a, r: ("vanishing.subspaces_listed", len(r)),
    ("fourmanifold", "UnimodularForm.__post_init__"): lambda a, r: ("fourmanifold.forms_built", 1),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, start_ns, end_ns, parent]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get((layer, name))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [layer, name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                key, k = counter(args, result)
                counts[key] += k
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: ModuleType) -> None:
        layer_of = {f"{package.__name__}.{l}": l for l in LAYERS}
        mods = [package] + [importlib.import_module(m) for m in layer_of]
        wrappers: dict[Any, Callable] = {}
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                layer = layer_of.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj, layer, obj.__name__)
                    self._set(mod, name, wrappers[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth in ("__post_init__",) + SEARCH_METHODS.get(name, ()):
                        if inspect.isfunction(vars(obj).get(meth)):
                            self._set(obj, meth, self._wrap(vars(obj)[meth], layer, f"{name}.{meth}"))

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def rollup(self, wall_ns: int) -> dict[str, float]:
        """Per-layer calls, self time and share of the traced wall time."""
        child_ns = [0] * len(self.spans)
        top_ns = 0
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                top_ns += end - start
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6
            out[f"{layer}.self_share"] = self_ns[layer] / wall_ns
        out["bench.self_ms"] = (wall_ns - top_ns) / 1e6
        out["bench.self_share"] = (wall_ns - top_ns) / wall_ns
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": i, "layer": l, "name": n, "start_ns": s, "end_ns": e, "parent": p}
            for i, (l, n, s, e, p) in enumerate(self.spans)
        ]
