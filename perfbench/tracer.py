"""Layer-boundary tracer that wraps subsat's functions from outside the package.

Each traced function is replaced, under every module attribute that holds
it, by a wrapper that records one span per call (one span per ``next()``
step for generator functions).  Spans live in flat arrays until the run
ends; self time is a span's duration minus the durations of the spans it
directly caused.  A function missing from the package is recorded as zero
calls, so the tracer keeps working when later versions rename or remove
internals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is defined and how to name its spans.

    ``span_name`` picks the span name from the call's arguments (default:
    ``name``); ``on_result`` turns a return value into named counts.
    """

    module: str
    attr: str
    name: str
    span_name: Optional[Callable] = None
    on_result: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts: dict[str, float] = {}
        self.deferred: list[tuple[str, Callable, object]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    # --- span recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name: str) -> int:
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def defer(self, name: str, fn: Callable, value) -> None:
        """Count ``fn(value)`` under ``name`` when the run ends, off the clock."""
        self.deferred.append((name, fn, value))

    # --- installing wrappers ------------------------------------------------

    def _wrap(self, target: Target, original):
        tracer = self
        pick = target.span_name or (lambda args, kwargs: target.name)
        on_result = target.on_result

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                steps = original(*args, **kwargs)
                if not tracer.enabled:
                    yield from steps
                    return
                name = pick(args, kwargs)
                tracer.count(name + ".calls")
                while True:
                    index = tracer.begin(name)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    tracer.count(name + ".items")
                    yield item

            return gen_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            name = pick(args, kwargs)
            tracer.count(name + ".calls")
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets: list[Target]) -> None:
        """Wrap every target under every ``subsat`` module name that holds it."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if (name == "subsat" or name.startswith("subsat.")) and m is not None
        ]
        for target in targets:
            home = sys.modules.get(target.module)
            original = getattr(home, target.attr, None) if home is not None else None
            if original is None or not callable(original):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        self.enabled = True

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
        self.enabled = False

    # --- aggregation --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls recorded as spans, inclusive and self seconds,
        plus the counts; also the number of spans by (parent name, child name)."""
        import numpy as np

        for name, fn, value in self.deferred:
            self.count(name, fn(value))
        self.deferred.clear()
        n = len(self.span_start)
        stats: dict[str, dict] = {}
        edges: dict[tuple[str, str], int] = {}
        if n:
            names = np.frombuffer(self.span_name, dtype=np.int32)
            start = np.frombuffer(self.span_start, dtype=np.float64)
            end = np.frombuffer(self.span_end, dtype=np.float64)
            parent = np.frombuffer(self.span_parent, dtype=np.int32)
            duration = end - start
            has_parent = parent >= 0
            child_time = np.bincount(
                parent[has_parent], weights=duration[has_parent], minlength=n
            )
            self_time = duration - child_time
            k = len(self.names)
            total = np.bincount(names, weights=duration, minlength=k)
            own = np.bincount(names, weights=self_time, minlength=k)
            spans = np.bincount(names, minlength=k)
            for ident, name in enumerate(self.names):
                stats[name] = {
                    "spans": int(spans[ident]),
                    "total_s": float(total[ident]),
                    "self_s": float(own[ident]),
                }
            pairs = np.stack([names[has_parent], names[parent[has_parent]]], axis=1)
            unique, counts = np.unique(pairs, axis=0, return_counts=True)
            for (child, par), c in zip(unique.tolist(), counts.tolist()):
                edges[(self.names[par], self.names[child])] = int(c)
        return {"spans": stats, "edges": edges, "counts": dict(self.counts),
                "missing": list(self.missing)}
