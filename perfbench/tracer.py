"""Spans around the public functions of every kinnet module, from outside.

`from .operators import assemble_gain` copies the function into the
importing module, so `spectral.assemble_gain` and `operators.assemble_gain`
are separate bindings; the tracer replaces every binding of a public
function in every kinnet module and names the span after the module that
defines the function. `Scenario.engine` is wrapped on the class. Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

MODULES = ("model", "operators", "delayquad", "spectral", "simulator",
           "analysis", "cli", "presets")

RUN = "simulator.run"


def _scenario_attrs(scenario) -> dict:
    return {"n_steps": scenario.n_steps, "k": scenario.grid.k,
            "m_base": min(scenario.m_cells)}


class Tracer:
    """Install with `install()`, remove with `uninstall()`; `spans` holds
    [name, start, end, parent index, child time, attrs, own index] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        attrs_of = _scenario_attrs if name == RUN else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args[0]) if attrs_of is not None else None
            parent = stack[-1][6] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0, attrs, len(spans)]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[2] = end
                if stack:
                    stack[-1][4] += end - span[1]
        return traced

    def install(self) -> None:
        import kinnet
        modules = [importlib.import_module(f"kinnet.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for mod in [kinnet, *modules]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("kinnet."):
                    continue
                if id(obj) not in wrapped:
                    name = obj.__module__[len("kinnet."):] + "." + obj.__name__
                    wrapped[id(obj)] = self._wrap(obj, name)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        scenario = importlib.import_module("kinnet.simulator").Scenario
        self._patches.append((scenario, "engine", scenario.engine))
        scenario.engine = self._wrap(scenario.engine, "simulator.engine")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------
    def totals(self) -> dict[str, dict]:
        """Calls and self time per span name."""
        out: dict[str, dict] = {}
        for name, start, end, _, child, _, _ in self.spans:
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            t["calls"] += 1
            t["self_s"] += end - start - child
            t["total_s"] += end - start
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` made while a call of `ancestor` was open."""
        spans = self.spans
        count = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = spans[parent][3]
        return count

    def us_per_step(self, m_base: int, k: int) -> float:
        """Self time of simulator.run per step at one resolution, in us."""
        seconds, steps = 0.0, 0
        for name, start, end, _, child, attrs, _ in self.spans:
            if name == RUN and attrs["m_base"] == m_base and attrs["k"] == k:
                seconds += end - start - child
                steps += attrs["n_steps"]
        return 1e6 * seconds / steps if steps else float("nan")

    def write(self, path) -> None:
        """Aggregates, then one JSON line per span, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"totals": self.totals()}) + "\n")
            for name, start, end, parent, child, attrs, index in self.spans:
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "self_s": end - start - child,
                                     "attrs": attrs}) + "\n")
