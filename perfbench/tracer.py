"""Spans around every call into the library's public module-level functions.

The tracer wraps each public function of the pipeline modules and patches
the wrapper into every flatconn module that holds the function under its own
name (``theorems.is_normal_subgroup``, ``bundles.is_covering_map``, ...), so
calls between modules are traced as well as the benchmark's own calls.
Methods are never wrapped, so hot inner loops such as
``CosetAutomaton.trace`` run at full speed; neither are the few leaf helpers
listed in ``UNTRACED`` that run once per group-table cell.

Each span records its name, start, end, parent span and instance id in
memory.  Counters record output sizes at the same boundaries.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = (
    "groups",
    "complexes",
    "subgroups",
    "connections",
    "covers",
    "bundles",
    "theorems",
    "corpus",
    "io",
)
UNTRACED = {"groups.compose_perms", "groups.invert_perm", "groups.is_permutation", "groups.cycle_label"}
SETUP = -1  # instance id of spans recorded outside any instance


def _count_letters(tracer, args, result):
    tracer.count("subgroups.stallings_core.letters", sum(len(w) for w in args[0]))


def _count_cover(tracer, args, result):
    tracer.count("covers.cover.vertices", result.total.vertex_count)
    tracer.count("covers.cover.edges", len(result.total.edges))


def _count_bundle(tracer, args, result):
    tracer.count("bundles.bundle.vertices", result.graph.vertex_count)
    tracer.count("bundles.bundle.edges", len(result.graph.edges))
    tracer.count("bundles.components", len(result.components))


def _count_automaton(tracer, args, result):
    tracer.count("subgroups.automaton.states", result.state_count)


def _note_normality_input(tracer, args, result):
    tracer.normality_inputs.add((tracer.instance, id(args[0])))


HOOKS = {
    "subgroups.stallings_core": _count_letters,
    "subgroups.automaton_from_spec": _count_automaton,
    "covers.build_cover": _count_cover,
    "bundles.derived_bundle": _count_bundle,
    "subgroups.is_normal_subgroup": _note_normality_input,
}


class Tracer:
    """Patches the library while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.instances: list[int] = []
        self.counters: dict = defaultdict(int)  # (instance, name) -> count
        self.normality_inputs: set = set()
        self.instance = SETUP
        self._stack: list[int] = []
        self._patches: list = []

    def count(self, name: str, value: int) -> None:
        self.counters[(self.instance, name)] += value

    def _wrap(self, qualname: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, instances, stack = self.parents, self.instances, self._stack
        hook = HOOKS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(qualname)
            parents.append(stack[-1] if stack else -1)
            instances.append(tracer.instance)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"flatconn.{layer}")
            for name, obj in vars(mod).items():
                qualname = f"{layer}.{name}"
                if (
                    isinstance(obj, FunctionType)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and qualname not in UNTRACED
                ):
                    wrappers[id(obj)] = self._wrap(qualname, obj)
        modules = [m for name, m in sys.modules.items() if name == "flatconn" or name.startswith("flatconn.")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()
        return False

    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def summary(self) -> tuple[dict, dict, dict]:
        """(self seconds by span name, calls by span name, counters by name)."""
        seconds: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for name, own in zip(self.names, self.self_times()):
            seconds[name] += own
            calls[name] += 1
        totals: dict = defaultdict(int)
        for (_, name), value in self.counters.items():
            totals[name] += value
        return seconds, calls, totals

    def write(self, spans_path, sizes_path) -> None:
        """Spans as gzipped CSV, and the per-instance size counters as CSV."""
        with gzip.open(spans_path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "parent", "instance", "name", "start_s", "end_s"))
            for idx, row in enumerate(zip(self.parents, self.instances, self.names, self.starts, self.ends)):
                out.writerow((idx,) + row)
        with open(sizes_path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("instance", "counter", "value"))
            for (instance, name), value in sorted(self.counters.items()):
                out.writerow((instance, name, value))
