"""Spans and counts recorded around the program's public functions.

Nothing inside the package is edited: `instrument` replaces, for the
duration of a `with` block, every reference the package's modules hold to a
public function of `cli`, `scenario_io` and `engine` with a timing wrapper,
and, on request, to a public function of the physics modules with a
counting wrapper (wrapping distorts their time more than it measures it).
It also times the YAML load and file write of the CLI and counts scipy ODE
solver constructions and steps. Spans live in memory until `dump` writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pathlib
import sys
import time
from array import array
from collections import Counter
from typing import Dict

import numpy as np

TIMED_MODULES = ("cli", "scenario_io", "engine")
COUNTED_MODULES = ("state", "rheology", "hydraulics", "smc", "energetics")


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    def __init__(self):
        self.names = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.run_id = 0
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def arrays(self) -> Dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run": np.frombuffer(self.run, dtype=np.int32)}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        total = np.bincount(a["name_id"], weights=duration, minlength=n)
        self_s = np.bincount(a["name_id"], weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def dump(self, path: pathlib.Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time covered by its direct children.

    Spans come from one thread and a call stack, so the children of a span
    never overlap and the covered time is the sum of their durations.
    """
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent, int)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


class _Proxy:
    """A module stand-in that overrides some attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


@contextlib.contextmanager
def instrument(tracer: Tracer, kernels: bool = False):
    """Route the package's calls through `tracer` inside the block.

    The physics-module counters are installed only with `kernels`, because
    their wrappers, called some twenty times per RHS evaluation, would
    inflate the times of the spans around them.
    """
    from scipy.integrate import OdeSolver

    wrappers = {}
    for short in TIMED_MODULES + (COUNTED_MODULES if kernels else ()):
        module = importlib.import_module(f"blowdown.{short}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            wrappers[obj] = (tracer.timed(f"{short}.{name}", obj)
                             if short in TIMED_MODULES else
                             tracer.counted(f"kernels.{short}.calls", obj))

    # (owner, attribute, original, replacement)
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "blowdown" or module_name.startswith("blowdown."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((module, attr, value, wrappers[value]))

    cli = importlib.import_module("blowdown.cli")
    yaml, write_text = cli.yaml, pathlib.Path.write_text
    patches += [
        (cli, "yaml", yaml, _Proxy(
            yaml, safe_load=tracer.timed("cli.yaml_load", yaml.safe_load))),
        (pathlib.Path, "write_text", write_text,
         tracer.timed("cli.write", write_text)),
        (OdeSolver, "__init__", OdeSolver.__init__,
         tracer.counted("solver.constructions", OdeSolver.__init__)),
        (OdeSolver, "step", OdeSolver.step,
         tracer.counted("solver.steps", OdeSolver.step)),
    ]
    try:
        for owner, attr, _, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)
