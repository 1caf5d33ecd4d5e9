"""In-memory span tracing by wrapping the program's public functions.

A :class:`Tracer` replaces each target function at every ``tailbias`` module
that binds it (``from .losses import biased_ce`` makes a second binding in
``tailbias.harness``), records one span per call, and puts the original
objects back when tracing ends, so untraced code runs the unpatched program.
Calls made through module globals at run time (the ``make_loss_fn`` lambdas,
``biased_ce`` calling ``ce``) therefore pass through the wrappers too.

Spans live in flat arrays (name id, start, end, parent, amount) so that a
long traced run stays small in memory; ``amount`` holds the one quantity a
probe reads from the call, such as the rows of a loss call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

Probe = Callable[[tuple, dict, object], float]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Spans of one thread nest, so the children of a span never overlap and
    their summed durations are the part of its interval they cover.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def roots(parent) -> np.ndarray:
    """Index of each span's root; parents are recorded before their children."""
    parent = np.asarray(parent, dtype=np.int64)
    root = np.arange(parent.shape[0])
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            root[i] = root[p]
    return root


def has_ancestor(parent, flagged) -> np.ndarray:
    """Whether some strict ancestor of each span is flagged.

    Parents are recorded before their children, so one pass in index order
    settles every span.
    """
    parent = np.asarray(parent, dtype=np.int64)
    flagged = np.asarray(flagged, dtype=bool)
    inside = np.zeros(parent.shape[0], dtype=bool)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] or flagged[p]
    return inside


def arg_reader(fn: Callable, param: str) -> Callable[[tuple, dict], object]:
    """Read the argument bound to ``param`` from a call's ``args``/``kwargs``."""
    names = list(inspect.signature(fn).parameters)
    pos = names.index(param)

    def read(args: tuple, kwargs: dict):
        return args[pos] if len(args) > pos else kwargs.get(param)

    return read


def tailbias_modules() -> list:
    """Every module of the ``tailbias`` package, imported."""
    import tailbias

    names = [f"tailbias.{m.name}" for m in pkgutil.iter_modules(tailbias.__path__)]
    return [tailbias] + [importlib.import_module(n) for n in sorted(names)]


class Tracer:
    """Records spans for calls to ``targets`` while :meth:`installed` is active.

    ``targets`` maps a span name such as ``"losses.ce"`` (module path under
    ``tailbias`` plus function name) to an optional probe.
    """

    def __init__(self, targets: dict[str, Probe | None], clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("i")
        self.amount = array("d")
        self._stack: list[int] = []
        self._targets = targets
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, sid: int) -> int:
        i = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def _wrap(self, fn: Callable, sid: int, probe: Probe | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if probe is not None:
                self.amount[i] = probe(args, kwargs, result)
            return result

        return traced

    def span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        i = self._open(self.span_id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every binding of every target, and restore them on exit."""
        modules = tailbias_modules()
        originals = {}
        for name, probe in self._targets.items():
            mod_name, func = name.rsplit(".", 1)
            fn = getattr(sys.modules[f"tailbias.{mod_name}"], func)
            originals[id(fn)] = (fn, self._wrap(fn, self.span_id(name), probe))
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            yield self
        finally:
            while self._patched:
                mod, attr, value = self._patched.pop()
                setattr(mod, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
        }
