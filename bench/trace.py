"""Outside-in tracing: time the simulator's layers without touching it.

The tracer wraps public functions and methods of ``repro`` modules in
timed spans for the duration of one traced pass and restores every
wrapped attribute afterwards, so untraced passes run the original
code.  Nothing inside ``src/`` is instrumented.

* A function target is replaced at *every* ``repro.*`` module
  attribute bound to it: many call sites import functions by name
  (``transient``, ``dc_batch``, ...), and patching only the defining
  module would miss them.
* A method target is replaced on the class that defines it, so every
  instance (and subclass) picks up the wrapper.
* A target whose module, class or attribute is gone is skipped, and a
  layer with no target left is reported ``absent`` instead of
  crashing -- the simulator may delete code without the benchmark
  having to change.

Spans (name, start, end, parent) stay in memory; :func:`self_times`
reduces them and :func:`chrome_trace_events` exports them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set


@dataclass(frozen=True)
class Target:
    """One wrapped callable of a layer.

    Attributes:
        layer: span name, e.g. ``"bti.step"``.
        path: ``"module:function"`` or ``"module:Class.method"``.
        nbytes: for I/O layers, ``nbytes(args, kwargs)`` gives the bytes
            one call moved; it is evaluated after the span closes.
    """

    layer: str
    path: str
    nbytes: Optional[Callable[[tuple, dict], int]] = None


class Tracer:
    """In-memory span recorder with per-layer call and byte counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.calls: Counter = Counter()
        self.bytes: Counter = Counter()
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        """Start a span nested in the innermost open one."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one)."""
        self.ends[index] = self.clock()
        self._stack.pop()
        self.calls[self.names[index]] += 1

    def wrap(self, target: Target, function: Callable) -> Callable:
        """``function`` timed as a span of ``target.layer``."""
        name, nbytes = target.layer, target.nbytes

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            if nbytes is not None:
                self.bytes[name] += nbytes(args, kwargs)
            return result

        return traced


def _install(tracer: Tracer, target: Target, patches: list) -> bool:
    """Wrap one target; False when it no longer exists."""
    module_name, _, attr = target.path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name, None)
        if not isinstance(cls, type):
            return False
        owner = next((klass for klass in cls.__mro__
                      if method in vars(klass)), None)
        if owner is None:
            return False
        raw = vars(owner)[method]
        patches.append((owner, method, raw))
        setattr(owner, method, tracer.wrap(target, raw))
        return True
    original = getattr(module, attr, None)
    if not callable(original):
        return False
    wrapped = tracer.wrap(target, original)
    for name, bound_module in list(sys.modules.items()):
        if bound_module is None or not (
                name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(bound_module).items()):
            if value is original:
                patches.append((bound_module, key, original))
                setattr(bound_module, key, wrapped)
    return True


@contextlib.contextmanager
def traced(tracer: Tracer, targets: Sequence[Target]
           ) -> Iterator[Set[str]]:
    """Install every target for the ``with`` body, then restore.

    Yields the set of layers none of whose targets exist (``absent``).
    Wrapped attributes are restored in reverse order even when the
    body raises.
    """
    patches: list = []
    present: Set[str] = set()
    try:
        for target in targets:
            if _install(tracer, target, patches):
                present.add(target.layer)
        yield {target.layer for target in targets} - present
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def self_times(names: Sequence[str], starts: Sequence[float],
               ends: Sequence[float],
               parents: Sequence[int]) -> Dict[str, float]:
    """Per-name self time: span durations minus their child spans."""
    children = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent] += ends[index] - starts[index]
    totals: Dict[str, float] = {}
    for index, name in enumerate(names):
        own = ends[index] - starts[index] - children[index]
        totals[name] = totals.get(name, 0.0) + own
    return totals


def root_time(starts: Sequence[float], ends: Sequence[float],
              parents: Sequence[int]) -> float:
    """Total duration of the outermost spans (= sum of self times)."""
    return sum(end - start for start, end, parent
               in zip(starts, ends, parents) if parent < 0)


def chrome_trace_events(tracer: Tracer, origin: float,
                        label: str) -> List[dict]:
    """The spans as Chrome trace-event ``X`` records (microseconds)."""
    events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": label}}]
    for index, name in enumerate(tracer.names):
        events.append({
            "name": name, "ph": "X", "pid": 0, "tid": 0,
            "ts": (tracer.starts[index] - origin) * 1e6,
            "dur": (tracer.ends[index] - tracer.starts[index]) * 1e6,
            "args": {"parent": tracer.parents[index]}})
    return events


def file_size(args: tuple, kwargs: dict) -> int:
    """``nbytes`` of a call whose first argument is a file path."""
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)
