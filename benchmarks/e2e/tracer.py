"""Outside-in span tracer for the traced repetition.

The benchmark may not edit the program, so layer boundaries are recorded
from here: :meth:`Tracer.install` ``setattr``-wraps each ``module:attr``
target of a lane table, every call becomes a span (lane, start, end,
parent), and everything is restored in ``finally``.

Self time of a span is its duration minus the time its child spans
cover, so the self times of all spans sum to the root span's duration by
construction — there is one busy thread and spans nest strictly.

Each lane stores its first ``span_cap`` spans; later calls only update the
per-(lane, parent lane) aggregate, which is what bounds memory and cost on
the per-request lanes. A per-event callable can be *counted* instead of
timed: its calls become the lane's ``calls`` while the loop that makes them
is the lane's span, which costs a fifth of a span per event.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

ROOT_LANE = "cli"

#: ``(name, (args, kwargs, result) -> amount)``: added to the named counter
#: on every call of the target it is attached to.
Counter = Tuple[str, Callable[[tuple, dict, object], float]]


class Tracer:
    def __init__(self, span_cap: int = 1000) -> None:
        self.span_cap = span_cap
        #: lane -> parent lane -> [calls, self_s, total_s]
        self.cells: Dict[str, Dict[str, List[float]]] = {}
        #: lane -> [calls of its count-only targets]
        self.counted: Dict[str, List[int]] = {}
        #: stored spans: (id, parent id, lane, start, end); the parent is
        #: the nearest enclosing span that was itself stored (0 = root).
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.counters: Dict[str, float] = {}
        #: targets not wrapped -> reason (unresolvable or refused).
        self.missing: Dict[str, str] = {}
        #: counters whose count function raised -> the error.
        self.broken_counters: Dict[str, str] = {}
        self.root_s = 0.0
        self._stack: List[list] = []  # frames: [lane, child_s, stored span id]
        self._span_budget: Dict[str, List[int]] = {}  # lane -> [spans left]
        self._ids = [1]  # next span id
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- installing ----------------------------------------------------------
    def install(
        self,
        lanes: Dict[str, Iterable[str]],
        counters: Optional[Dict[str, List[Counter]]] = None,
        counted: Optional[Dict[str, Iterable[str]]] = None,
    ) -> None:
        """Wrap every target: ``lanes`` as spans, ``counted`` as bare call
        counts. A target that does not resolve or is refused lands in
        :attr:`missing` instead of raising."""
        counters = counters or {}
        for lane, targets in lanes.items():
            self.cells.setdefault(lane, {})
            for target in targets:
                counts = counters.get(target, ())
                for name, _ in counts:
                    self.counters.setdefault(name, 0.0)
                self._try_wrap(
                    target, lambda fn: self._span_wrapper(lane, fn, counts))
        for lane, targets in (counted or {}).items():
            cell = self.counted.setdefault(lane, [0])
            for target in targets:
                self._try_wrap(target, lambda fn: _count_wrapper(cell, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def root(self):
        """The root ``cli`` span; wrappers may only run inside it."""
        frame = [ROOT_LANE, 0.0, 0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.root_s += t1 - t0
            cell = self.cells.setdefault(ROOT_LANE, {}).setdefault(
                "", [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += (t1 - t0) - frame[1]
            cell[2] += t1 - t0
            self.spans.append((0, -1, ROOT_LANE, t0, t1))

    @contextlib.contextmanager
    def tracing(self, lanes, counters=None, counted=None):
        """Install, open the root span, and always restore."""
        try:
            self.install(lanes, counters, counted)
            with self.root():
                yield self
        finally:
            self.restore()

    # -- results -------------------------------------------------------------
    def lane_stats(self) -> Dict[str, Dict[str, float]]:
        """lane -> {calls, self_s, total_s}, summed over parent lanes."""
        out = {}
        for lane, by_parent in self.cells.items():
            cells = list(by_parent.values())
            out[lane] = {
                "calls": (self.counted[lane][0] if lane in self.counted
                          else int(sum(c[0] for c in cells))),
                "self_s": sum(c[1] for c in cells),
                "total_s": sum(c[2] for c in cells),
            }
        return out

    def as_dict(self) -> dict:
        """Everything recorded, for ``--trace-out``."""
        return {
            "root_s": self.root_s,
            "span_cap": self.span_cap,
            "spans": [
                {"id": i, "parent": p, "lane": lane, "start": t0, "end": t1}
                for i, p, lane, t0, t1 in self.spans
            ],
            "aggregates": [
                {"lane": lane, "parent": parent, "calls": int(c[0]),
                 "self_s": c[1], "total_s": c[2]}
                for lane, by_parent in self.cells.items()
                for parent, c in by_parent.items()
            ],
            "counted": {lane: c[0] for lane, c in self.counted.items()},
            "counters": dict(self.counters),
            "missing": dict(self.missing),
            "broken_counters": dict(self.broken_counters),
        }

    # -- wrapping ------------------------------------------------------------
    def _try_wrap(self, target: str, make_wrapper) -> None:
        try:
            self._wrap_target(target, make_wrapper)
        except (LookupError, TypeError) as exc:
            self.missing[target] = str(exc)

    def _wrap_target(self, target: str, make_wrapper) -> None:
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            raise LookupError(f"cannot import {module_name}: {exc}") from exc
        *parents, attr = path.split(".")
        for depth, part in enumerate([*parents, attr]):
            if not hasattr(owner, part):
                raise LookupError(f"{target}: no attribute {part}")
            if depth < len(parents):
                owner = getattr(owner, part)
        if parents:
            if not inspect.isclass(owner):
                raise TypeError(f"{target}: {parents[-1]} is not a class")
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(make_wrapper(_checked(raw.__func__)))
            else:
                wrapped = make_wrapper(_checked(raw))
            self._patch(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make_wrapper(_checked(original))
        # A module function is called through whatever name its callers
        # bound at import time, so patch every loaded sibling module that
        # holds the same object, not only the defining one.
        package = module_name.partition(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or (name != package
                               and not name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        had = attr in vars(owner)  # False: inherited, so restoring deletes
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, wrapped)

    def _span_wrapper(self, lane, fn, counts):
        stack = self._stack
        cells = self.cells[lane]
        spans = self.spans
        ids = self._ids
        budget = self._span_budget.setdefault(lane, [self.span_cap])
        counters = self.counters
        broken = self.broken_counters
        clock = time.perf_counter

        # One flat body: this runs once per request on the hot lanes, so
        # helper calls here would be most of the tracing overhead.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if budget[0] > 0:
                budget[0] -= 1
                span_id = ids[0]
                ids[0] = span_id + 1
                frame = [lane, 0.0, span_id]
            else:
                span_id = 0
                frame = [lane, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                for name, count in counts:
                    try:
                        counters[name] += count(args, kwargs, result)
                    except Exception as exc:  # program internals moved
                        broken[name] = repr(exc)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                cell = cells.get(parent[0])
                if cell is None:
                    cell = cells[parent[0]] = [0, 0.0, 0.0]
                cell[0] += 1
                cell[1] += dur - frame[1]
                cell[2] += dur
                if span_id:
                    spans.append((span_id, parent[2], lane, t0, t1))

        return wrapper


def _checked(fn):
    """``fn`` if a call to it can be bracketed by a span."""
    if not inspect.isroutine(fn):
        raise TypeError(f"{fn!r} is a {type(fn).__name__}, not a function")
    if (inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn)
            or inspect.isasyncgenfunction(fn)):
        # Its body runs after the call returns, interleaved with other
        # spans, so a span around the call would time nothing.
        raise TypeError(f"{fn.__qualname__} is a generator function")
    return fn


def _count_wrapper(cell: List[int], fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper
