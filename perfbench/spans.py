"""In-memory span tracing around the library's public functions.

The traced run installs a wrapper at the attribute each caller looks a
function up by (a module global bound by ``from .x import f``, or a class
attribute for methods), so no library file changes. A target that no
longer exists is recorded as absent and skipped: a later change may rename
or remove any of them without breaking the run.

Spans stay in memory until the run ends. Every span of one op carries that
op's id, and each op has a root span, so a span's self time (its duration
minus the time covered by its children) partitions the op's wall time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

ROOT = "trace.unattributed"  # the op's root span: time no wrapped function covers

# What a counter function may raise when the library changes shape under it.
_DRIFT_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


@dataclass(frozen=True)
class Wrap:
    """One wrap site.

    ``target`` is ``"module:attr.path"``. ``counters`` maps a call's
    ``(args, kwargs, result)`` to named amounts, summed per op.
    """

    target: str
    span: str
    counters: Callable | None = None


class Tracer:
    def __init__(self):
        # (op_id, span_id, parent_id, name, start_ns, end_ns)
        self.spans: list[tuple] = []
        self.counters: dict[tuple, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._op = None

    @contextmanager
    def recording(self, op_id, wraps):
        """Install ``wraps``, record one op under ``op_id``, then restore."""
        restore = [entry for w in wraps if (entry := self._install(w)) is not None]
        self._op = op_id
        root = self._next_id
        self._next_id += 1
        self._stack.append(root)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._end(root, None, ROOT, start)
            self._op = None
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def _install(self, wrap: Wrap):
        module_name, _, path = wrap.target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.add(wrap.target)
            return None
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, wrap))
        elif callable(raw):
            wrapped = self._wrap(raw, wrap)
        else:
            self.absent.add(wrap.target)
            return None
        setattr(owner, attr, wrapped)
        return owner, attr, raw

    def _wrap(self, fn, wrap: Wrap):
        tracer, name, counters = self, wrap.span, wrap.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._end(sid, parent, name, start)
                tracer.counters[tracer._op, f"{name}.raised.{type(err).__name__}"] += 1
                raise
            tracer._end(sid, parent, name, start)
            if counters is not None:
                tracer._count(wrap, args, kwargs, result)
            return result

        return traced

    def _end(self, sid, parent, name, start):
        end = perf_counter_ns()
        self._stack.pop()
        self.spans.append((self._op, sid, parent, name, start, end))

    def _count(self, wrap: Wrap, args, kwargs, result):
        try:
            amounts = wrap.counters(args, kwargs, result)
        except _DRIFT_ERRORS:
            self.absent.add(f"{wrap.target} (counters)")
            return
        for key, value in amounts.items():
            self.counters[self._op, key] += float(value)

    def summary(self, op_ids) -> dict[str, float]:
        """Per-op mean over ``op_ids`` of every ``<span>.s`` (self seconds),
        ``<span>.calls`` and counter."""
        ops = set(op_ids)
        self_ns: dict[int, int] = defaultdict(int)
        names: dict[int, str] = {}
        for op, sid, parent, name, start, end in self.spans:
            if op in ops:
                self_ns[sid] += end - start
                names[sid] = name
                if parent is not None:
                    self_ns[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, ns in self_ns.items():
            totals[names[sid] + ".s"] += ns / 1e9
            totals[names[sid] + ".calls"] += 1
        for (op, key), value in self.counters.items():
            if op in ops:
                totals[key] += value
        return {key: value / max(1, len(ops)) for key, value in totals.items()}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op_id", "span_id", "parent_id", "name", "start_ns", "end_ns"])
            writer.writerows(self.spans)
