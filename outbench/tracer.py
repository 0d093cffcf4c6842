"""Spans around public entry points, installed from outside the program.

A span is ``(name, start, end, parent, op)``: the parent is the index of
the enclosing span, ``op`` the index of the benchmark op it ran in.
Spans are kept in memory and written out once, when the run ends.

Wrappers replace public module or class attributes named as
``"package.module:Attr"`` or ``"package.module:Class.attr"`` and are
removed again by :meth:`Tracer.uninstall`.  A target that no longer
exists is recorded as unmeasured instead of failing the run, so the
trace survives refactors that move or rename a layer entry point.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    """One wrapper to install.

    ``kind`` is ``call`` (time each call) or ``iter`` (the target
    returns an iterator; time each ``next`` separately, so the time the
    consumer spends between items is not charged to the producer).
    ``on_result`` may read a count from each call's return value.
    """

    span: str
    target: str
    kind: str = "call"
    on_result: Optional[Callable[[object], dict]] = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.unmeasured: list[str] = []
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._installed: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, index: int):
        """Root span of one benchmark op; every span inside belongs to it."""
        self._op = index
        try:
            with self.span("op") as record:
                yield record
        finally:
            self._op = None

    def count(self, name: str, value: float) -> None:
        if self._op is not None:
            key = (self._op, name)
            self.counts[key] = self.counts.get(key, 0) + value

    # -- wrappers --------------------------------------------------------------

    def install(self, probes: list[Probe]) -> None:
        for probe in probes:
            try:
                owner, attr = _resolve(probe.target)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError, ValueError):
                if probe.target not in self.unmeasured:
                    self.unmeasured.append(probe.target)
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self._wrap(original, probe))
            self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, original, probe: Probe):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(original.__func__, probe))
        tracer = self

        if probe.kind == "iter":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer._timed_iter(probe.span, original(*args, **kwargs))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(probe.span):
                    result = original(*args, **kwargs)
                if probe.on_result is not None:
                    tracer._count_result(probe, result)
                return result

        return wrapper

    def _count_result(self, probe: Probe, result) -> None:
        try:
            counts = probe.on_result(result)
        except (AttributeError, TypeError):
            # The entry point now returns something else: keep running.
            label = f"{probe.target} (result)"
            if label not in self.unmeasured:
                self.unmeasured.append(label)
            return
        for name, value in counts.items():
            self.count(name, value)

    def _timed_iter(self, name: str, iterable):
        iterator = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    # -- summaries -------------------------------------------------------------

    def op_totals(self, op: int) -> tuple[float, dict[str, float], float]:
        """``(op seconds, inclusive seconds per span name, child seconds)``.

        Child seconds are the time covered by the op span's direct
        children: what is left of the op is uncovered time.
        """
        root = None
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.op != op:
                continue
            if span.name == "op" and span.parent is None:
                root = index
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        if root is None:
            raise KeyError(f"no traced op {op}")
        covered = sum(
            span.end - span.start for span in self.spans if span.parent == root
        )
        root_span = self.spans[root]
        return root_span.end - root_span.start, totals, covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(vars(span)) + "\n")


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    if not path:
        raise ValueError(f"probe target {target!r} has no attribute path")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr
