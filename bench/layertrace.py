"""Outside-in layer tracing for the benchmark's traced run.

A probe names a group of public functions of one layer. Installing a tracer
replaces each function at its module attribute, in every loaded module of the
package that binds it, with a wrapper that records a span: the operation id,
the probe, start and end times, and the enclosing span.

The functions recurse through their module globals. During the outermost call
of a probe, the wrapper puts the original functions back in place, so that
recursive re-entries run unwrapped. That keeps the span count to one per
outermost call, and it keeps tracing from adding Python frames under deep
recursion, which would move the depth at which `RecursionError` strikes.
Calls into another probe from inside a span still go through that probe's
wrapper and become child spans, so each span's self time is its duration
minus that of its children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

ROOT = "op"  # the probe name of the span the runner opens around each operation


@dataclass(frozen=True)
class Probe:
    """`name` is `<layer>.<what>`; `attrs` are function names in `module`.
    `count`, when given, maps a call's result to a number summed per probe
    (tokens produced, nodes of a term). It runs after the operation, outside
    every timed interval."""

    name: str
    module: str
    attrs: tuple[str, ...]
    count: Optional[Callable[[Any], int]] = None


@dataclass
class Span:
    op: Any
    probe: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    count: int = 0


@dataclass
class Totals:
    """Aggregate of the spans of one probe, or of one probe under one parent."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


@dataclass
class _Binding:
    module: Any
    attr: str
    original: Callable
    wrapper: Callable


class Tracer:
    def __init__(self, probes: list[Probe], package: str = "acorncore"):
        self.probes = {p.name: p for p in probes}
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: Any = None
        self._active: dict[str, bool] = {p.name: False for p in probes}
        self._bindings: dict[str, list[_Binding]] = {}
        self._pending: list[tuple[int, Any]] = []
        self.reentries: dict[str, int] = {p.name: 0 for p in probes}

    # -- installing

    def _modules(self) -> list[Any]:
        prefix = self.package + "."
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        modules = self._modules()
        for probe in self.probes.values():
            home = sys.modules[probe.module]
            bindings: list[_Binding] = []
            for attr in probe.attrs:
                original = getattr(home, attr)
                wrapper = self._wrap(probe, original)
                for m in modules:
                    for name, value in vars(m).items():
                        if value is original:
                            bindings.append(_Binding(m, name, original, wrapper))
            self._bindings[probe.name] = bindings
        for probe_name in self._bindings:
            self._bind(probe_name, wrapped=True)

    def uninstall(self) -> None:
        for probe_name in self._bindings:
            self._bind(probe_name, wrapped=False)
        self._bindings.clear()

    def _bind(self, probe_name: str, wrapped: bool) -> None:
        for b in self._bindings[probe_name]:
            setattr(b.module, b.attr, b.wrapper if wrapped else b.original)

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self
        name = probe.name
        counted = probe.count is not None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._active[name]:
                # reached through a reference taken before the swap
                tracer.reentries[name] += 1
                return original(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, idx)
            if counted:
                tracer._pending.append((idx, result))
            return result

        return wrapper

    # -- spans

    def _enter(self, name: str) -> int:
        self._active[name] = True
        self._bind(name, wrapped=False)
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(self._op, name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        return idx

    def _exit(self, name: str, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()
        self._bind(name, wrapped=True)
        self._active[name] = False

    def begin_op(self, op: Any) -> None:
        """Open the root span of one operation; spans until `end_op` carry
        its id."""
        self._op = op
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(op, ROOT, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()
        self._op = None
        self.flush()

    def flush(self) -> None:
        """Apply the probes' count functions to the results kept since the
        last flush."""
        for idx, result in self._pending:
            span = self.spans[idx]
            span.count = self.probes[span.probe].count(result)
        self._pending.clear()

    # -- analysis

    def totals(
        self, select: Callable[[Span], bool] = lambda s: True, by_parent: bool = False
    ) -> dict:
        """Calls, inclusive time, self time and counts per probe, over the
        spans `select` keeps. With `by_parent`, keys are (probe, parent probe)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out: dict = {}
        for i, s in enumerate(self.spans):
            if not select(s):
                continue
            if by_parent:
                parent = self.spans[s.parent].probe if s.parent is not None else None
                key: Any = (s.probe, parent)
            else:
                key = s.probe
            t = out.setdefault(key, Totals())
            t.calls += 1
            t.total_s += s.end - s.start
            t.self_s += s.end - s.start - child_s[i]
            t.count += s.count
        return out
