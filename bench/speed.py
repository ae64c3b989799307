"""Scaling measured times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts: a fixed pure-Python
job can take twice as long in one stretch of seconds as in the next, and a
stretch can outlast a whole run. The wall-clock medians of two runs of the
same code then differ by more than any useful bound. So the runner times a
short reference job, `probe_s`, about every `EVERY_S` seconds between
operations, and multiplies every time measured between two probes by `REF_S`
over the mean of the two. Reported times are thus seconds at a reference
speed, one at which the probe takes `REF_S`; on a steady host they are
wall-clock seconds times a constant.

The probe builds and walks a small tree of slotted objects: calls,
attribute reads, allocation and dict lookups, like the interpreters it
stands beside. It uses nothing of acorncore, so a change to the program
moves scaled times exactly as it would move wall-clock times on a steady
host. The garbage collector is off during the probe: a collection would
walk the workload's heap, and so make the probe's time depend on the
program it measures.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Optional

REF_S = 1e-3  # the probe's time at the reference speed
EVERY_S = 0.1  # wall-clock seconds between probes, at most one per operation
_REPS = 3  # the probe keeps its median repetition, to skip a stray pause


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int, left: Optional["_Node"], right: Optional["_Node"]):
        self.key, self.left, self.right = key, left, right


def _build(depth: int, key: int) -> _Node:
    if depth == 0:
        return _Node(key, None, None)
    return _Node(key, _build(depth - 1, 2 * key), _build(depth - 1, 2 * key + 1))


def _walk(n: _Node, env: dict) -> int:
    if n.left is None:
        return env.get(n.key & 63, n.key)
    return _walk(n.left, env) + _walk(n.right, env)


_ENV = {i: 3 * i for i in range(64)}


def probe_s() -> float:
    """Seconds the reference job takes now: the median of a few repetitions."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_REPS):
            t0 = time.perf_counter()
            _walk(_build(10, 1), _ENV)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Scale:
    """Cuts a run into laps between probes and gives each lap's scale factor.

    `probe` is injectable for tests; it returns the reference job's seconds."""

    def __init__(self, probe: Callable[[], float] = probe_s):
        self.probe = probe
        self.probes = [probe()]
        self._start = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._start >= EVERY_S

    def lap(self) -> tuple[float, float]:
        """Ends the current lap with a probe and starts the next one after it.
        Returns the lap's wall-clock seconds, probe excluded, and the factor
        that scales times measured during the lap to the reference speed."""
        lap_s = time.perf_counter() - self._start
        before = self.probes[-1]
        self.probes.append(self.probe())
        self._start = time.perf_counter()
        return lap_s, REF_S / ((before + self.probes[-1]) / 2)


def around(fn: Callable[[], object], probe: Callable[[], float] = probe_s) -> tuple[object, float]:
    """Runs `fn` between two probes. Returns its result and the factor that
    scales times measured during it to the reference speed."""
    before = probe()
    out = fn()
    return out, REF_S / ((before + probe()) / 2)
