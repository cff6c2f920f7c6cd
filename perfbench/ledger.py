"""Measurement plumbing: wrappers around the program's public functions,
the post-processing of cProfile statistics, and calibrated clocks.

:class:`Ledger` replaces a function (module-level, method, classmethod or
staticmethod) by a wrapper that counts or times its calls, and puts the
original back when the ``with`` block ends.  The program itself carries no
tracing: every number the benchmark reports is taken at these boundaries.

:class:`Probe` stamps ops and round trips and interleaves :func:`calibrate`
with them.  The host is shared, and its speed for the same Python code
varies by tens of percent from second to second; scaling host time by the
calibration taken alongside it ("reference time") cancels most of that.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import math
import re
import resource
import time
from collections import Counter, defaultdict
from typing import Callable

#: Code flags of functions whose cProfile call count includes every resume.
_RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


class Ledger:
    """Counts and times calls into the program, from outside it.

    - ``calls[key]``: number of calls made to a wrapped function;
    - ``wall[key]``: host seconds spent inside a timed function (a timed
      call nested in another counts in both keys);
    - ``last[key]``: the return value of the latest timed call, so a
      workload can inspect what a set-up call built.  Workloads clear it
      after each iteration, so finished simulations are freed.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.wall: defaultdict = defaultdict(float)
        self.last: dict = {}
        self._undo: list = []

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every wrapped function back, latest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def wrap(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original_function)``."""
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        wrapper = make(func)
        wrapper.__wrapped__ = func
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        own = vars(owner) if inspect.isclass(owner) else None
        self._undo.append((owner, attr, raw if own is None or attr in own else None))

    def time(self, owner, attr: str, key: str) -> None:
        """Add the host time of each call to ``wall[key]``."""
        wall, last = self.wall, self.last

        def make(func):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    wall[key] += time.perf_counter() - start
                last[key] = result
                return result
            return timed

        self.wrap(owner, attr, make)

    def count(self, owner, attr: str, key: str) -> None:
        """Add one to ``calls[key]`` per call (the callee may be a
        generator function: the count is of calls, not of resumes)."""
        calls = self.calls

        def make(func):
            def counted(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return counted

        self.wrap(owner, attr, make)

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.calls), dict(self.wall)


def delta(after: dict, before: dict) -> dict:
    """Per-key difference of two ledger snapshots."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- cProfile post-processing ----------------------------------------------

_REPRO_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


#: Packages whose self time is reported on its own; the rest is "other".
SIM_GROUPS = ("sim", "rdma", "memsys", "core", "txn", "bench", "transport")


def sim_group(filename: str) -> str:
    """The repro package of a source file (``"sim"`` for
    ``.../repro/sim/engine.py``) if it is one of :data:`SIM_GROUPS`,
    else ``"other"``."""
    match = _REPRO_PACKAGE.search(filename)
    package = match.group(1) if match else None
    return package if package in SIM_GROUPS else "other"


def self_time_by_group(stats: dict, classify: Callable[[str], str]) -> dict:
    """Self time per group, with ``classify(filename) -> group``.

    Built-in functions (filename ``"~"``: ``heappush``, ``socket.send``,
    ``zlib.crc32``...) have no package of their own, so their self time is
    charged to the groups of their callers, split by the time each call
    edge accounts for.  The benchmark's own :func:`calibrate` loop, which
    runs inside measured phases, is left out.
    """
    code = calibrate.__code__
    skip = (code.co_filename, code.co_firstlineno, code.co_name)
    totals: defaultdict = defaultdict(float)
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if key == skip:
            continue
        if key[0] == "~" and callers:
            for caller, edge in callers.items():
                if caller != skip:
                    totals[classify(caller[0])] += edge[2]
        else:
            totals[classify(key[0])] += tt
    return dict(totals)


def shares(totals: dict, groups: tuple) -> dict:
    """Each group's fraction of the total self time (0.0 when absent)."""
    grand = sum(totals.values()) or 1.0
    return {group: totals.get(group, 0.0) / grand for group in groups}


def resolve(path: str):
    """``"pkg.mod:Class.attr"`` -> the function, unwrapped; ``None`` if the
    program no longer has it (its count then reads 0)."""
    module_name, _, qualname = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = inspect.getattr_static(obj, part)
    except (ImportError, AttributeError):
        return None
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    return inspect.unwrap(obj)


def call_count(stats: dict, path: str) -> int:
    """Exact cProfile call count of the plain function at ``path``.

    A generator's or coroutine's count includes every resume, so those
    are refused rather than reported as calls.
    """
    func = resolve(path)
    if func is None:
        return 0
    code = func.__code__
    if code.co_flags & _RESUMABLE:
        raise ValueError(f"{path} is resumable; cProfile counts its resumes, not calls")
    for (filename, line, _name), entry in stats.items():
        if line == code.co_firstlineno and filename == code.co_filename:
            return entry[1]
    return 0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set so far of this process (or of its waited-for
    children), in MiB."""
    return resource.getrusage(who).ru_maxrss / 1024


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]




# -- calibrated clocks --------------------------------------------------------

#: Host nanoseconds :func:`calibrate` takes on a quiet reference machine
#: (2-vCPU x86_64 container, CPython 3.11).  Timings are reported in
#: reference time: host time scaled by this over the calibration time
#: measured next to them.
REFERENCE_NS = 330_000


def calibrate() -> int:
    """Host nanoseconds of a fixed pure-Python loop: a probe of how fast
    this (shared) machine runs Python right now.  It uses no program
    code, so a change to the program cannot change it."""
    table: dict = {}
    start = time.perf_counter_ns()
    for i in range(2_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter_ns() - start


class SetupDone(Exception):
    """Raised at the first op of a set-up pass, to abandon the experiment."""


class Probe:
    """Host-clock stamps of one measured phase, with the machine's speed
    sampled alongside.

    ``op()`` stamps each call into the client API; every ``width // 5``
    ops it first runs :func:`calibrate`, so each window of ``width`` ops
    holds several speed samples.  The clocks exclude the calibration
    pauses, so neither window lengths nor round trips include them.
    ``completed(posted)`` records one RPC round trip.  With ``setup_only``
    set, the first ``op()`` raises :class:`SetupDone`.
    """

    def __init__(self, width: int):
        self.width = width
        self._every = max(1, width // 5)
        self.setup_only = False
        self.clear()

    def clear(self) -> None:
        self.op_wall: list = []
        self.op_cpu: list = []
        self.cal: list = []
        self.cal_at: list = []
        self.done: list = []
        self.rtt: list = []
        self._paused_wall = 0
        self._paused_cpu = 0

    def clock(self) -> int:
        return time.perf_counter_ns() - self._paused_wall

    def calibrate(self) -> int:
        cpu0, wall0 = time.process_time_ns(), time.perf_counter_ns()
        sample = calibrate()
        self._paused_cpu += time.process_time_ns() - cpu0
        self._paused_wall += time.perf_counter_ns() - wall0
        self.cal.append(sample)
        self.cal_at.append(self.clock())
        return sample

    def op(self) -> None:
        if len(self.op_wall) % self._every == 0:
            self.calibrate()
        self.op_wall.append(self.clock())
        self.op_cpu.append(time.process_time_ns() - self._paused_cpu)
        if self.setup_only:
            raise SetupDone

    def setup_s(self, start: int) -> float:
        """Host seconds from clock reading ``start`` to the first op."""
        return (self.op_wall[0] - start) / 1e9

    def completed(self, posted: int) -> None:
        now = self.clock()
        self.done.append(now)
        self.rtt.append(now - posted)

    def factor(self, start: int, end: int) -> float:
        """Reference time per host time over the clock interval
        [start, end]: from the calibrations inside it and the nearest
        one on either side."""
        first = max(0, bisect.bisect_left(self.cal_at, start) - 1)
        near = self.cal[first:bisect.bisect_right(self.cal_at, end) + 1]
        return REFERENCE_NS * len(near) / sum(near)

    def op_windows(self) -> tuple[list, list]:
        """Ops per reference second and CPU reference-microseconds per op,
        per window of ``width`` consecutive ops."""
        rates, cpu_us = [], []
        wall, cpu, width = self.op_wall, self.op_cpu, self.width
        for first in range(0, len(wall) - width, width):
            last = first + width
            factor = self.factor(wall[first], wall[last])
            rates.append(width * 1e9 / ((wall[last] - wall[first]) * factor))
            cpu_us.append((cpu[last] - cpu[first]) * factor / width / 1e3)
        return rates, cpu_us

    def rtt_windows(self, width: int) -> tuple[list, list]:
        """Round-trip p50 and p99 in reference nanoseconds, per window of
        ``width`` consecutive completions."""
        p50, p99 = [], []
        for first in range(0, len(self.rtt) - width + 1, width):
            chunk = sorted(self.rtt[first:first + width])
            factor = self.factor(self.done[first], self.done[first + width - 1])
            p50.append(percentile(chunk, 50) * factor)
            p99.append(percentile(chunk, 99) * factor)
        return p50, p99
