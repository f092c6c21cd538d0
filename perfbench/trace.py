"""In-memory span tracer used by the traced benchmark run.

The tracer replaces chfkit functions with timing wrappers from the
outside; nothing in the package changes.  Spans are not kept one by one:
the traced ``table`` run makes hundreds of thousands of IF97 calls, so
each (parent, function) pair keeps a count, total and self time and a
log-bucket histogram of durations.  Self time is a span's duration minus
the time covered by its traced children.

Wrapper and hook costs land in the caller's self time; the benchmark
reports the total as the tracing overhead (traced / untraced wall time).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

# 16 linear sub-buckets per power of two: a bucket spans at most 1/16 of
# its lower edge, so percentiles read from it are within ~6%
_SUB_BITS = 4


def bucket(ns: int) -> int:
    """Histogram key of a duration in ns; exact below 32 ns."""
    b = ns.bit_length()
    if b <= _SUB_BITS + 1:
        return ns
    return (b << _SUB_BITS) | ((ns >> (b - _SUB_BITS - 1)) & ((1 << _SUB_BITS) - 1))


def bucket_mid_ns(key: int) -> float:
    """Midpoint of the duration range that maps to ``key``."""
    if key < 1 << (_SUB_BITS + 1):
        return float(key)
    b, sub = key >> _SUB_BITS, key & ((1 << _SUB_BITS) - 1)
    width = 1 << (b - _SUB_BITS - 1)
    return ((1 << _SUB_BITS) + sub + 0.5) * width


@dataclass
class Aggregate:
    """Everything kept about the spans of one function under one parent."""

    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    hist: dict[int, int] = field(default_factory=dict)


Hook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Span aggregation plus counters filled from return values.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: dict[tuple[str | None, str], Aggregate] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self._stack: list[list] = []       # [name, child_ns] per open span
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _close(self, frame: list, t0: int) -> None:
        dt = self.clock() - t0
        stack = self._stack
        stack.pop()
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += dt
        agg = self.spans.get((parent, frame[0]))
        if agg is None:
            agg = self.spans[(parent, frame[0])] = Aggregate()
        agg.count += 1
        agg.total_ns += dt
        agg.self_ns += dt - frame[1]
        key = bucket(dt)
        agg.hist[key] = agg.hist.get(key, 0) + 1

    @contextmanager
    def span(self, name: str):
        """A span around a block, e.g. the benchmark's own CLI call."""
        frame = [name, 0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(frame, t0)

    def wrap(self, name: str, fn: Callable, on_result: Hook | None = None,
             on_error: Callable[[dict, BaseException], None] | None = None,
             inside: tuple[str, ...] = ()) -> Callable:
        """Timing wrapper for ``fn``; calls made directly from a span named
        in ``inside`` are left to that span, untraced."""
        stack = self._stack

        def traced(*args, **kwargs):
            if inside and stack and stack[-1][0] in inside:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self._close(frame, t0)
                if on_error is not None:
                    on_error(self.counters, e)
                raise
            self._close(frame, t0)
            if on_result is not None:
                try:
                    on_result(self.counters, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                    # the program changed a return shape; keep running
                    self.hook_errors.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self, package: str, name: str, **wrap_kwargs) -> None:
        """Wrap ``<package>.<name>`` ("module.function") at every module
        attribute of the package that refers to the same function."""
        mod_name, func_name = name.rsplit(".", 1)
        module = sys.modules.get(f"{package}.{mod_name}")
        fn = getattr(module, func_name, None) if module is not None else None
        if fn is None:
            self.absent.append(name)
            return
        wrapper = self.wrap(name, fn, **wrap_kwargs)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == package or mname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    # -- summaries --------------------------------------------------------

    def merged(self, name: str) -> Aggregate:
        """All spans of ``name``, whatever their parent."""
        out = Aggregate()
        for (_, fname), agg in self.spans.items():
            if fname != name:
                continue
            out.count += agg.count
            out.total_ns += agg.total_ns
            out.self_ns += agg.self_ns
            for k, c in agg.hist.items():
                out.hist[k] = out.hist.get(k, 0) + c
        return out


def percentile_us(agg: Aggregate, q: float) -> float:
    """Duration below which a share ``q`` of the spans fall, in us."""
    if agg.count == 0:
        return 0.0
    rank = q * agg.count
    seen = 0
    for key in sorted(agg.hist):
        seen += agg.hist[key]
        if seen >= rank:
            return bucket_mid_ns(key) / 1e3
    return bucket_mid_ns(max(agg.hist)) / 1e3
