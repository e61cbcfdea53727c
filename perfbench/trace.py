"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each simulator layer from outside
``src/``: :meth:`Tracer.install` replaces class and module attributes
with timing wrappers and :meth:`Tracer.uninstall` puts the originals
back.  Install *before* building a stack: several layers capture bound
methods at construction (``create_table`` hands ``BTree`` the bound
``pool.fetch``, ``BufferPool`` holds the engine's page reader and flush
callback, ``AppendTree`` holds ``append_fn``), and a bound method made
from a wrapped class attribute is itself wrapped.

While :attr:`Tracer.recording` is set, every wrapped call becomes a span
kept in memory as parallel arrays (site, start ns, end ns, parent span,
op id); :meth:`Tracer.write_spans` dumps them when the run ends.  A
span's self time is its duration minus the time its child spans cover,
so a call that bypasses every wrapped function is charged to the nearest
wrapped caller.  With recording off a wrapper costs one attribute test.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (owner, attribute, group, hook, eager) for one wrapped function.
Site = Tuple[object, str, str, Optional[Callable], bool]


class Tracer:
    """In-memory span recorder over a fixed table of wrapped sites.

    ``sites`` lists ``(owner, attribute, group, hook, eager)``: ``owner``
    is a class or module, ``group`` the layer the site's time is charged
    to, ``hook(tracer, args)`` an optional counter update run before the
    call, and ``eager`` marks a generator function whose items are
    collected inside the span (so the span covers the work, not just the
    generator's creation).
    """

    def __init__(self, sites: Sequence[Site]) -> None:
        self.sites = list(sites)
        self.groups: List[str] = sorted({site[2] for site in self.sites})
        self.recording = False
        self.op_id = -1
        self._originals: List[Tuple[object, str, object]] = []
        self.site_calls = [0] * len(self.sites)
        self.self_ns = [0] * len(self.groups)
        self.inclusive_ns = [0] * len(self.groups)
        self.open_depth = [0] * len(self.groups)
        self.counters: Dict[str, int] = {}
        self.span_site = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        # Open spans as [span index, time covered by children].
        self._stack: List[list] = []

    # ------------------------------------------------------------ state

    def add(self, name: str, amount: int) -> None:
        """Bump a named counter (called from site hooks)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, group: str) -> bool:
        """True while a span of ``group`` is open."""
        return self.open_depth[self.groups.index(group)] > 0

    # ---------------------------------------------------------- install

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for index, (owner, attr, group, hook, eager) in enumerate(
                self.sites):
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(
                original, index, self.groups.index(group), hook, eager))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, site: int, group: int,
              hook: Optional[Callable], eager: bool) -> Callable:
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args)
            tracer.site_calls[site] += 1
            spans = tracer.span_site
            index = len(spans)
            spans.append(site)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            tracer.open_depth[group] += 1
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                if eager:
                    return iter(list(fn(*args, **kwargs)))
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.span_start[index] = start
                tracer.span_end[index] = end
                tracer.self_ns[group] += duration - frame[1]
                depth = tracer.open_depth[group] - 1
                tracer.open_depth[group] = depth
                if depth == 0:
                    tracer.inclusive_ns[group] += duration
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # ---------------------------------------------------------- results

    def calls(self, group: str, attrs: Optional[Sequence[str]] = None
              ) -> int:
        """Calls made to ``group``'s sites (optionally only ``attrs``)."""
        return sum(count for site, count in zip(self.sites, self.site_calls)
                   if site[2] == group and (attrs is None
                                            or site[1] in attrs))

    def self_s(self, group: str) -> float:
        return self.self_ns[self.groups.index(group)] / 1e9

    def inclusive_s(self, group: str) -> float:
        return self.inclusive_ns[self.groups.index(group)] / 1e9

    def total_self_s(self) -> float:
        return sum(self.self_ns) / 1e9

    @property
    def span_count(self) -> int:
        return len(self.span_site)

    def write_spans(self, path: str) -> None:
        """Write the span log: a one-line JSON header (site names, span
        count, array layout), then the raw arrays in native byte order."""
        header = {
            "sites": [f"{getattr(owner, '__name__', owner)}.{attr}"
                      for owner, attr, *__ in self.sites],
            "groups": [site[2] for site in self.sites],
            "spans": self.span_count,
            "arrays": ["site:i32", "start_ns:i64", "end_ns:i64",
                       "parent:i32", "op:i32"],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_site, self.span_start,
                           self.span_end, self.span_parent, self.span_op):
                column.tofile(out)
