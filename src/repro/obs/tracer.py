"""Launch tracing: nested spans over the simulated query stack.

Every claim in the paper's evaluation (§6) is derived from traversal
counters — BVH nodes visited, IS invocations, rays launched — so the
execution path must be *inspectable* at the same granularity the
performance model prices. A :class:`Tracer` records a tree of
:class:`Span` objects (query → phase → shard → launch → traversal),
each carrying:

- wall-clock duration (``perf_counter`` based, diagnostic only);
- simulated time, when the producing phase prices one;
- per-launch traversal-counter *deltas* (nodes visited, IS invocations,
  results emitted), measured around the instrumented region.

Tracing is strictly read-only over the execution: spans observe counters
that are recorded anyway, so pairs, per-ray stats and simulated times
are bit-identical with tracing on or off (enforced by
``tests/core/test_trace_equivalence.py``).

When tracing is off the hooks see :data:`NULL_TRACER`, whose ``span``
returns a shared no-op context manager and whose ``enabled`` flag lets
hot paths skip delta bookkeeping entirely — the disabled cost is one
attribute check per instrumented region (never per ray).

Thread model: each thread keeps its own current-span stack, so nested
``with tracer.span(...)`` blocks attach to the nearest enclosing span
*of the same thread*. Work dispatched to pool threads (shard execution)
passes the parent span explicitly; child-span registration is
lock-protected.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Iterator

from repro import tsan
from repro.lockorder import make_lock


class Span:
    """One timed region of the execution, with children."""

    __slots__ = (
        "name",
        "t_start",
        "t_end",
        "sim_time",
        "counters",
        "attrs",
        "children",
    )

    def __init__(self, name: str, attrs: dict[str, Any] | None = None):
        self.name = name
        self.t_start: float = 0.0
        self.t_end: float = 0.0
        #: Simulated seconds attributed to this span (None = unpriced).
        self.sim_time: float | None = None
        #: Traversal-counter deltas recorded around this span.
        self.counters: dict[str, int] = {}
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.children: list["Span"] = []

    @property
    def wall_time(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return max(0.0, self.t_end - self.t_start)

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first descendant named ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_counter(self, key: str) -> int:
        """Sum a counter over this span; falls back to summing children
        when the span itself recorded no delta for ``key`` (a parent's
        own delta already includes its children's work)."""
        if key in self.counters:
            return int(self.counters[key])
        return int(sum(c.total_counter(key) for c in self.children))

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly view of the span tree."""
        d: dict[str, Any] = {"name": self.name, "wall_time": self.wall_time}
        if self.sim_time is not None:
            d["sim_time"] = self.sim_time
        if self.counters:
            d["counters"] = {k: int(v) for k, v in self.counters.items()}
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def pretty(self, indent: int = 0) -> str:
        """Human-readable one-line-per-span rendering."""
        bits = [f"{'  ' * indent}{self.name}  wall={self.wall_time * 1e3:.3f}ms"]
        if self.sim_time is not None:
            bits.append(f"sim={self.sim_time * 1e3:.4f}ms")
        if self.counters:
            bits.append(" ".join(f"{k}={v}" for k, v in sorted(self.counters.items())))
        lines = [" ".join(bits)]
        lines.extend(c.pretty(indent + 1) for c in self.children)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, wall={self.wall_time:.6f}s, "
            f"children={len(self.children)})"
        )


class _SpanContext:
    """Context manager entering/exiting one live span."""

    __slots__ = ("_tracer", "_span", "_parent_explicit")

    def __init__(self, tracer: "Tracer", span: Span, parent: Span | None):
        self._tracer = tracer
        self._span = span
        self._parent_explicit = parent

    def __enter__(self) -> Span:
        tr = self._tracer
        sp = self._span
        stack = tr._stack()
        parent = self._parent_explicit if self._parent_explicit is not None else (
            stack[-1] if stack else None
        )
        with tr._lock:
            if parent is not None:
                parent.children.append(sp)
            else:
                tr.roots.append(sp)
        stack.append(sp)
        sp.t_start = tr.clock()
        return sp

    def __exit__(self, *exc) -> None:
        sp = self._span
        sp.t_end = self._tracer.clock()
        stack = self._tracer._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        return None


class _NullSpan(Span):
    """The shared span handed out by the no-op tracer: mutating it is
    allowed (hooks may set attributes unconditionally) and discarded."""

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def to_dict(self) -> dict[str, Any]:
        return {}


class NullTracer:
    """Zero-overhead stand-in used when tracing is disabled.

    ``span`` hands back a shared inert span that is its own context
    manager; ``enabled`` is False so hot paths can skip counter-delta
    snapshots entirely.
    """

    enabled = False
    __slots__ = ("_span",)

    def __init__(self):
        self._span = _NullSpan("null")

    def span(self, name: str, parent: Span | None = None, **attrs):
        return self._span

    def current(self) -> Span | None:
        return None

    def to_dict(self) -> dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return "NullTracer()"


#: The module-wide disabled tracer (one shared instance; hooks treat a
#: ``None`` tracer argument as this).
NULL_TRACER = NullTracer()


@tsan.instrument(containers=("roots",))
class Tracer:
    """Records a forest of nested spans over query execution.

    ``roots`` and every span's ``children`` grow under the tracer lock
    (rank 45) while other threads run; the inspection methods read them
    under it too. ``roots`` stays public for exporters that read a
    finished run.

    Parameters
    ----------
    clock:
        Wall-clock source (``time.perf_counter`` by default; tests inject
        a fake for deterministic durations).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.roots: list[Span] = []
        # Rank 45 (leaf): guards span registration and inspection.
        self._lock = make_lock("obs.tracer")
        self._local = threading.local()

    # -- span plumbing -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, parent: Span | None = None, **attrs) -> _SpanContext:
        """Open a nested span.

        Used as ``with tracer.span("forward_cast") as sp:``. The parent
        is the innermost open span of the calling thread unless given
        explicitly (pool workers pass the dispatching span).
        """
        return _SpanContext(self, Span(name, attrs), parent)

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- inspection --------------------------------------------------------

    @property
    def last(self) -> Span | None:
        """The most recently opened root span."""
        with self._lock:
            return self.roots[-1] if self.roots else None

    def find(self, name: str) -> Span | None:
        """First span named ``name`` anywhere in the forest."""
        with self._lock:
            for root in self.roots:
                if root.name == name:
                    return root
                hit = root.find(name)
                if hit is not None:
                    return hit
        return None

    def spans(self) -> Iterator[Span]:
        """Every recorded span, depth first across roots."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def clear(self) -> None:
        with self._lock:
            self.roots = []

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {"spans": [r.to_dict() for r in self.roots]}

    def to_json(self, path=None, **dump_kwargs) -> str:
        """Serialize the span forest; optionally also write it to a file."""
        text = json.dumps(self.to_dict(), **dump_kwargs)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def pretty(self) -> str:
        with self._lock:
            return "\n".join(r.pretty() for r in self.roots)

    def __repr__(self) -> str:
        with self._lock:
            return f"Tracer(roots={len(self.roots)})"


def counter_snapshot(stats) -> tuple[int, int, int]:
    """Cheap totals snapshot of a :class:`TraversalStats` used to compute
    span deltas (three array sums; only taken when tracing is enabled)."""
    return (
        int(stats.nodes_visited.sum()),
        int(stats.is_invocations.sum()),
        int(stats.results_emitted.sum()),
    )


def record_delta(span: Span, before: tuple[int, int, int], stats) -> None:
    """Store the counter delta accumulated between ``before`` and now."""
    after = counter_snapshot(stats)
    span.counters = {
        "nodes_visited": after[0] - before[0],
        "is_invocations": after[1] - before[1],
        "results_emitted": after[2] - before[2],
    }
