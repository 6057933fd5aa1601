"""Span tracer that instruments redkit from outside the package.

The tracer replaces redkit's functions with timing wrappers while it is
installed and puts the originals back when it is removed, so the program
itself carries no tracing code. A function is wrapped when it is public in
its module or when another redkit module imports it, i.e. when calling it
crosses a module boundary. Every name that refers to it is patched: module
globals (which also covers calls inside the defining module) and entries of
module-level dicts such as the CLI's command table.

Each call records one span: its function, parent span, start and end. Spans
live in flat arrays until :meth:`Tracer.summary` reduces them; the self time
of a span is its duration minus the durations of its direct children, minus
the tracer's own cost inside it.

The tracer's own cost is estimated by :meth:`calibrate` on wrapped no-op
functions: the part of a wrapper that runs outside its own span's clock
reads (charged to the caller), the part inside them (charged to the span
itself), and the cost of a counting wrapper. Post hooks are timed on every
call and charged to the caller as well. ``summary`` subtracts these
estimates from each span and reports their sum as the correction. The host's
speed wanders, so the estimates are medians over every calibration made,
and callers calibrate around each traced job.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

LAYERS = ("ingest", "geometry", "overlap", "multisource", "multimodal",
          "synth", "cli")
BENCH_LAYER = "bench"
CALIBRATION_CALLS = 5_000

# post(tracer, args, result) runs after a span ends, to count outcomes
PostHook = Callable[["Tracer", tuple, object], None]


def _noop(*args, **kwargs):
    return None


def _noop_hook(tracer, args, result) -> None:
    return None


class Tracer:
    """Spans and counters for one traced job at a time.

    Args:
        post_hooks: qualified name (``layer.function``) to a hook called
            with the arguments and result of every completed call.
        count_only: qualified names of functions that get a counting wrapper
            instead of a span, for hot private helpers whose calls matter
            but whose time belongs to their caller. Their calls are counted
            per request tag (see :meth:`request`).
    """

    def __init__(self, post_hooks: dict[str, PostHook],
                 count_only: tuple[str, ...] = ()):
        self.counters: dict[str, float] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._hooked_names: set[int] = set()
        self._span_name = array("q")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        # per span: post-hook seconds of its children, counted calls in it
        self._span_hook_s = array("d")
        self._span_counted = array("q")
        self._stack = [-1]
        self._requests: list[tuple[int, str]] = []
        self._patches: list[tuple[dict, str, object, object]] = []
        self._count_quals: list[str] = list(count_only)
        # seconds per call from each calibrate(): outside the span, outside
        # with a post hook, inside the span, per counted call
        self._costs: list[tuple[float, float, float, float]] = []

        modules = [m for n, m in sys.modules.items()
                   if n == "redkit" or n.startswith("redkit.")]
        layer_of = {f"redkit.{layer}": layer for layer in LAYERS}
        imported_ids = {
            id(obj)
            for m in modules
            for obj in vars(m).values()
            if inspect.isfunction(obj) and obj.__module__ != m.__name__
        }
        wrappers: dict[int, object] = {}
        for m in modules:
            layer = layer_of.get(m.__name__)
            if layer is None:
                continue
            for attr, obj in vars(m).items():
                if not inspect.isfunction(obj) or obj.__module__ != m.__name__:
                    continue
                qual = f"{layer}.{attr}"
                if qual in count_only:
                    wrappers[id(obj)] = self._count_wrapper(obj)
                elif not attr.startswith("_") or id(obj) in imported_ids:
                    wrappers[id(obj)] = self._span_wrapper(
                        obj, self._name_id(qual), post_hooks.get(qual))
        for m in modules:
            namespaces = [vars(m)] + [
                v for v in vars(m).values() if type(v) is dict
            ]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patches.append((ns, key, value, wrapper))

    # ------------------------------------------------------------------
    # wrappers

    def _name_id(self, qual: str) -> int:
        if qual not in self._name_ids:
            self._name_ids[qual] = len(self.names)
            self.names.append(qual)
        return self._name_ids[qual]

    def _open(self, name_id: int) -> int:
        sid = len(self._span_start)
        self._span_name.append(name_id)
        self._span_parent.append(self._stack[-1])
        self._span_end.append(0.0)
        self._span_hook_s.append(0.0)
        self._span_counted.append(0)
        self._stack.append(sid)
        return sid

    def _span_wrapper(self, fn, name_id: int, post: PostHook | None):
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack
        hook_s, counted = self._span_hook_s, self._span_counted
        clock = time.perf_counter
        tracer = self
        if post is not None:
            self._hooked_names.add(name_id)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            hook_s.append(0.0)
            counted.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if post is not None:
                t = clock()
                post(tracer, args, result)
                hook_s[stack[-1]] += clock() - t
            return result

        return wrapper

    def _count_wrapper(self, fn):
        counted, stack = self._span_counted, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counted[stack[-1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def request(self, tag: str) -> None:
        """Mark the start of a request; spans until the next mark carry
        ``tag`` in the counts of the counting wrappers."""
        self._requests.append((len(self._span_start), tag))

    # ------------------------------------------------------------------
    # lifecycle

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch redkit for the duration of the block, then restore it."""
        for ns, key, _, wrapper in self._patches:
            ns[key] = wrapper
        try:
            yield self
        finally:
            for ns, key, original, _ in self._patches:
                ns[key] = original

    def reset(self) -> None:
        """Drop recorded spans and counters before the next traced job."""
        for arr in (self._span_name, self._span_parent, self._span_start,
                    self._span_end, self._span_hook_s, self._span_counted):
            del arr[:]
        self.counters.clear()
        self._requests.clear()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself, in the ``bench`` layer."""
        sid = self._open(self._name_id(f"{BENCH_LAYER}.{name}"))
        self._span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self._span_end[sid] = time.perf_counter()
            self._stack.pop()

    def calibrate(self, calls: int = CALIBRATION_CALLS) -> None:
        """Estimate the tracer's cost per call on wrapped no-ops.

        Runs ``calls`` direct calls of a no-op, then the same number through
        a counting wrapper and a span wrapper (with and without a post hook),
        inside a bench span. The difference per call, less the part inside
        the wrapped span's clock reads and the timed hook, is the cost
        charged to the caller. Drops recorded spans.
        """
        clock = time.perf_counter
        name_id = self._name_id(f"{BENCH_LAYER}.calibrate")
        plain = self._span_wrapper(_noop, name_id, None)
        hooked = self._span_wrapper(_noop, name_id, _noop_hook)
        self._hooked_names.discard(name_id)
        counting = self._count_wrapper(_noop)
        loop = range(calls)
        self.reset()
        with self.span("calibrate"):
            t0 = clock()
            for _ in loop:
                _noop()
            t1 = clock()
            for _ in loop:
                counting()
            t2 = clock()
        direct = (t1 - t0) / calls
        count = max(0.0, (t2 - t1) / calls - direct)
        outside = []
        for wrapper in (plain, hooked):
            self.reset()
            with self.span("calibrate"):
                t0 = clock()
                for _ in loop:
                    wrapper()
                t1 = clock()
            inside = statistics.median(
                e - s for s, e in zip(self._span_start[1:], self._span_end[1:]))
            hook = self._span_hook_s[0] / calls
            outside.append(max(0.0, (t1 - t0) / calls - direct - inside - hook))
        self._costs.append((*outside, max(0.0, inside - direct), count))
        self.reset()

    def costs(self) -> tuple[float, float, float, float]:
        """Median estimates so far: seconds per call outside a span, outside
        a span with a post hook, inside a span, and per counted call."""
        return tuple(statistics.median(c) for c in zip(*self._costs))

    # ------------------------------------------------------------------
    # reduction

    def summary(self) -> "SpanSummary":
        n_names = len(self.names)
        name = np.array(self._span_name, dtype=np.int64)
        parent = np.array(self._span_parent, dtype=np.int64)
        dur = (np.array(self._span_end, dtype=np.float64)
               - np.array(self._span_start, dtype=np.float64))
        counted = np.array(self._span_counted, dtype=np.int64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested],
                                 minlength=len(dur))

        # the tracer's own cost inside each span, then inside its subtree
        is_bench = np.array([n.startswith(BENCH_LAYER + ".") for n in self.names])
        is_hooked = np.zeros(n_names, dtype=bool)
        is_hooked[list(self._hooked_names)] = True
        cost_outside, cost_outside_hooked, cost_inside, cost_count = self.costs()
        outside = np.where(is_hooked[name], cost_outside_hooked, cost_outside)
        own = (np.where(is_bench[name], 0.0, cost_inside)
               + np.bincount(parent[nested], weights=outside[nested],
                             minlength=len(dur))
               + np.array(self._span_hook_s, dtype=np.float64)
               + counted * cost_count)
        subtree = own.tolist()
        for sid in range(len(subtree) - 1, 0, -1):
            p = self._span_parent[sid]
            if p >= 0:
                subtree[p] += subtree[sid]
        subtree = np.array(subtree, dtype=np.float64)
        self_time = dur - child_time - own
        total_time = dur - subtree

        caller = np.full(len(name), -1, dtype=np.int64)
        caller[nested] = name[parent[nested]]
        pairs, pair_calls = np.unique((caller + 1) * n_names + name,
                                      return_counts=True)
        callers: dict[str, dict[str, int]] = {}
        for pair, calls in zip(pairs.tolist(), pair_calls.tolist()):
            by = pair // n_names - 1
            callee = callers.setdefault(self.names[pair % n_names], {})
            callee[self.names[by] if by >= 0 else "-"] = calls

        counters = dict(self.counters)
        if self._requests:
            first = np.array([sid for sid, _ in self._requests], dtype=np.int64)
            which = np.searchsorted(first, np.arange(len(dur)), side="right") - 1
            per_request = np.bincount(which[which >= 0], weights=counted[which >= 0],
                                      minlength=len(first))
            for (_, tag), calls in zip(self._requests, per_request.tolist()):
                calls = int(calls)
                if calls:
                    for qual in self._count_quals:
                        key = f"{qual}@{tag}"
                        counters[key] = counters.get(key, 0) + calls
        return SpanSummary(
            names=list(self.names),
            calls=np.bincount(name, minlength=n_names).astype(np.int64),
            wall_s=np.bincount(name, weights=dur, minlength=n_names),
            total_s=np.bincount(name, weights=total_time, minlength=n_names),
            self_s=np.bincount(name, weights=self_time, minlength=n_names),
            counters=counters,
            spans=len(dur),
            callers=callers,
            correction_s=float(own.sum()),
        )


class SpanSummary:
    """Per-function call counts, inclusive and self times of one traced job.

    Inclusive and self times have the tracer's estimated own cost taken out;
    ``correction_s`` is the total taken out. :meth:`wall_s` keeps it in.
    """

    def __init__(self, names, calls, wall_s, total_s, self_s, counters, spans,
                 callers, correction_s):
        self._index = {n: i for i, n in enumerate(names)}
        self.names = names
        self._calls = calls
        self._wall = wall_s
        self._total = total_s
        self._self = self_s
        self.counters = counters
        self.spans = spans
        # callee -> {caller: calls}; "-" for spans without a parent
        self.callers = callers
        self.correction_s = correction_s

    def calls(self, qual: str) -> int:
        i = self._index.get(qual)
        return 0 if i is None else int(self._calls[i])

    def wall_s(self, qual: str) -> float:
        i = self._index.get(qual)
        return 0.0 if i is None else float(self._wall[i])

    def total_s(self, qual: str) -> float:
        i = self._index.get(qual)
        return 0.0 if i is None else float(self._total[i])

    def self_s(self, qual: str) -> float:
        i = self._index.get(qual)
        return 0.0 if i is None else float(self._self[i])

    def layer_self_s(self, layer: str) -> float:
        return float(sum(self._self[i] for n, i in self._index.items()
                         if n.split(".", 1)[0] == layer))
