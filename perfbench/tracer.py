"""Span tracer that times calls into yzero's public functions from outside.

The child process (``child.py``) installs it before calling ``yzero.cli.main``: every public
function in each ``yzero`` module namespace, and every family runner in
``cli.RUNNERS``, is replaced by a timing wrapper.  The modules import each
other's functions by name, so swapping the names catches every cross-module
call without editing the package.

Each thread keeps its own span stack.  A call that starts on an empty stack
in a worker thread takes as parent the span open on the installing thread at
that moment (for ``bounds`` that is ``runner.run_bounds`` waiting on its
pool).  Spans stay in memory until ``snapshot`` hands them to the caller.

Calls to the functions in ``HOT``, and every call made beneath one of them,
are aggregated into (calls, total, self) per name instead of becoming spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# scalar functions called per symbol or per quadrature node
HOT = frozenset({"codec.halfplane_label", "codec.encode", "detection.phase_density"})

# span tuple layout
SPAN_ID, PARENT, NAME, THREAD, START, END, AGG_CHILD = range(7)


def _count_rows(counts, result):
    counts["codec.keystream_table.rows"] += int(result[0].shape[0])


def _count_candidates(counts, result):
    counts["attacks.candidates"] += int(result.candidate_count)
    counts["attacks.seeds_scored"] += int(result.seeds.size)


def _count_route(counts, result):
    counts[f"detection.route.{result.method}.calls"] += 1
    if result.dim_used is not None:
        counts["detection.dim3_sum"] += int(result.dim_used) ** 3


# derived counters, read from the value a traced function returns
OBSERVERS = {
    "codec.keystream_table": _count_rows,
    "attacks.brute_force_candidates": _count_candidates,
    "attacks.otp_stage_attack": _count_candidates,
    "detection.bit_bound": _count_route,
    "detection.updown_bound": _count_route,
}


class Tracer:
    """Records spans and aggregates for wrapped functions, one stack per thread."""

    def __init__(self, hot=HOT) -> None:
        self.hot = hot
        self.run_id = os.getpid()  # span ids are unique within one run
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list = []
        self._main_stack = self._state()[0]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # stack, aggregates {name: [calls, total, self]}, counters
            state = ([], defaultdict(lambda: [0, 0.0, 0.0]), defaultdict(int))
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn):
        hot = name in self.hot
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, aggregates, counts = self._state()
            local_parent = stack[-1] if stack else None
            parent = local_parent
            if parent is None and stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            aggregated = hot or (parent is not None and parent[0] is None)
            # frame: span id (None when aggregated), time in aggregated children
            frame = [None if aggregated else next(self._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if aggregated:
                    entry = aggregates[name]
                    entry[0] += 1
                    entry[1] += end - start
                    entry[2] += end - start - frame[1]
                    if local_parent is not None:
                        local_parent[1] += end - start
                else:
                    self.spans.append((frame[0], None if parent is None else parent[0], name,
                                       threading.get_ident(), start, end, frame[1]))
            if observe is not None:
                try:
                    observe(counts, result)
                except (AttributeError, IndexError, TypeError):
                    counts[f"{name}.unobservable"] += 1
            return result

        return timed

    def snapshot(self) -> dict:
        """Spans, merged aggregates and merged counters, as plain data."""
        aggregates: dict = defaultdict(lambda: [0, 0.0, 0.0])
        counts: dict = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for _, agg, cnt in states:
            for name, (calls, total, own) in agg.items():
                entry = aggregates[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for name, value in cnt.items():
                counts[name] += value
        return {"run_id": self.run_id, "spans": [list(s) for s in self.spans],
                "aggregates": dict(aggregates), "counters": dict(counts)}


def traced_name(fn, package: str = "yzero") -> str:
    module = fn.__module__
    if module.startswith(package + "."):
        module = module[len(package) + 1:]
    return f"{module}.{fn.__name__}"


def install(tracer: Tracer, package: str = "yzero") -> "dict[str, object]":
    """Swap a timing wrapper for every public function of every loaded package module.

    Returns {traced name: original function}.  Each function gets one
    wrapper, installed under every name that refers to it.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    wrappers: dict = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(package)):
                continue
            if obj not in wrappers:
                wrappers[obj] = tracer.wrap(traced_name(obj, package), obj)
            setattr(mod, attr, wrappers[obj])
    runners = getattr(sys.modules.get(package + ".cli"), "RUNNERS", {})
    for family, fn in list(runners.items()):
        if inspect.isfunction(fn):
            if fn not in wrappers:
                wrappers[fn] = tracer.wrap(traced_name(fn, package), fn)
            runners[family] = wrappers[fn]
    return {traced_name(fn, package): fn for fn in wrappers}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans) -> "dict[int, float]":
    """Self time of each span, keyed by span id.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children on other threads may overlap each other,
    so covered time is a union, not a sum) minus the time spent in
    aggregated calls made directly from it.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = union_length((max(c[START], lo), min(c[END], hi))
                               for c in children[s[SPAN_ID]] if c[END] > lo and c[START] < hi)
        out[s[SPAN_ID]] = (hi - lo) - covered - s[AGG_CHILD]
    return out


def function_totals(trace: dict) -> "dict[str, dict[str, float]]":
    """{traced name: {calls, total_s, self_s}} for one run's trace."""
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    own = self_times(trace["spans"])
    for s in trace["spans"]:
        entry = out[s[NAME]]
        entry["calls"] += 1
        entry["total_s"] += s[END] - s[START]
        entry["self_s"] += own[s[SPAN_ID]]
    for name, (calls, total, self_s) in trace["aggregates"].items():
        entry = out[name]
        entry["calls"] += calls
        entry["total_s"] += total
        entry["self_s"] += self_s
    return dict(out)
