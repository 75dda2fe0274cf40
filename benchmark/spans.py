"""Spans around qscatter's public functions, installed from outside the program.

`Tracer.install` replaces every public function of the pipeline modules by
a wrapper that records a span (name, parent span, start, end) and, for the
writers, the bytes they left on disk. A name is replaced on its own module
and on every qscatter module that rebound it with `from ... import`, so
calls through either name are seen. CountTable constructions are counted
at the class. `uninstall` puts the original functions back. Spans stay in
memory until `write` saves them.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import inspect
import os
import sys
import time
from typing import Callable, Dict, List, Set, Tuple

PACKAGE = "qscatter"
MODULES = ("numerics", "states", "bases", "channel", "measure", "tomo",
           "unscramble", "certify", "cli")


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# Bytes a writer leaves behind, from its arguments and its return value.
_WRITTEN: Dict[str, Callable[[tuple, object], int]] = {
    "numerics.save_matrix_csv": lambda args, out: _size(args[0]),
    "measure.save_count_table": lambda args, out: _size(args[0]),
    "channel.save_channel": lambda args, out: (_size(f"{os.fspath(args[0])}.csv")
                                               + _size(f"{os.fspath(args[0])}.json")),
    "cli.emit_report": lambda args, out: _size(out),
}

# Monte-Carlo trials a certification ran, read from the report it returns.
_TRIALS: Dict[str, Callable[[object], int]] = {
    "certify.certify": lambda out: int(out.n_mc),
}


class Tracer:
    """Collects spans; one instance per traced process."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        # (name index, parent span index or -1, start, end, bytes, trials)
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        self.new_tables = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        self.wrapped: List[str] = []
        pkg_modules = [m for name, m in sys.modules.items()
                       if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                self.wrapped.append(f"{short}.{attr}")
                for holder in pkg_modules:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, alias, fn, wrapper))
        table_cls = sys.modules[f"{PACKAGE}.measure"].CountTable
        post_init = table_cls.__post_init__

        def counted(table_self):
            self.new_tables += 1
            return post_init(table_self)

        self._patches.append((table_cls, "__post_init__", post_init, counted))

    def known_metrics(self) -> Set[str]:
        """Every per-layer metric name `summarize` can give: a metric of a
        function it wraps reads 0 when the function is not called, while a
        name outside this set means a function that is gone or unwrapped."""
        known = {"measure.CountTable.new", "trace.wall_s", "trace.uncovered_s",
                 "trace.overhead_s", "trace.spans"}
        parser = sys.modules[f"{PACKAGE}.cli"].build_parser()
        commands = next(a.choices for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        names = self.wrapped + [f"cli.main.{c}" for c in commands]
        for name in names:
            known.update((f"{name}.s", f"{name}.calls"))
            if name in _WRITTEN:
                known.add(f"{name}.mb")
            if name in _TRIALS:
                known.add(f"{name}.trials")
        return known

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        written, trials = _WRITTEN.get(name), _TRIALS.get(name)
        fixed = self._name_id(name)
        by_command = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (fixed, parent, t0, t1, 0, 0)
            if by_command:
                # cli.main gets one span name per subcommand
                argv = args[0] if args else kwargs.get("argv")
                nid = self._name_id(f"cli.main.{argv[0] if argv else 'none'}")
                spans[sid] = (nid, parent, t0, t1, 0, 0)
            elif written or trials:
                spans[sid] = (fixed, parent, t0, t1, written(args, out) if written else 0,
                              trials(out) if trials else 0)
            return out

        return wrapper

    def _name_id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    @property
    def names(self) -> List[str]:
        return list(self._ids)

    def install(self) -> None:
        for holder, attr, _original, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _wrapper in self._patches:
            setattr(holder, attr, original)

    def summarize(self, lo: int, hi: int, t_start: float, wall: float) -> Dict[str, float]:
        """Per-layer figures of spans[lo:hi], recorded during the `wall`
        seconds from `t_start` on (both on the time.perf_counter clock).

        A span's self time is its duration minus that of its child spans.
        Time no root span covers is reported as trace.uncovered_s. Both are
        also found by a sweep over the span intervals that ignores the
        recorded parents and gives each instant to the innermost open span;
        the two must agree name by name, which holds only if every span
        lies inside the unit, children nest inside their parents and root
        spans do not overlap. Then the self times and the uncovered time
        add up to the wall time.
        """
        spans = self.spans[lo:hi]
        names = self.names
        # Times relative to the unit's start: the subtraction is exact for
        # times this close together, and what follows stays accurate.
        rel = [(t0 - t_start, t1 - t_start) for _n, _p, t0, t1, _b, _t in spans]
        if any(not 0.0 <= r0 <= r1 <= wall for r0, r1 in rel):
            raise RuntimeError("a span lies outside the traced unit")
        child = [0.0] * len(spans)
        for (nid, parent, *_rest), (r0, r1) in zip(spans, rel):
            if parent >= lo:
                child[parent - lo] += r1 - r0
        out: Dict[str, float] = {}
        roots = 0.0
        for k, ((nid, parent, _t0, _t1, nbytes, trials), (r0, r1)) in enumerate(zip(spans, rel)):
            name = names[nid]
            if parent < lo:
                roots += r1 - r0
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (r1 - r0) - child[k]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            if name in _WRITTEN:
                out[f"{name}.mb"] = out.get(f"{name}.mb", 0.0) + nbytes / 1e6
            if name in _TRIALS:
                out[f"{name}.trials"] = out.get(f"{name}.trials", 0) + trials
        swept, uncovered = _sweep(rel, wall)
        by_name: Dict[str, float] = {}
        for (nid, *_rest), own in zip(spans, swept):
            by_name[names[nid]] = by_name.get(names[nid], 0.0) + own
        tol = 1e-9 * (1 + len(spans))
        if abs(uncovered - (wall - roots)) > tol or any(
                abs(own - out[f"{name}.s"]) > tol for name, own in by_name.items()):
            raise RuntimeError("span self times do not add up to the wall time: "
                               "spans overlap or do not nest")
        out["trace.wall_s"] = wall
        out["trace.uncovered_s"] = uncovered
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: str) -> None:
        """Save every span as `name,parent,start,end,bytes,trials` lines."""
        names = self.names
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,parent,start,end,bytes,trials\n")
            for nid, parent, t0, t1, nbytes, trials in self.spans:
                fh.write(f"{names[nid]},{parent},{t0:.9f},{t1:.9f},"
                         f"{nbytes},{trials}\n")


def _sweep(rel: List[Tuple[float, float]], wall: float) -> Tuple[List[float], float]:
    """Self time of each interval in `rel` and the time none covers in
    [0, wall], giving every instant to the open interval that opened last
    (the innermost one when intervals nest)."""
    events = sorted([(r0, k) for k, (r0, _r1) in enumerate(rel)]
                    + [(r1, -1 - k) for k, (_r0, r1) in enumerate(rel)])
    own = [0.0] * len(rel)
    uncovered = 0.0
    open_: List[int] = []  # heap of -index
    closed = set()
    prev = 0.0
    i = 0
    while i < len(events):
        t = events[i][0]
        while open_ and -open_[0] in closed:
            heapq.heappop(open_)
        if open_:
            own[-open_[0]] += t - prev
        else:
            uncovered += t - prev
        while i < len(events) and events[i][0] == t:
            k = events[i][1]
            if k >= 0:
                heapq.heappush(open_, -k)
            else:
                closed.add(-1 - k)
            i += 1
        prev = t
    return own, uncovered + (wall - prev)
