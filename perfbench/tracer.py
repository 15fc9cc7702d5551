"""Spans and counts taken by thin wrappers around epdyn's public functions.

Only the traced run installs the wrappers, and it removes them again before
any untraced pass. A wrapper replaces a public name on the module object its
callers look it up through (``epdyn.loops.field_at``, ``epdyn.analysis.
propagate_direct``, ...); nothing inside ``src/`` is edited.

Two kinds of wrapper:

* a *span* wrapper records (run id, span id, parent span id, pid, name,
  start, end) for each call;
* a *leaf* wrapper is for hot functions that call no other wrapped function
  (``field_at`` runs once per RHS evaluation). It adds its call count and
  duration to the enclosing span instead of recording a span per call,
  which keeps memory and overhead small and loses nothing self time needs.

Self time of a span is its duration minus the time covered by its child
spans and leaf calls in the same process. Spans run sequentially on one
thread, so that cover is a plain sum.

Sweep cells run in forked pool workers. The wrappers are inherited by the
fork; an after-fork hook gives the worker an empty span list whose open
parents are the spans that were open at fork time, and a finalizer writes
the worker's spans to a file that the parent merges after the pool closes.
"""

from __future__ import annotations

import functools
import glob
import json
import multiprocessing.util
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    run: str
    id: int
    parent: Optional[int]
    pid: int
    name: str
    start: float
    end: float = 0.0
    leaf: dict = field(default_factory=dict)  # name -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One public name to wrap: ``module.attr`` reported as ``name``."""

    module: object
    attr: str
    name: str
    leaf: bool = False
    on_result: Optional[Callable] = None  # (tracer, result) -> None


class Tracer:
    def __init__(self, run_id: str, child_dir: str) -> None:
        self.run_id = run_id
        self.child_dir = child_dir
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []
        self._next = 0
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording ---------------------------------------------------------

    def _new_id(self) -> int:
        self._next += 1
        # ids stay unique across forked workers
        return self._pid * 1_000_000 + self._next

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self.run_id, self._new_id(), parent, self._pid, name, time.perf_counter())
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, target: Target):
        if target.leaf:

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot = self._stack[-1].leaf.setdefault(target.name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += time.perf_counter() - t0

            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            s = self.begin(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(s)
            if target.on_result is not None:
                target.on_result(self, result)
            return result

        return span

    # -- installation ------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for t in targets:
            original = getattr(t.module, t.attr)
            self._saved.append((t.module, t.attr, original))
            setattr(t.module, t.attr, self._wrap(original, t))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- forked workers ----------------------------------------------------

    def _after_fork(self) -> None:
        if not self._saved:  # forked by an untraced pass
            return
        self._pid = os.getpid()
        self._next = 0
        self.spans = []
        self.counters = {}
        multiprocessing.util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        path = os.path.join(self.child_dir, f"worker-{self._pid}.json")
        doc = {"spans": [s.__dict__ for s in self.spans], "counters": self.counters}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def merge_workers(self) -> int:
        """Fold finished workers' spans and counters in; returns workers merged."""
        paths = sorted(glob.glob(os.path.join(self.child_dir, "worker-*.json")))
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(path)
            self.spans.extend(Span(**s) for s in doc["spans"])
            for k, v in doc["counters"].items():
                self.count(k, v)
        return len(paths)


def write_spans(spans: list[Span], path: str) -> None:
    """All spans of a run as JSON lines, written once when the run ends."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus same-process child spans and leaf calls."""
    covered: dict[int, float] = {}
    pid_of = {s.id: s.pid for s in spans}
    for s in spans:
        if s.parent is not None and pid_of.get(s.parent) == s.pid:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {
        s.id: s.duration - covered.get(s.id, 0.0) - sum(v[1] for v in s.leaf.values())
        for s in spans
    }
