"""In-memory span tracer that wraps the program's public calls from outside.

The benchmark does not instrument ``repro``: a :class:`Tracer` replaces
chosen module functions and class methods with timing wrappers for the
length of one traced run and puts the originals back afterwards.
Patching the *class* (not an instance) matters: calls the program makes
internally — BFDSU and RCKK inside ``DeploymentEngine.rebalance``,
``ScenarioArrays.remove_request`` inside ``depart`` — go through the
same attribute lookup and so get their own spans, nested under the
caller's.

Each span records a name, start, end and parent index; spans stay in
memory and are written out once, at the end.  A span's *self* time is
its duration minus the time its direct children cover (calls nest and
run on one thread, so children never overlap); a name's *busy* time
sums its outermost spans only, so a recursive call is not counted twice.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: ``on_result(counters, result, args)`` — turns a call's return value
#: into counts.
ResultHook = Callable[[Dict[str, float], object, tuple], None]


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        #: Seconds source of every span: wall time by default;
        #: ``time.process_time`` for single-threaded CPU time.
        self.clock = clock
        #: ``[name, start, end, parent]`` per span, in opening order.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._active = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (no-op while inactive)."""
        if not self._active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def paused(self):
        """Run the enclosed block untraced (its calls record nothing)."""
        was, self._active = self._active, False
        try:
            yield
        finally:
            self._active = was

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[ResultHook] = None,
    ) -> None:
        """Wrap ``owner.attr``: a module function, a class method, or a
        method of one instance (then only calls through it are timed)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._active:
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer.counters, result, args)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original, traced))

    @contextmanager
    def installed(self):
        """Apply every patch and record; restore the originals on exit."""
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def starts(self, name: str) -> List[float]:
        return [s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def busy_times(self) -> Dict[str, float]:
        return busy_times(self.spans)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the
        first span (a serving replay records a few hundred thousand)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def _self_by_span(spans: List[list]):
    """``(name, self seconds)`` per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [
        (s[0], (s[2] - s[1]) - child[i]) for i, s in enumerate(spans)
    ]


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per name: summed duration minus the time direct children cover."""
    out: Dict[str, float] = {}
    for name, seconds in _self_by_span(spans):
        out[name] = out.get(name, 0.0) + seconds
    return out


def busy_times(spans: List[list]) -> Dict[str, float]:
    """Per name: summed duration of spans with no same-named ancestor."""
    out: Dict[str, float] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            out[name] = out.get(name, 0.0) + (end - start)
    return out
