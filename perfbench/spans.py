"""Spans around calls into mcsym's layers, recorded from outside the package.

The benchmark does not instrument ``src/``.  Instead it rebinds module
attributes for the duration of a traced pass: every attribute of every loaded
``mcsym`` module that is bound to a traced function is replaced by one shared
wrapper, so ``from .perm import join_sets`` copies in other modules are
covered as well as recursive calls through the defining module.

Self time of a span is its duration minus the part covered by its children.
Children on the same thread nest and never overlap, so their durations add up.
On the main thread a duration is wall-clock time.  On any other thread it is
that thread's CPU time (``time.thread_time``): the detection service runs its
worker threads side by side under one interpreter lock, and the wall-clock
span of one worker also covers the time its siblings ran.  Calls made on the
service's worker threads have no parent on their own thread; they are
attached to the service request that is open on the calling thread, and the
union of their wall-clock intervals is subtracted from it.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

now = time.perf_counter


def _lookup(path: str):
    """``"mcsym.detect.DetectionService.request"`` -> (owner, attr, value)."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is None:
            continue
        owner = mod
        for p in parts[cut:-1]:
            owner = getattr(owner, p)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise KeyError(f"{path}: module not loaded")


@contextlib.contextmanager
def patched(wrappers: dict[str, Callable[[Callable], Callable]]) -> Iterator[None]:
    """Rebind each traced function wherever an ``mcsym`` module binds it.

    ``wrappers`` maps the function's defining path to a factory that takes the
    original and returns its replacement.  Everything is restored on exit.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for path, factory in wrappers.items():
            owner, attr, original = _lookup(path)
            wrapper = factory(original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "mcsym" or name.startswith("mcsym.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class _Frame:
    __slots__ = ("sid", "name", "start", "clock0", "child_s", "parent", "same_thread", "cross")

    def __init__(
        self, sid: int, name: str, start: float, clock0: float, parent: "_Frame | None",
        same_thread: bool,
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start  # wall clock
        self.clock0 = clock0  # the clock durations are taken on, on this thread
        self.child_s = 0.0
        self.parent = parent
        self.same_thread = same_thread
        self.cross: list[tuple[float, float]] | None = None


@dataclass
class LayerTime:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


# Spans kept in memory per run; later ones are only aggregated.
MAX_SPANS = 100_000


class Tracer:
    """Spans kept in memory (up to ``MAX_SPANS``), plus exact per-name totals.

    ``layers`` and ``counters`` are always complete; spans beyond the cap,
    and spans of calls traced with ``keep=False``, are only aggregated.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str, str]] = []
        self.dropped = 0
        self.layers: dict[str, LayerTime] = defaultdict(LayerTime)
        self.counters: Counter[str] = Counter()
        self.trace_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._ambient: _Frame | None = None

    def _thread(self) -> tuple[list[_Frame], Callable[[], float]]:
        """This thread's open spans, and the clock its durations are taken on."""
        local = self._local
        st = getattr(local, "stack", None)
        if st is None:
            st = local.stack = []
            main = threading.current_thread() is threading.main_thread()
            local.clock = now if main else time.thread_time
        return st, local.clock

    def reset(self) -> None:
        """Clear totals and counters; spans already kept stay kept."""
        self.layers = defaultdict(LayerTime)
        self.counters = Counter()

    def _enter(self, name: str, ambient: bool) -> _Frame:
        stack, clock = self._thread()
        parent = stack[-1] if stack else self._ambient
        with self._lock:
            sid = self._next
            self._next += 1
        frame = _Frame(sid, name, now(), clock(), parent, bool(stack))
        stack.append(frame)
        if ambient:
            frame.cross = []
            self._ambient = frame
        return frame

    def _exit(self, frame: _Frame, keep: bool, ambient: bool) -> None:
        stack, clock = self._thread()
        dur = clock() - frame.clock0
        end = now()
        stack.pop()
        if ambient:
            self._ambient = None
        start, parent = frame.start, frame.parent
        with self._lock:
            covered = frame.child_s
            if frame.cross:
                covered += _union_length(frame.cross, start, end)
            lt = self.layers[frame.name]
            lt.calls += 1
            lt.total_s += dur
            lt.self_s += dur - covered
            if keep and len(self.spans) < MAX_SPANS:
                self.spans.append((frame.sid, frame.name, start, end, parent.sid if parent else None,
                                   self.trace_id, threading.current_thread().name))
            elif keep:
                self.dropped += 1
            if parent is not None and not frame.same_thread and parent.cross is not None:
                parent.cross.append((start, end))
        if parent is not None and frame.same_thread:
            parent.child_s += dur

    @contextlib.contextmanager
    def span(self, name: str, *, keep: bool = True, ambient: bool = False) -> Iterator[None]:
        """Time the body as one span; ``ambient`` adopts other threads' spans."""
        frame = self._enter(name, ambient)
        try:
            yield
        finally:
            self._exit(frame, keep, ambient)

    def wrap(
        self,
        name: str | Callable[..., str],
        count: Callable[["Tracer", tuple, dict, object], None] | None = None,
        *,
        keep: bool = True,
        ambient: bool = False,
    ) -> Callable[[Callable], Callable]:
        """A factory for :func:`patched`: time each call under ``name``.

        ``name`` may be a function of the call's arguments.  ``count`` runs
        inside the span, after the call, to update counters from the
        arguments and the result.
        """

        def factory(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                frame = self._enter(name(*args, **kwargs) if callable(name) else name, ambient)
                try:
                    result = fn(*args, **kwargs)
                    if count is not None:
                        count(self, args, kwargs, result)
                finally:
                    self._exit(frame, keep, ambient)
                return result

            traced.__wrapped__ = fn
            return traced

        return factory

    def write(self, path) -> None:
        """Write kept spans as JSON lines (name, start, end, parent, trace id)."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, trace, thread in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": round(start, 9), "end": round(end, 9),
                    "parent": parent, "trace": trace, "thread": thread,
                }) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
