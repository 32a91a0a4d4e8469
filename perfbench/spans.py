"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions; nothing inside ``logparser_ray`` is edited. A
span has a name, start, end, parent and run id. Spans stay in memory and
are written once, when the run ends.

``instrument`` swaps a module or class attribute for a timing wrapper for
the length of a ``with`` block, so a call the program makes internally
(``write_packed_shard`` → ``pack_by_key``, ``parse`` → ``match_stage``)
becomes a child span; a stage that returns a lazy Dataset is materialized
inside its span. Only calls in this process are seen: Ray worker processes
import their own copy.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import logging
import os
import re
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Recorder:
    """In-memory spans; ``enabled=False`` makes ``span`` a no-op, so the
    same replay code runs traced and untraced."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    @contextlib.contextmanager
    def instrument(self, owner, attr: str, name: str, finish=None, calls: list | None = None):
        """Record every call to ``owner.attr`` inside the block as a span.
        ``finish(result)`` runs inside the span and replaces the result (to
        materialize a lazy Dataset); ``calls`` collects ``(args, result)``."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            with self.span(name):
                out = orig(*a, **kw)
                if finish is not None:
                    out = finish(out)
            if calls is not None:
                calls.append((a, out))
            return out

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name over the subtree under span ``root``:
        a span's duration minus the part its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans[root + 1 :]:
            children[s.parent].append(s)
        out: dict[str, float] = defaultdict(float)

        def walk(s: Span) -> None:
            kids = children.get(s.id, [])
            out[s.name] += (s.end - s.start) - sum(k.end - k.start for k in kids)
            for k in kids:
                walk(k)

        walk(self.spans[root])
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def descendants() -> list[int]:
    """Every process below this one in the process tree, zombies included."""
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    mine, todo = [], [os.getpid()]
    while todo:
        p = todo.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        mine.extend(kids)
        todo.extend(kids)
    return mine


def ray_processes() -> list[int]:
    """This process and its Ray worker processes (descendants whose command
    line starts with ``ray::``)."""
    out = [os.getpid()]
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    out.append(pid)
        except OSError:
            continue
    return out


def _rchars() -> dict[int, int]:
    out = {}
    for pid in ray_processes():
        try:
            with open(f"/proc/{pid}/io") as f:
                out[pid] = next(int(line.split()[1]) for line in f if line.startswith("rchar:"))
        except (OSError, StopIteration):
            continue
    return out


def bytes_reader():
    """Returns a function giving the bytes read through read() syscalls since
    this call, by this process and the Ray worker processes that exist at
    both ends (a worker started in between would count its imports)."""
    before = _rchars()

    def since() -> int:
        now = _rchars()
        return sum(now[p] - before[p] for p in before.keys() & now.keys())

    return since


class RayDataCounter(logging.Handler):
    """Collects the plan of every Ray Data execution this process starts
    (Ray Data logs it at INFO before executing)."""

    _PLAN = re.compile(r"Execution plan of Dataset \S+: (.*)")

    def __init__(self):
        super().__init__(logging.INFO)
        self.plans: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        m = self._PLAN.match(record.getMessage())
        if m:
            self.plans.append(m.group(1))

    @contextlib.contextmanager
    def attached(self):
        logger = logging.getLogger("ray.data")
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)


def map_tasks_logged(ray_tmp: str) -> int:
    """Ray Data map tasks started so far in the newest Ray session: each
    task logs one line to the session's ``ray-data`` log files. Session
    directories are named by start time, so the newest sorts last."""
    session = sorted(glob.glob(os.path.join(ray_tmp, "session_2*")))[-1]
    n = 0
    for path in glob.glob(os.path.join(session, "logs", "ray-data", "*.log")):
        with open(path, errors="replace") as f:
            n += sum("Executing map task" in line for line in f)
    return n
