"""In-memory span recording around the program's layer boundaries.

The tracer wraps public functions where the calling module looks them up
(a module global, a class attribute or a dict entry), so the program itself
carries no tracing code.  Each call becomes one span: name, start, end, the
enclosing span and the dispatcher invocation it belongs to.  Spans live in
flat arrays (a traced replay records tens of thousands of propagator calls)
and are written out once the benchmark ends.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.current_invocation = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        code = self._name_ids.get(name)
        if code is None:
            code = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[[], None] | None = None,
        after: Callable[[Any], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; optional hooks see the call."""
        code = self._name_id(name)
        name_of, starts, ends = self.name_of, self.start, self.end
        parents, invocations, stack = self.parent, self.invocation, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before()
            idx = len(starts)
            name_of.append(code)
            parents.append(stack[-1])
            invocations.append(tracer.current_invocation)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced wrapper."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else owner.__dict__.get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} defines no {attr!r}")
        wrapped = self.wrap(name, original, **hooks)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, is_dict))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original, is_dict = self._patches.pop()
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def clear(self) -> None:
        for arr in (self.name_of, self.start, self.end, self.parent, self.invocation):
            del arr[:]
        self.counts.clear()
        self.current_invocation = 0
        self._stack[:] = [-1]

    # -- analysis ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly, so children never overlap.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += duration[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["total_s"] += duration[i]
            row["self_s"] += duration[i] - covered[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: id,name,start_s,end_s,parent,invocation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,invocation\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i] - origin:.9f},"
                    f"{self.end[i] - origin:.9f},{self.parent[i]},{self.invocation[i]}\n"
                )
