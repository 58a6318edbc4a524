"""Outside-in tracer for the perf benchmark.

Everything here lives on the benchmark's side of the API boundary: the
workloads open explicit spans around the public calls they make, and
for a traced run :meth:`Tracer.shim` swaps timing wrappers onto *public*
callables of the program (the ``repro.eval.perf.OpProfiler`` idiom:
replace the attribute, restore it on exit).  Spans stay in memory and
are written once, when the run ends.

A span is ``(id, name, parent id, thread id, start, end)``; the parent is
whichever span was open on the same thread when this one started, so
spans of one operation share a root.  While ``enabled`` is false — always,
on an untraced run — ``span`` yields immediately and ``shim`` installs
nothing, so the measured path is the program's own.  A traced run turns
tracing on and off between like pieces of work (``Workload.trace_on`` /
``trace_off``), which is how its overhead is measured.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, str, int, int, float, float]


class Tracer:
    """In-memory span recorder plus restorable timing shims."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._open = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        self._grouped: Tuple[int, Dict[str, List[float]]] = (0, {})

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span named ``name``."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, parent, threading.get_ident(), start, end)
            )

    def _stack(self) -> List[int]:
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name`` (traced runs only)."""
        if self.enabled:
            self.counts[name] += amount

    # -- shims ----------------------------------------------------------
    def shim(
        self,
        owner: object,
        attribute: str,
        name: str,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a wrapper that records a span
        per call (and runs ``on_call(args, kwargs, result)`` for counts).
        A no-op when tracing is off.  :meth:`restore` undoes every shim.
        """
        if not self.enabled:
            return
        original = getattr(owner, attribute)
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attribute)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        # ``vars`` distinguishes "set on this object" from "inherited", so
        # restoring an instance shim deletes it instead of pinning a copy.
        own = attribute in vars(owner)
        self._saved.append((owner, attribute, original if own else _INHERITED))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put back every attribute :meth:`shim` replaced."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Guarantee :meth:`restore` on normal exit and on exception."""
        try:
            yield self
        finally:
            self.restore()

    # -- aggregation ----------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Every ``name`` span's duration in seconds, in finish order."""
        if self._grouped[0] != len(self.spans):  # regroup only after new spans
            grouped: Dict[str, List[float]] = defaultdict(list)
            for _, span_name, _, _, start, end in self.spans:
                grouped[span_name].append(end - start)
            self._grouped = (len(self.spans), grouped)
        return self._grouped[1].get(name, [])

    def busy(self, name: str) -> float:
        """Summed span time of ``name`` (0.0 when it never ran)."""
        return float(sum(self.durations(name)))

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def coverage(self, root: str) -> float:
        """Share of ``root`` spans' time covered by their direct children
        — the parts-account-for-the-whole check (1.0 = no self time)."""
        roots = {s[0]: s[5] - s[4] for s in self.spans if s[1] == root}
        total = sum(roots.values())
        if total <= 0.0:
            return 0.0
        covered = sum(s[5] - s[4] for s in self.spans if s[2] in roots)
        return covered / total

    def write(self, path: Path, header: Dict[str, object]) -> None:
        """Dump header, counters and every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0.0)
        payload = {
            "header": header,
            "counts": dict(self.counts),
            "span_fields": ["id", "name", "parent", "thread", "start_s", "end_s"],
            "spans": [
                [sid, name, parent, thread, start - origin, end - origin]
                for sid, name, parent, thread, start, end in self.spans
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


_INHERITED = object()
