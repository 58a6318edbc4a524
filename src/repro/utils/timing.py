"""Wall-clock timing helpers used by the runtime experiments (Figures 9-11)."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class Timer:
    """Accumulates named wall-clock durations.

    >>> timer = Timer()
    >>> with timer.section("pretrain"):
    ...     pass
    >>> "pretrain" in timer.totals
    True
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def summary(self) -> Dict[str, float]:
        return dict(self.totals)

