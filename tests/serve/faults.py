"""Deterministic fault injection for the serving front end.

Every failure mode the production broker must survive — slow backends,
poisoned queries, mid-build crashes, followers racing the batch window —
is reproduced here *without sleeps or timing luck*:

* :class:`FakeClock` — a controllable monotonic clock satisfying the
  :class:`~repro.serve.frontend.MonotonicClock` protocol.  ``advance``
  moves time explicitly; ``wait_for`` consumes the requested timeout in
  fake time instead of blocking, so window logic runs at test speed.
* :class:`FaultyBackend` — wraps any
  :class:`~repro.serve.backends.ANNBackend`; ``query`` can add per-call
  latency, block on a gate event (signalling ``entered`` so the test
  knows the batch is mid-flight), raise injected exceptions, or start
  failing after N successful calls.
* :class:`FaultyStore` — an :class:`~repro.serve.store.EmbeddingStore`
  whose ``embed_batch`` / ``upsert_batch`` can be poisoned per text,
  gated, delayed, or set to fail after N calls — the lever for
  "reindex dies halfway through the shadow build" and "one query
  poisons a coalesced batch".

The wrappers inject faults *before* delegating, so a fault never leaves
the wrapped component in a half-mutated state — what fails is the call,
not the invariant.
"""

import threading
import time
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.serve.backends import ANNBackend
from repro.serve.store import EmbeddingStore


class InjectedFault(RuntimeError):
    """The error type every injected failure raises (so tests can tell
    injected faults from genuine bugs with one ``pytest.raises``)."""


class FakeClock:
    """A deterministic stand-in for :class:`MonotonicClock`.

    ``now`` returns a counter that only moves via :meth:`advance` (or
    via :meth:`wait_for`, which converts its timeout into fake time).
    ``wait_for`` still honours an already-set event — a leader polling
    for followers sees them immediately — but never blocks the thread,
    so a test controls exactly how much time has passed at each step.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()
        self._now = float(start)

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move fake time forward (never backward)."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        with self._lock:
            self._now += seconds

    def wait_for(self, event: threading.Event, timeout: float) -> bool:
        """Consume ``timeout`` in fake time; report whether ``event`` is
        set.  No real blocking — the waiting loop re-checks its flush
        condition against the advanced clock on return."""
        if not event.is_set():
            self.advance(max(0.0, timeout))
        return event.is_set()


class FaultyBackend(ANNBackend):
    """An :class:`ANNBackend` wrapper with injectable query faults.

    Parameters
    ----------
    inner:
        The real backend every healthy call delegates to.
    query_delay_s:
        Real sleep added to every ``query`` (latency injection).
    gate / entered:
        Optional events: when ``gate`` is given, ``query`` sets
        ``entered`` (if given) and blocks until ``gate`` is set — the
        deterministic way to hold a batch in flight while the test
        arranges a burst, then release it.
    fail_query_after:
        Number of ``query`` calls that succeed before every later call
        raises :class:`InjectedFault`; ``None`` disables.
    fail_batch_larger_than:
        Raise whenever a single ``query`` call carries more than this
        many rows (the "big batches fail, retries alone succeed" fault
        that exercises per-request isolation); ``None`` disables.
    """

    def __init__(
        self,
        inner: ANNBackend,
        query_delay_s: float = 0.0,
        gate: Optional[threading.Event] = None,
        entered: Optional[threading.Event] = None,
        fail_query_after: Optional[int] = None,
        fail_batch_larger_than: Optional[int] = None,
    ) -> None:
        self.inner = inner
        self.query_delay_s = query_delay_s
        self.gate = gate
        self.entered = entered
        self.fail_query_after = fail_query_after
        self.fail_batch_larger_than = fail_batch_larger_than
        self.query_calls = 0
        self.name = f"faulty-{inner.name}"

    def __len__(self) -> int:
        return len(self.inner)

    def build(self, vectors: np.ndarray) -> "FaultyBackend":
        self.inner.build(vectors)
        return self

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> "FaultyBackend":
        self.inner.add(ids, vectors)
        return self

    def remove(self, ids: Sequence[int]) -> "FaultyBackend":
        self.inner.remove(ids)
        return self

    def rebuild(self) -> "FaultyBackend":
        self.inner.rebuild()
        return self

    def query(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        self.query_calls += 1
        if self.entered is not None:
            self.entered.set()
        if self.gate is not None:
            self.gate.wait()
        if self.query_delay_s:
            time.sleep(self.query_delay_s)
        if (
            self.fail_query_after is not None
            and self.query_calls > self.fail_query_after
        ):
            raise InjectedFault(
                f"injected backend failure on query call {self.query_calls}"
            )
        if (
            self.fail_batch_larger_than is not None
            and queries.shape[0] > self.fail_batch_larger_than
        ):
            raise InjectedFault(
                f"injected failure on oversized batch of {queries.shape[0]}"
            )
        return self.inner.query(queries, k)


class FaultyStore(EmbeddingStore):
    """An :class:`EmbeddingStore` with injectable embed/upsert faults.

    * ``poison_texts`` — any ``embed_batch`` containing one of these
      texts raises :class:`InjectedFault` (the per-query poison used by
      the coalescer isolation tests).
    * ``fail_upsert_after`` — number of ``upsert_batch`` calls that
      succeed before every later call raises (0 = fail immediately);
      this is how a blue/green shadow build is killed mid-flight.
    * ``embed_gate`` / ``embed_entered`` — like
      :class:`FaultyBackend`'s gate, but around the embed step, which is
      where a search batch spends its time on the real service.
    * ``embed_delay_s`` — real sleep per ``embed_batch`` call.

    Faults fire *before* delegation, so a failed call leaves the cache
    and id maps exactly as they were.
    """

    def __init__(
        self,
        encoder,
        poison_texts: Iterable[str] = (),
        fail_upsert_after: Optional[int] = None,
        embed_gate: Optional[threading.Event] = None,
        embed_entered: Optional[threading.Event] = None,
        embed_delay_s: float = 0.0,
        **kwargs,
    ) -> None:
        super().__init__(encoder, **kwargs)
        self.poison_texts = set(poison_texts)
        self.fail_upsert_after = fail_upsert_after
        self.embed_gate = embed_gate
        self.embed_entered = embed_entered
        self.embed_delay_s = embed_delay_s
        self.embed_calls = 0
        self.upsert_calls = 0

    def _inject_embed_faults(self, texts: Sequence[str]) -> None:
        self.embed_calls += 1
        if self.embed_entered is not None:
            self.embed_entered.set()
        if self.embed_gate is not None:
            self.embed_gate.wait()
        if self.embed_delay_s:
            time.sleep(self.embed_delay_s)
        poisoned = [t for t in texts if t in self.poison_texts]
        if poisoned:
            raise InjectedFault(f"injected poison on embed of {poisoned!r}")

    def embed_batch(self, texts, normalize=False, chunk_size=None, cache=True):
        self._inject_embed_faults(texts)
        return super().embed_batch(
            texts, normalize=normalize, chunk_size=chunk_size, cache=cache
        )

    def upsert_batch(self, texts, normalize=False, chunk_size=None):
        self.upsert_calls += 1
        if (
            self.fail_upsert_after is not None
            and self.upsert_calls > self.fail_upsert_after
        ):
            raise InjectedFault(
                f"injected upsert failure on call {self.upsert_calls}"
            )
        return super().upsert_batch(
            texts, normalize=normalize, chunk_size=chunk_size
        )
