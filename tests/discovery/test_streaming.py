"""Streaming-ER scenario tests: feed generation, write buffering,
staleness measurement, and mid-stream deletion semantics."""

import numpy as np
import pytest

from repro.discovery import FeedEvent, make_feed, run_streaming_er
from repro.serve import MetricsRegistry


class ManualClock:
    """A callable fake clock: every call returns the current fake time,
    moved only by :meth:`advance`."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class RecordingTarget:
    """An in-memory stand-in for the front end: a set of live texts plus
    an operation log, with an optional clock advanced per operation so
    staleness is exactly computable."""

    def __init__(self, initial=(), clock=None, cost_s=1.0):
        self.live = set(initial)
        self.log = []
        self.clock = clock
        self.cost_s = cost_s

    def _tick(self):
        if self.clock is not None:
            self.clock.advance(self.cost_s)

    def upsert_records(self, texts):
        self._tick()
        self.live.update(texts)
        self.log.append(("upsert", tuple(texts)))
        return np.arange(len(texts))

    def delete_records(self, texts):
        self._tick()
        for text in texts:
            self.live.discard(text)
        self.log.append(("delete", tuple(texts)))
        return np.arange(len(texts))

    def search(self, texts, k=5, deadline_ms=None, priority=0):
        self._tick()
        self.log.append(("search", tuple(texts)))
        return np.zeros((len(texts), k), dtype=int), np.zeros((len(texts), k))

    @property
    def index_size(self):
        return len(self.live)


CORPUS = [f"[COL] name [VAL] record {i}" for i in range(12)]


class TestMakeFeed:
    def test_deterministic_per_seed(self):
        one = make_feed(CORPUS[:6], CORPUS[6:], num_events=40, seed=9)
        two = make_feed(CORPUS[:6], CORPUS[6:], num_events=40, seed=9)
        assert one == two
        other = make_feed(CORPUS[:6], CORPUS[6:], num_events=40, seed=10)
        assert one != other

    def test_event_mix_and_validity(self):
        events = make_feed(
            CORPUS[:6], CORPUS[6:], num_events=80,
            search_fraction=0.4, delete_fraction=0.3, seed=1,
        )
        kinds = {kind for event in events for kind in [event.kind]}
        assert kinds == {"upsert", "delete", "search"}
        assert [event.seq for event in events] == list(range(80))

    def test_deletes_only_target_live_records(self):
        events = make_feed(
            CORPUS[:4], CORPUS[4:], num_events=100,
            search_fraction=0.2, delete_fraction=0.4, seed=2,
        )
        live = set(CORPUS[:4])
        for event in events:
            if event.kind == "upsert":
                assert event.texts[0] not in live  # live texts stay unique
                live.add(event.texts[0])
            elif event.kind == "delete":
                assert event.texts[0] in live
                live.discard(event.texts[0])
            else:
                assert event.texts[0] in live

    def test_upserts_cycle_with_revision_suffix(self):
        events = make_feed(
            CORPUS[:1], CORPUS[1:3], num_events=30,
            search_fraction=0.0, delete_fraction=0.0, seed=0,
        )
        upserted = [event.texts[0] for event in events]
        assert len(set(upserted)) == len(upserted)
        assert any("rev" in text for text in upserted)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError, match="corpus"):
            make_feed([], [], num_events=5)
        with pytest.raises(ValueError, match="search_fraction"):
            make_feed(CORPUS[:2], [], search_fraction=1.5)
        with pytest.raises(ValueError, match="kind"):
            FeedEvent(seq=0, kind="compact", texts=("x",))
        with pytest.raises(ValueError, match="text"):
            FeedEvent(seq=0, kind="upsert", texts=())


class TestRunStreamingER:
    def test_counts_and_mid_stream_deletion(self):
        events = make_feed(
            CORPUS[:6], CORPUS[6:], num_events=60,
            search_fraction=0.4, delete_fraction=0.25, seed=4,
        )
        target = RecordingTarget(initial=CORPUS[:6])
        stats = run_streaming_er(target, events, flush_every=4)
        upserts = sum(1 for e in events if e.kind == "upsert")
        deletes = sum(1 for e in events if e.kind == "delete")
        searches = sum(1 for e in events if e.kind == "search")
        assert deletes > 0, "feed must delete mid-stream"
        assert stats["upserts"] == upserts
        assert stats["deletes"] == deletes
        assert stats["searches"] == searches == stats["searches_completed"]
        # The live set reflects every applied write: deletions really
        # removed records from the index.
        assert stats["final_index_size"] == 6 + upserts - deletes
        assert stats["pending_writes"] == 0.0

    def test_writes_flush_in_arrival_order(self):
        events = [
            FeedEvent(seq=0, kind="upsert", texts=("a",)),
            FeedEvent(seq=1, kind="delete", texts=("a",)),
            FeedEvent(seq=2, kind="upsert", texts=("b",)),
        ]
        target = RecordingTarget()
        stats = run_streaming_er(target, events, flush_every=10)
        assert [kind for kind, _ in target.log] == ["upsert", "delete", "upsert"]
        assert target.live == {"b"}
        assert stats["final_index_size"] == 1

    def test_staleness_measured_against_fake_clock(self):
        clock = ManualClock()
        # Every operation (including each search) costs exactly 1s of
        # fake time, so a write buffered behind `flush_every` grows
        # predictably old before it becomes searchable.
        target = RecordingTarget(clock=clock, cost_s=1.0)
        events = [
            FeedEvent(seq=0, kind="upsert", texts=("a",)),   # t=0 arrival
            FeedEvent(seq=1, kind="search", texts=("a",)),   # +1s
            FeedEvent(seq=2, kind="search", texts=("a",)),   # +1s
            FeedEvent(seq=3, kind="upsert", texts=("b",)),   # t=2 arrival
        ]
        metrics = MetricsRegistry()
        stats = run_streaming_er(
            target, events, flush_every=2, metrics=metrics, clock=clock
        )
        # Both writes flush together once "b" arrives, and the apply
        # stamp is read after both 1s apply operations (fake t=4): "a"
        # (arrived t=0) is 4s old when it becomes searchable, "b"
        # (arrived t=2) is 2s old.
        snapshot = metrics.histogram("streaming_er.staleness_s").snapshot()
        assert snapshot["count"] == 2
        assert snapshot["max"] == pytest.approx(4.0)
        assert snapshot["min"] == pytest.approx(2.0)
        assert stats["staleness_max_s"] == pytest.approx(4.0)
        assert stats["qps"] == pytest.approx(2 / stats["elapsed_s"])

    def test_trailing_writes_flush_at_end(self):
        events = [FeedEvent(seq=0, kind="upsert", texts=("only",))]
        target = RecordingTarget()
        stats = run_streaming_er(target, events, flush_every=100)
        assert target.live == {"only"}
        assert stats["pending_writes"] == 0.0

    def test_flush_every_must_be_positive(self):
        with pytest.raises(ValueError, match="flush_every"):
            run_streaming_er(RecordingTarget(), [], flush_every=0)
