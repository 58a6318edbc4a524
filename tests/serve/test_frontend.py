"""Fault-injection tests for the production service front end.

Every typed failure path of :class:`~repro.serve.broker.RequestBroker`
and :class:`~repro.serve.frontend.ServiceFrontend` is driven
deterministically — gates hold batches in flight while bursts are
arranged, a :class:`FakeClock` decides exactly which deadlines have
passed, and :class:`FaultyStore` kills shadow builds mid-flight:

* ``Overloaded``: shed-under-burst with an exactly-full admission queue.
* ``DeadlineExceeded``: expiry at admission and expiry *inside* the
  coalescing window while a batch holds the leader.
* mid-reindex fault: the blue/green build dies and the old index keeps
  serving, byte-for-byte.
* per-item error channel: one poisoned query in a coalesced batch fails
  alone (broker level and end-to-end through ``ServiceFrontend.search``).
* priority scheduling, metrics threading, and the session entry point.

The stress half — blue/green swap under 8-thread query load with a
no-mixed-results fingerprint check — lives at the bottom, marked
``stress`` like the rest of ``tests/serve``.
"""

import threading

import numpy as np
import pytest

from faults import FakeClock, FaultyBackend, FaultyStore, InjectedFault
from repro.api import SudowoodoSession
from repro.core import SudowoodoConfig, SudowoodoEncoder, build_tokenizer
from repro.serve import (
    DeadlineExceeded,
    MatchService,
    MetricsRegistry,
    Overloaded,
    RequestBroker,
    ServiceFrontend,
)

CORPUS = [f"[COL] name [VAL] record-{i} [COL] city [VAL] c{i % 5}" for i in range(24)]


def tiny_config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=400,
        mlm_warm_start_epochs=0,
        num_shards=3,
        coalesce_window_ms=0.0,
        max_coalesce_batch=16,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


@pytest.fixture(scope="module")
def encoder():
    config = tiny_config()
    return SudowoodoEncoder(config, build_tokenizer(CORPUS, config))


@pytest.fixture(scope="module")
def encoder_b():
    config = tiny_config(seed=7)
    return SudowoodoEncoder(config, build_tokenizer(CORPUS, config))


def make_frontend(encoder, store=None, clock=None, **config_overrides):
    config = tiny_config(**config_overrides)
    service = MatchService(encoder, config=config, store=store)
    service.index_records(CORPUS)
    return ServiceFrontend(service, clock=clock)


# ----------------------------------------------------------------------
# Broker-level harness: a fake run_batch with gates and poison
# ----------------------------------------------------------------------
def fake_search(texts, k):
    """Deterministic stand-in for search_batch: row i gets ids
    [h, h+1, ...] derived from the text, scores descending."""
    ids = np.empty((len(texts), k), dtype=np.int64)
    for row, text in enumerate(texts):
        base = sum(ord(c) for c in text) % 1000
        ids[row] = np.arange(base, base + k)
    scores = np.tile(np.linspace(1.0, 0.5, k), (len(texts), 1))
    return ids, scores


class GatedSearch:
    """fake_search plus a gate: the first call blocks (signalling
    ``entered``) until the test releases it; later calls pass through.
    Optionally poisons specific texts and records execution order."""

    def __init__(self, gate_first=True, poison=()):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.calls = []
        self.poison = set(poison)
        self._gate_armed = gate_first
        self._lock = threading.Lock()

    def __call__(self, texts, k):
        with self._lock:
            self.calls.append(list(texts))
            armed, self._gate_armed = self._gate_armed, False
        if armed:
            self.entered.set()
            assert self.gate.wait(timeout=10.0), "test never released the gate"
        bad = [t for t in texts if t in self.poison]
        if bad:
            raise InjectedFault(f"poisoned: {bad!r}")
        return fake_search(texts, k)


def submit_async(broker, texts, k=3, deadline=None, priority=0):
    """Run broker.submit in a daemon thread; returns (thread, outcome)
    where outcome fills in 'result' or 'error'."""
    outcome = {}

    def run():
        try:
            outcome["result"] = broker.submit(
                texts, k, deadline=deadline, priority=priority
            )
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def wait_until(predicate, timeout=10.0, interval=0.001):
    """Poll ``predicate`` (deadlock guard only — never a timing assert)."""
    import time as _time

    end = _time.monotonic() + timeout
    while _time.monotonic() < end:
        if predicate():
            return
        _time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


# ----------------------------------------------------------------------
# Broker basics
# ----------------------------------------------------------------------
class TestBrokerBasics:
    def test_single_request_round_trip(self):
        broker = RequestBroker(fake_search, window_ms=0.0)
        ids, scores = broker.submit(["alpha", "beta"], 4)
        expected_ids, expected_scores = fake_search(["alpha", "beta"], 4)
        np.testing.assert_array_equal(ids, expected_ids)
        np.testing.assert_allclose(scores, expected_scores)
        assert broker.queue_depth == 0
        assert broker.metrics.counter("frontend.completed").value == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RequestBroker(fake_search, window_ms=-1.0)
        with pytest.raises(ValueError):
            RequestBroker(fake_search, max_batch=0)
        with pytest.raises(ValueError):
            RequestBroker(fake_search, max_queue_depth=0)
        with pytest.raises(ValueError):
            RequestBroker(fake_search, priority_levels=0)
        broker = RequestBroker(fake_search, priority_levels=2)
        with pytest.raises(ValueError):
            broker.submit(["x"], 1, priority=2)
        with pytest.raises(ValueError):
            broker.submit(["x"], 1, priority=-1)

    def test_trims_each_request_to_its_own_k(self):
        search = GatedSearch()
        broker = RequestBroker(search, window_ms=0.0, max_batch=8)
        lead_thread, lead = submit_async(broker, ["lead"], k=2)
        assert search.entered.wait(timeout=10.0)
        small_thread, small = submit_async(broker, ["small"], k=1)
        big_thread, big = submit_async(broker, ["big"], k=5)
        wait_until(lambda: broker.pending_requests == 2)
        search.gate.set()
        for thread in (lead_thread, small_thread, big_thread):
            thread.join(timeout=10.0)
        assert small["result"][0].shape == (1, 1)
        assert big["result"][0].shape == (1, 5)
        np.testing.assert_array_equal(
            small["result"][0], fake_search(["small"], 1)[0]
        )
        np.testing.assert_array_equal(big["result"][0], fake_search(["big"], 5)[0])


# ----------------------------------------------------------------------
# Admission control: shed under burst
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_shed_under_burst_exactly_at_depth(self):
        search = GatedSearch()
        broker = RequestBroker(search, window_ms=0.0, max_queue_depth=3)
        # Leader occupies the batch in flight; two followers fill the
        # queue to exactly max_queue_depth admitted-but-unfinished.
        threads = [submit_async(broker, ["q0"], k=2)]
        assert search.entered.wait(timeout=10.0)
        threads.append(submit_async(broker, ["q1"], k=2))
        threads.append(submit_async(broker, ["q2"], k=2))
        wait_until(lambda: broker.queue_depth == 3)

        with pytest.raises(Overloaded) as excinfo:
            broker.submit(["q3"], 2)
        assert excinfo.value.queue_depth == 3
        assert excinfo.value.max_queue_depth == 3
        assert broker.metrics.counter("frontend.shed").value == 1

        # Release: every admitted request still completes.
        search.gate.set()
        for thread, outcome in threads:
            thread.join(timeout=10.0)
            assert "result" in outcome
        assert broker.queue_depth == 0
        assert broker.metrics.counter("frontend.admitted").value == 3
        assert broker.metrics.counter("frontend.completed").value == 3
        # Capacity is restored after the burst drains.
        broker.submit(["q4"], 2)
        assert broker.metrics.counter("frontend.shed").value == 1

    def test_unbounded_broker_never_sheds(self):
        search = GatedSearch()
        broker = RequestBroker(search, window_ms=0.0, max_queue_depth=None)
        threads = [submit_async(broker, [f"q{i}"], k=2) for i in range(1)]
        assert search.entered.wait(timeout=10.0)
        threads += [submit_async(broker, [f"q{i}"], k=2) for i in range(1, 12)]
        wait_until(lambda: broker.queue_depth == 12)
        search.gate.set()
        for thread, outcome in threads:
            thread.join(timeout=10.0)
            assert "result" in outcome
        assert broker.metrics.counter("frontend.shed").value == 0


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_at_admission_fails_fast(self):
        clock = FakeClock(start=100.0)
        broker = RequestBroker(fake_search, window_ms=0.0, clock=clock)
        with pytest.raises(DeadlineExceeded) as excinfo:
            broker.submit(["late"], 2, deadline=99.5)
        assert excinfo.value.late_s == pytest.approx(0.5)
        assert broker.queue_depth == 0
        assert broker.metrics.counter("frontend.expired").value == 1
        assert broker.metrics.counter("frontend.admitted").value == 0

    def test_deadline_expiry_inside_coalescer(self):
        """A request admitted in time but stuck behind a slow batch is
        dropped with DeadlineExceeded when its deadline passes."""
        clock = FakeClock(start=0.0)
        search = GatedSearch()
        broker = RequestBroker(search, window_ms=0.0, clock=clock)
        lead_thread, lead = submit_async(broker, ["lead"], k=2)
        assert search.entered.wait(timeout=10.0)
        # Admitted with 50ms of budget while the leader's batch is stuck.
        late_thread, late = submit_async(broker, ["late"], k=2, deadline=0.05)
        ok_thread, ok = submit_async(broker, ["ok"], k=2, deadline=10.0)
        wait_until(lambda: broker.pending_requests == 2)
        clock.advance(0.1)  # now = 0.1 > 0.05: "late" missed its deadline
        search.gate.set()
        for thread in (lead_thread, late_thread, ok_thread):
            thread.join(timeout=10.0)
        assert "result" in lead and "result" in ok
        assert isinstance(late["error"], DeadlineExceeded)
        assert late["error"].late_s == pytest.approx(0.05)
        # The expired request never reached the backend.
        assert ["late"] not in search.calls
        assert broker.metrics.counter("frontend.expired").value == 1
        assert broker.metrics.counter("frontend.completed").value == 2
        assert broker.queue_depth == 0

    def test_deadline_cuts_window_short(self):
        """The leader flushes at the earliest deadline, not the full
        window: with a 10-minute window on a fake clock, a 50ms deadline
        still gets served (fake wait_for consumes the timeout)."""
        clock = FakeClock(start=0.0)
        broker = RequestBroker(
            fake_search, window_ms=600_000.0, clock=clock
        )
        ids, _ = broker.submit(["q"], 2, deadline=0.05)
        np.testing.assert_array_equal(ids, fake_search(["q"], 2)[0])
        # The leader slept only up to the deadline, not the window.
        assert clock.now() <= 0.06


# ----------------------------------------------------------------------
# Priorities
# ----------------------------------------------------------------------
class TestPriorities:
    def test_backlog_drains_priority_zero_first(self):
        search = GatedSearch()
        broker = RequestBroker(
            search, window_ms=0.0, max_batch=1, priority_levels=3
        )
        threads = [submit_async(broker, ["lead"], k=2)]
        assert search.entered.wait(timeout=10.0)
        # Backlog arrives as low, high, low, high (admission order).
        threads.append(submit_async(broker, ["low-a"], k=2, priority=2))
        wait_until(lambda: broker.pending_requests == 1)
        threads.append(submit_async(broker, ["high-a"], k=2, priority=0))
        wait_until(lambda: broker.pending_requests == 2)
        threads.append(submit_async(broker, ["low-b"], k=2, priority=2))
        wait_until(lambda: broker.pending_requests == 3)
        threads.append(submit_async(broker, ["high-b"], k=2, priority=0))
        wait_until(lambda: broker.pending_requests == 4)
        search.gate.set()
        for thread, outcome in threads:
            thread.join(timeout=10.0)
            assert "result" in outcome
        # max_batch=1 forces one request per chunk, exposing drain order:
        # urgent level 0 first, admission order within each level.
        assert search.calls == [
            ["lead"],
            ["high-a"],
            ["high-b"],
            ["low-a"],
            ["low-b"],
        ]


# ----------------------------------------------------------------------
# Per-item error channel
# ----------------------------------------------------------------------
class TestErrorIsolation:
    def test_poisoned_query_fails_alone_in_broker(self):
        search = GatedSearch(poison={"POISON"})
        broker = RequestBroker(search, window_ms=0.0, max_batch=8)
        threads = [submit_async(broker, ["lead"], k=2)]
        assert search.entered.wait(timeout=10.0)
        threads.append(submit_async(broker, ["clean-a"], k=2))
        threads.append(submit_async(broker, ["POISON"], k=2))
        threads.append(submit_async(broker, ["clean-b"], k=2))
        wait_until(lambda: broker.pending_requests == 3)
        search.gate.set()
        outcomes = []
        for thread, outcome in threads:
            thread.join(timeout=10.0)
            outcomes.append(outcome)
        lead, clean_a, poison, clean_b = outcomes
        assert "result" in lead
        assert "result" in clean_a and "result" in clean_b
        np.testing.assert_array_equal(
            clean_a["result"][0], fake_search(["clean-a"], 2)[0]
        )
        assert isinstance(poison["error"], InjectedFault)
        assert broker.metrics.counter("frontend.isolations").value == 1
        assert broker.metrics.counter("frontend.failed").value == 1
        assert broker.metrics.counter("frontend.completed").value == 3
        assert broker.queue_depth == 0

    def test_single_request_failure_is_delivered_directly(self):
        search = GatedSearch(gate_first=False, poison={"POISON"})
        broker = RequestBroker(search, window_ms=0.0)
        with pytest.raises(InjectedFault):
            broker.submit(["POISON"], 2)
        # Already isolated: no split-and-retry for a one-request batch.
        assert broker.metrics.counter("frontend.isolations").value == 0
        assert broker.metrics.counter("frontend.failed").value == 1
        assert broker.queue_depth == 0

    def test_leader_crash_releases_leadership_and_fails_the_queue(self):
        """Regression: an error escaping the leader *after* run_batch
        returned — here 1-D arrays that cannot be sliced per request —
        used to leave ``_leader_active`` set and ``_in_flight`` stuck, so
        the queued follower and every later caller blocked forever (or
        was shed forever once ``max_queue_depth`` filled)."""
        search = GatedSearch()
        malformed = threading.Event()
        malformed.set()

        def run_batch(texts, k):
            ids, scores = search(texts, k)
            return (ids[:, 0], scores[:, 0]) if malformed.is_set() else (ids, scores)

        broker = RequestBroker(run_batch, window_ms=0.0, max_queue_depth=2)
        lead_thread, lead = submit_async(broker, ["lead"], k=2)
        assert search.entered.wait(timeout=10.0)
        follower_thread, follower = submit_async(broker, ["follower"], k=2)
        wait_until(lambda: broker.pending_requests == 1)
        search.gate.set()
        lead_thread.join(timeout=5.0)
        follower_thread.join(timeout=5.0)
        assert not lead_thread.is_alive() and not follower_thread.is_alive()
        assert isinstance(lead["error"], IndexError)
        assert isinstance(follower["error"], IndexError)
        assert broker.queue_depth == 0 and broker.pending_requests == 0

        # The broker is led again: the next caller is answered, not
        # queued behind a leader that no longer exists.
        malformed.clear()
        later_thread, later = submit_async(broker, ["later"], k=2)
        later_thread.join(timeout=5.0)
        assert not later_thread.is_alive()
        np.testing.assert_array_equal(later["result"][0], fake_search(["later"], 2)[0])
        counters = broker.metrics.snapshot()["counters"]
        assert counters["frontend.admitted"] == 3
        assert counters["frontend.failed"] == 2 and counters["frontend.completed"] == 1

    def test_transient_batch_failure_recovers_via_isolation(self, encoder):
        """Regression with FaultyBackend: a backend that rejects
        multi-query batches but serves single queries fine used to fail
        every caller in the coalesced batch; with the per-item error
        channel, isolation reruns each request alone and everyone gets
        an answer."""
        gate = threading.Event()
        entered = threading.Event()
        service = MatchService(encoder, config=tiny_config())
        service.index_records(CORPUS)
        faulty = FaultyBackend(
            service._live_backend,
            gate=gate,
            entered=entered,
            fail_batch_larger_than=1,
        )
        service._live_backend = faulty
        frontend = ServiceFrontend(service)

        outcomes = []

        def query(text):
            outcome = {}
            outcomes.append(outcome)

            def run():
                try:
                    outcome["result"] = frontend.search([text], k=3)
                except BaseException as exc:  # noqa: BLE001
                    outcome["error"] = exc

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            return thread

        threads = [query(CORPUS[0])]  # leader: 1-row query held at the gate
        assert entered.wait(timeout=10.0)
        threads.append(query(CORPUS[1]))
        threads.append(query(CORPUS[2]))
        wait_until(lambda: frontend.broker.pending_requests == 2)
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        for row, outcome in enumerate(outcomes):
            assert "result" in outcome, outcome.get("error")
            assert int(outcome["result"][0][0, 0]) == row  # self is top-1
        # The 2-query batch failed once, then each ran alone.
        assert frontend.broker.stats()["isolations"] == 1
        assert faulty.query_calls == 4  # leader + failed pair + 2 solos

    def test_coalescer_isolation_end_to_end(self, encoder):
        """Regression for the per-item error channel of the frontend's
        broker: a poisoned query in a coalesced batch fails alone while
        its batch-mates get answers."""
        gate = threading.Event()
        entered = threading.Event()
        store = FaultyStore(
            encoder,
            poison_texts={"POISON"},
            embed_gate=gate,
            embed_entered=entered,
        )
        service = MatchService(encoder, config=tiny_config(), store=store)
        gate.set()  # let index_records embed freely
        service.index_records(CORPUS)
        gate.clear()
        entered.clear()
        frontend = ServiceFrontend(service)

        outcomes = []

        def query(text):
            outcome = {}
            outcomes.append((text, outcome))

            def run():
                try:
                    outcome["result"] = frontend.search([text], k=3)
                except BaseException as exc:  # noqa: BLE001
                    outcome["error"] = exc

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            return thread

        threads = [query(CORPUS[0])]  # leader: blocks in the gated embed
        assert entered.wait(timeout=10.0)
        threads.append(query("POISON"))
        threads.append(query(CORPUS[1]))
        wait_until(lambda: frontend.broker.pending_requests == 2)
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        results = dict(outcomes)
        assert "result" in results[CORPUS[0]]
        assert "result" in results[CORPUS[1]]
        assert isinstance(results["POISON"]["error"], InjectedFault)
        # The clean batch-mate's answer is correct, not just present.
        expected_ids, _ = service.search_batch([CORPUS[1]], k=3)
        np.testing.assert_array_equal(
            results[CORPUS[1]]["result"][0], expected_ids
        )
        assert frontend.broker.stats()["isolations"] >= 1


# ----------------------------------------------------------------------
# ServiceFrontend: wiring, deadlines from config, metrics
# ----------------------------------------------------------------------
class TestServiceFrontend:
    def test_search_matches_uncoalesced_service(self, encoder):
        frontend = make_frontend(encoder)
        queries = [CORPUS[2], CORPUS[9], "[COL] name [VAL] record-7"]
        ids, scores = frontend.search(queries, k=5)
        expected_ids, expected_scores = frontend.service.search_batch(queries, 5)
        np.testing.assert_array_equal(ids, expected_ids)
        np.testing.assert_allclose(scores, expected_scores)

    def test_default_deadline_comes_from_config(self, encoder):
        clock = FakeClock(start=50.0)
        frontend = make_frontend(encoder, clock=clock, default_deadline_ms=20.0)
        # Make "now" pass the default deadline while the request is
        # queued: gate the embed step, advance, release.
        gate = threading.Event()
        entered = threading.Event()
        real_run = frontend.service.search_batch

        def gated_run(texts, k):
            entered.set()
            assert gate.wait(timeout=10.0)
            return real_run(texts, k)

        frontend.broker._run_batch = gated_run
        lead_outcome = {}

        def lead():
            try:
                lead_outcome["result"] = frontend.search([CORPUS[0]], k=2)
            except BaseException as exc:  # noqa: BLE001
                lead_outcome["error"] = exc

        lead_thread = threading.Thread(target=lead, daemon=True)
        lead_thread.start()
        assert entered.wait(timeout=10.0)
        late_outcome = {}

        def follower():
            try:
                late_outcome["result"] = frontend.search([CORPUS[1]], k=2)
            except BaseException as exc:  # noqa: BLE001
                late_outcome["error"] = exc

        follower_thread = threading.Thread(target=follower, daemon=True)
        follower_thread.start()
        wait_until(lambda: frontend.broker.pending_requests == 1)
        clock.advance(0.05)  # 50ms > the 20ms default budget
        gate.set()
        lead_thread.join(timeout=10.0)
        follower_thread.join(timeout=10.0)
        assert "result" in lead_outcome
        assert isinstance(late_outcome["error"], DeadlineExceeded)

    def test_explicit_deadline_overrides_config_default(self, encoder):
        clock = FakeClock(start=10.0)
        frontend = make_frontend(encoder, clock=clock, default_deadline_ms=0.001)
        # With the tiny default this would expire at admission, but an
        # explicit generous deadline wins.
        ids, _ = frontend.search([CORPUS[0]], k=3, deadline_ms=10_000.0)
        assert ids.shape == (1, 3)

    def test_metrics_snapshot_threads_all_components(self, encoder):
        frontend = make_frontend(encoder, max_queue_depth=4)
        frontend.search([CORPUS[0], CORPUS[1]], k=3)
        frontend.search([CORPUS[2]], k=3)
        with pytest.raises(DeadlineExceeded):
            frontend.search([CORPUS[3]], k=3, deadline_ms=0.0)
        snapshot = frontend.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["frontend.admitted"] == 2
        assert counters["frontend.completed"] == 2
        assert counters["frontend.expired"] == 1
        # Store cache counters are threaded through bind_metrics: every
        # searched text was already cached by the index build, so the
        # three served queries are three hits.
        assert counters["store.hits"] == 3
        latency = snapshot["histograms"]["frontend.latency_s"]
        assert latency["count"] == 2
        assert latency["p50"] >= 0.0
        batch_size = snapshot["histograms"]["frontend.batch_size"]
        assert batch_size["count"] == 2
        service_stats = snapshot["service"]
        assert service_stats["generation"] == 0
        assert service_stats["index_size"] == len(CORPUS)
        assert service_stats["num_shards"] == 3
        assert 0.0 <= service_stats["store"]["hit_rate"] <= 1.0
        assert snapshot["gauges"]["frontend.index_generation"] == 0.0

    def test_snapshot_coalesce_counts_frontend_traffic(self, encoder):
        """Regression: ``service.coalesce`` used to report the service's
        own idle broker, so it read 0 requests under any frontend load."""
        frontend = make_frontend(encoder)
        for text in CORPUS[:5]:
            frontend.search([text], k=2)
        coalesce = frontend.metrics_snapshot()["service"]["coalesce"]
        assert coalesce["requests"] == 5
        assert coalesce == frontend.broker.stats()

    def test_mutations_pass_through(self, encoder):
        frontend = make_frontend(encoder)
        extra = "[COL] name [VAL] record-extra"
        frontend.upsert_records([extra])
        assert frontend.index_size == len(CORPUS) + 1
        ids, _ = frontend.search([extra], k=1)
        assert frontend.record_text(int(ids[0, 0])) == extra
        frontend.delete_records([extra])
        assert frontend.index_size == len(CORPUS)

    def test_build_frontend_and_session_serve(self, encoder):
        frontend = ServiceFrontend(MatchService(encoder, config=tiny_config()))
        assert frontend.config is frontend.service.config

        session = SudowoodoSession(tiny_config()).adopt(encoder)
        served = session.serve(
            frontend=True, max_queue_depth=5, priority_levels=2
        )
        assert isinstance(served, ServiceFrontend)
        assert served.broker.max_queue_depth == 5
        assert served.broker.priority_levels == 2
        served.index_records(CORPUS)
        ids, _ = served.search([CORPUS[4]], k=1)
        assert int(ids[0, 0]) == 4
        # Plain serve() still returns the bare service.
        bare = session.serve()
        assert isinstance(bare, MatchService)
        assert not isinstance(bare, ServiceFrontend)


# ----------------------------------------------------------------------
# Blue/green reindex
# ----------------------------------------------------------------------
class TestReindex:
    def test_reindex_swaps_to_new_encoder(self, encoder, encoder_b):
        frontend = make_frontend(encoder)
        queries = CORPUS[:6]
        before_ids, _ = frontend.search(queries, k=5)
        old_service = frontend.service

        generation = frontend.reindex(encoder_b)
        assert generation == 1
        assert frontend.generation == 1
        assert frontend.service is not old_service
        assert frontend.index_size == len(CORPUS)

        after_ids, _ = frontend.search(queries, k=5)
        # The new index answers exactly like a from-scratch service on
        # the new encoder (ids restart at 0 in corpus order).
        expected_service = MatchService(encoder_b, config=tiny_config())
        expected_service.index_records(CORPUS)
        expected_ids, _ = expected_service.search_batch(queries, 5)
        np.testing.assert_array_equal(after_ids, expected_ids)
        assert not np.array_equal(after_ids, before_ids)
        snapshot = frontend.metrics_snapshot()
        assert snapshot["counters"]["frontend.reindexes"] == 1
        assert snapshot["gauges"]["frontend.index_generation"] == 1.0
        assert snapshot["service"]["generation"] == 1

    def test_reindex_adopts_warm_token_cache(self, encoder, encoder_b):
        # Clones start with cold caches, so this test cannot perturb (or
        # be perturbed by) the module-scoped fixtures' cache state.
        live = encoder.clone()
        shadow = encoder_b.clone()
        frontend = make_frontend(live)  # index_records warms live's cache
        live_stats = live.token_cache_stats()
        assert live_stats["size"] == len(CORPUS)

        frontend.reindex(shadow)
        # Same vocabulary: the shadow encoder reused the live cache, so
        # the rebuild tokenized nothing from scratch.
        assert shadow.token_cache() is live.token_cache()
        stats = shadow.token_cache_stats()
        assert stats["size"] == len(CORPUS)
        assert stats["hits"] >= live_stats["hits"] + len(CORPUS)
        assert stats["misses"] == live_stats["misses"]

    def test_reindex_failure_mid_build_keeps_old_index(self, encoder, encoder_b):
        frontend = make_frontend(encoder)
        queries = CORPUS[:6]
        before_ids, before_scores = frontend.search(queries, k=5)
        old_service = frontend.service

        faulty = FaultyStore(encoder_b, fail_upsert_after=0)
        with pytest.raises(InjectedFault):
            frontend.reindex(encoder_b, store=faulty)

        # The swap never happened: same service object, same generation,
        # byte-identical answers.
        assert frontend.service is old_service
        assert frontend.generation == 0
        assert frontend.index_size == len(CORPUS)
        after_ids, after_scores = frontend.search(queries, k=5)
        np.testing.assert_array_equal(after_ids, before_ids)
        np.testing.assert_array_equal(after_scores, before_scores)
        snapshot = frontend.metrics_snapshot()
        assert snapshot["counters"]["frontend.reindex_failures"] == 1
        assert "frontend.reindexes" not in snapshot["counters"]
        # And a later healthy reindex still succeeds.
        assert frontend.reindex(encoder_b) == 1

    def test_reindex_preserves_corpus_and_matcher(self, encoder, encoder_b):
        frontend = make_frontend(encoder)
        extra = "[COL] name [VAL] record-upserted"
        frontend.upsert_records([extra])
        frontend.reindex(encoder_b)
        # The default corpus is the *live* corpus, including the upsert.
        assert frontend.index_size == len(CORPUS) + 1
        ids, _ = frontend.search([extra], k=1)
        assert frontend.record_text(int(ids[0, 0])) == extra


# ----------------------------------------------------------------------
# Stress: blue/green swap under concurrent query load
# ----------------------------------------------------------------------
@pytest.mark.stress
class TestReindexUnderLoad:
    def test_no_mixed_results_during_swaps(self, encoder, encoder_b):
        """8 threads hammer search while the main thread swaps the index
        back and forth; every answer must match the complete old or the
        complete new index — never a row mixing the two."""
        frontend = make_frontend(encoder, coalesce_window_ms=0.2)
        queries = CORPUS[:8]
        k = 5

        # Expected answers for both generations, computed on identical
        # from-scratch builds (embeddings are batch-independent, so
        # coalesced batches answer identically).
        expected = {}
        for name, enc in (("blue", encoder), ("green", encoder_b)):
            service = MatchService(enc, config=tiny_config())
            service.index_records(CORPUS)
            expected[name] = service.search_batch(queries, k)[0]
        assert not np.array_equal(expected["blue"], expected["green"])

        stop = threading.Event()
        failures = []
        mixed = []
        completed = [0] * 8

        def worker(worker_index):
            rng = np.random.default_rng(worker_index)
            while not stop.is_set():
                qi = int(rng.integers(len(queries)))
                try:
                    ids, _ = frontend.search([queries[qi]], k=k)
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)
                    return
                row = ids[0]
                if not (
                    np.array_equal(row, expected["blue"][qi])
                    or np.array_equal(row, expected["green"][qi])
                ):
                    mixed.append((qi, row.tolist()))
                    return
                completed[worker_index] += 1

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        try:
            for target in (encoder_b, encoder, encoder_b, encoder):
                frontend.reindex(target)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)

        assert not failures, f"queries failed during reindex: {failures!r}"
        assert not mixed, f"mixed old/new results observed: {mixed!r}"
        assert frontend.generation == 4
        assert sum(completed) > 0
        # Final state answers purely from the last-published index.
        final_ids, _ = frontend.search(queries, k=k)
        np.testing.assert_array_equal(final_ids, expected["blue"][: len(queries)])
