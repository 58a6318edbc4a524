"""Serving-side token cache: embed_items byte-identity, cache sharing
across encoders (clone / blue-green reindex), and encode observability."""

import sys
import threading

import numpy as np
import pytest

from repro.core import SudowoodoConfig, SudowoodoEncoder, build_tokenizer
from repro.serve import EmbeddingStore, MetricsRegistry
from repro.train.data import TokenCache
from repro.utils import text_fingerprint

CORPUS = [
    "[COL] name [VAL] instant immersion spanish deluxe [COL] price [VAL] 36.11",
    "[COL] name [VAL] encore software learn spanish [COL] price [VAL] 29.99",
    "[COL] name [VAL] adobe photoshop elements [COL] price [VAL] 89.0",
    "[COL] name [VAL] sibelius instrumental teacher [COL] price [VAL] 159.95",
    "[COL] name [VAL] topics presents streets of london [COL] price [VAL] 12.0",
    "[COL] name [VAL] nova development art explosion [COL] price [VAL] 19.99",
]


def tiny_config(**overrides) -> SudowoodoConfig:
    defaults = dict(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=24,
        pair_max_seq_len=40,
        vocab_size=300,
        num_clusters=2,
        corpus_cap=16,
        seed=0,
    )
    defaults.update(overrides)
    return SudowoodoConfig(**defaults)


def make_encoder(**overrides) -> SudowoodoEncoder:
    config = tiny_config(**overrides)
    return SudowoodoEncoder(config, build_tokenizer(CORPUS, config))


# ----------------------------------------------------------------------
class TestEmbedItemsCache:
    def test_warm_rows_byte_identical_to_cold(self):
        enc = make_encoder()
        cold = enc.embed_items(CORPUS, batch_size=4, use_token_cache=False)
        first = enc.embed_items(CORPUS, batch_size=4)  # fills the cache
        warm = enc.embed_items(CORPUS, batch_size=4)  # pure hits
        np.testing.assert_array_equal(cold, first)
        np.testing.assert_array_equal(cold, warm)

    def test_stats_progress_miss_then_hit(self):
        enc = make_encoder()
        assert enc.token_cache_stats() == {"hits": 0, "misses": 0, "size": 0}
        enc.embed_items(CORPUS, batch_size=4)
        stats = enc.token_cache_stats()
        assert stats["misses"] == len(CORPUS)
        assert stats["hits"] == 0
        assert stats["size"] == len(CORPUS)
        enc.embed_items(CORPUS, batch_size=4)
        stats = enc.token_cache_stats()
        assert stats["hits"] == len(CORPUS)
        assert stats["misses"] == len(CORPUS)

    def test_cold_path_does_not_touch_cache(self):
        enc = make_encoder()
        enc.embed_items(CORPUS, batch_size=4, use_token_cache=False)
        assert enc.token_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_empty_corpus(self):
        enc = make_encoder()
        out = enc.embed_items([])
        assert out.shape == (0, enc.config.dim)

    def test_discard_tokens_drops_entries_and_creates_no_cache(self):
        enc = make_encoder()
        enc.discard_tokens([text_fingerprint(CORPUS[0])])
        assert not make_encoder().adopt_token_cache(enc)  # still no cache
        enc.embed_items(CORPUS, batch_size=4)
        enc.discard_tokens([text_fingerprint(CORPUS[0])])
        assert enc.token_cache_stats()["size"] == len(CORPUS) - 1
        warm = enc.embed_items(CORPUS, batch_size=4)  # one re-tokenization
        assert enc.token_cache_stats()["misses"] == len(CORPUS) + 1
        cold = enc.embed_items(CORPUS, batch_size=4, use_token_cache=False)
        np.testing.assert_array_equal(warm, cold)


class TestEncodeTokensInference:
    def test_restores_training_mode(self):
        enc = make_encoder()
        encoding = enc.tokenizer.encode_batch(
            CORPUS[:2], max_len=enc.config.max_seq_len
        )
        enc.encoder.train()
        enc.encode_tokens_inference(encoding)
        assert enc.encoder.training
        enc.encoder.eval()
        enc.encode_tokens_inference(encoding)
        assert not enc.encoder.training

    def test_restores_training_mode_when_the_forward_raises(self):
        enc = make_encoder()
        encoding = enc.tokenizer.encode_batch(
            CORPUS[:2], max_len=enc.config.max_seq_len
        )
        encoding.token_ids[0, 1] = enc.tokenizer.vocab_size  # out of range
        enc.encoder.train()
        with pytest.raises(IndexError):
            enc.encode_tokens_inference(encoding)
        assert all(module.training for module in enc.encoder.modules())

    def test_eval_mode_encoder_embeds_without_a_tree_walk(self, monkeypatch):
        """An encoder already in eval mode (after a fit or a load) is not
        flipped at all; its rows are the train-mode encoder's, byte for byte."""
        from repro.nn.module import Module

        enc = make_encoder()
        flipped = enc.embed_items(CORPUS, batch_size=4)
        assert enc.encoder.training
        served = enc.clone()
        served.encoder.eval()
        walks = []
        walk = Module.modules
        monkeypatch.setattr(
            Module, "modules", lambda self: walks.append(self) or walk(self)
        )
        np.testing.assert_array_equal(
            served.embed_items(CORPUS, batch_size=4), flipped
        )
        assert not walks and not served.encoder.training

    def test_matches_embed_items_unnormalized(self):
        enc = make_encoder()
        encoding = enc.tokenizer.encode_batch(
            CORPUS[:3], max_len=enc.config.max_seq_len
        )
        direct = enc.encode_tokens_inference(encoding)
        via_items = enc.embed_items(CORPUS[:3], normalize=False)
        np.testing.assert_array_equal(direct, via_items)


class TestAdoptTokenCache:
    def test_same_vocab_shares_warm_cache(self):
        live = make_encoder()
        live.embed_items(CORPUS, batch_size=4)
        shadow = make_encoder(seed=1)
        assert shadow.adopt_token_cache(live)
        assert shadow.token_cache() is live.token_cache()
        shadow.embed_items(CORPUS, batch_size=4)
        assert shadow.token_cache_stats()["hits"] >= len(CORPUS)

    def test_different_vocab_refuses(self):
        live = make_encoder()
        live.embed_items(CORPUS[:2])
        config = tiny_config()
        other = SudowoodoEncoder(
            config, build_tokenizer(CORPUS[:1], config)
        )
        assert not other.adopt_token_cache(live)
        assert other.token_cache_stats()["size"] == 0

    def test_cold_donor_refuses(self):
        live = make_encoder()
        shadow = make_encoder()
        assert not shadow.adopt_token_cache(live)


class TestClone:
    def test_clone_starts_cold_and_can_adopt(self):
        enc = make_encoder()
        enc.embed_items(CORPUS, batch_size=4)
        clone = enc.clone()
        assert clone.token_cache_stats()["size"] == 0
        # The original keeps its warm cache through the clone.
        assert enc.token_cache_stats()["size"] == len(CORPUS)
        assert clone.adopt_token_cache(enc)
        np.testing.assert_array_equal(
            enc.embed_items(CORPUS[:2]), clone.embed_items(CORPUS[:2])
        )

    def test_clone_weights_independent(self):
        enc = make_encoder()
        clone = enc.clone()
        clone.projector.weight.data += 1.0
        assert not np.array_equal(
            enc.projector.weight.data, clone.projector.weight.data
        )


# ----------------------------------------------------------------------
class TestTokenCacheUnit:
    def test_max_len_part_of_key(self):
        enc = make_encoder()
        cache = TokenCache(enc.tokenizer)
        short = cache.encode(CORPUS[0], 16)
        long = cache.encode(CORPUS[0], 24)
        assert cache.misses == 2
        assert short.token_ids.shape == (16,)
        assert long.token_ids.shape == (24,)

    @pytest.mark.stress
    def test_thread_safe_under_concurrent_encoders(self):
        """Concurrent encodes on a train-mode encoder (as built, before
        any fit) equal the cold rows byte for byte: inference never
        writes the shared module mode, so no thread's forward can run
        with dropout switched on by another."""
        enc = make_encoder()
        assert enc.encoder.training
        cold = enc.embed_items(CORPUS, batch_size=4, use_token_cache=False)
        cache = enc.token_cache()
        differing = []
        errors = []

        def worker():
            try:
                for _ in range(5):
                    rows = enc.embed_items(CORPUS, batch_size=4)
                    differing.append(not np.array_equal(rows, cold))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(differing) == 20 and sum(differing) == 0
        assert len(cache) == len(CORPUS)
        assert enc.encoder.training

    @pytest.mark.stress
    def test_discard_races_concurrent_encoders(self):
        """Discards interleaved with warm encodes never corrupt a row:
        every encode equals the cold rows, and the cache ends at most
        corpus-sized."""
        enc = make_encoder()
        cold = enc.embed_items(CORPUS, batch_size=4, use_token_cache=False)
        fingerprints = [text_fingerprint(text) for text in CORPUS]
        errors = []

        def encoder_worker():
            try:
                for _ in range(5):
                    rows = enc.embed_items(CORPUS, batch_size=4)
                    np.testing.assert_array_equal(rows, cold)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def discard_worker():
            for _ in range(50):
                enc.discard_tokens(fingerprints[::2])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=encoder_worker) for _ in range(4)]
            threads.append(threading.Thread(target=discard_worker))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(enc.token_cache()) <= len(CORPUS)


# ----------------------------------------------------------------------
class TestStoreEncodeMetrics:
    def test_encode_seconds_and_texts_recorded(self):
        enc = make_encoder()
        store = EmbeddingStore(enc)
        metrics = MetricsRegistry()
        store.bind_metrics(metrics)
        store.embed_batch(CORPUS[:4])
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["store.encode_texts"] == 4
        assert snapshot["histograms"]["store.encode_seconds"]["count"] == 1
        # Warm pass: all hits, nothing re-encoded.
        store.embed_batch(CORPUS[:4])
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["store.encode_texts"] == 4
