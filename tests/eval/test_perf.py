"""Tests for the op-level performance profiler (repro.eval.perf)."""

import numpy as np
import pytest

from repro.core import SudowoodoConfig, SudowoodoEncoder, build_tokenizer
from repro.eval import EncodeProfile, OpProfiler, OpStat, profile_encode
from repro.eval.perf import MODULE_FUNCTIONS, TENSOR_METHODS
from repro.nn import Tensor, linear
from repro.nn import tensor as tensor_ops
from repro.serve import MetricsRegistry


def gen(seed=0):
    return np.random.default_rng(seed)


CORPUS = [
    "[COL] name [VAL] instant immersion spanish deluxe",
    "[COL] name [VAL] encore software learn spanish",
    "[COL] name [VAL] adobe photoshop elements",
    "[COL] name [VAL] sibelius instrumental teacher edition",
]


@pytest.fixture(scope="module")
def encoder():
    config = SudowoodoConfig(
        dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_seq_len=16,
        pair_max_seq_len=24,
        vocab_size=200,
        num_clusters=2,
        corpus_cap=16,
        seed=0,
    )
    return SudowoodoEncoder(config, build_tokenizer(CORPUS, config))


class TestOpStat:
    def test_merge_accumulates(self):
        stat = OpStat()
        stat.merge(0.5, 100)
        stat.merge(0.25, 50)
        assert stat.calls == 2
        assert stat.seconds == pytest.approx(0.75)
        assert stat.bytes == 150


class TestOpProfiler:
    def test_counts_known_op_sequence(self):
        a = Tensor(gen(1).normal(size=(3, 4)).astype(np.float32))
        b = Tensor(gen(2).normal(size=(4, 5)).astype(np.float32))
        with OpProfiler() as prof:
            out = a.matmul(b)
            out = out + 1.0
            out = out + 2.0
            out = out * 3.0
            out.sum()
        assert prof.stats["matmul"].calls == 1
        assert prof.stats["add"].calls == 2
        assert prof.stats["mul"].calls == 1
        assert prof.stats["sum"].calls == 1
        assert prof.total_calls == sum(s.calls for s in prof.stats.values())

    def test_bytes_count_output_allocations(self):
        a = Tensor(np.ones((8, 4), dtype=np.float32))
        with OpProfiler() as prof:
            a + a
        # One add producing an (8, 4) float32 output.
        assert prof.stats["add"].bytes == 8 * 4 * 4

    def test_dropout_is_one_call_and_identity_is_none(self, encoder):
        """A training-mode dropout is one ``dropout`` row (the ``mul`` it
        used to route through is gone); eval mode draws nothing and is
        not a primitive call at all."""
        encoding = encoder.tokenizer.encode_batch(CORPUS, max_len=16)
        profiles = {}
        for mode in ("train", "eval"):
            getattr(encoder.encoder, mode)()
            with OpProfiler() as prof:
                encoder.encode_tokens_training(encoding)
            profiles[mode] = prof.stats
        encoder.encoder.train()
        # One layer: embeddings, attention weights, FFN hidden, two residuals.
        assert profiles["train"]["dropout"].calls == 5
        assert "dropout" not in profiles["eval"]
        assert profiles["train"]["mul"].calls == profiles["eval"]["mul"].calls

    def test_module_level_kernels_recorded(self):
        x = Tensor(gen(3).normal(size=(2, 4)).astype(np.float32))
        w = Tensor(gen(4).normal(size=(4, 3)).astype(np.float32))
        with OpProfiler() as prof:
            tensor_ops.linear(x, w)
        assert prof.stats["linear"].calls == 1

    def test_originals_restored_on_exit(self):
        saved_methods = {m: getattr(Tensor, m) for m in TENSOR_METHODS}
        saved_functions = {f: getattr(tensor_ops, f) for f in MODULE_FUNCTIONS}
        with OpProfiler():
            assert getattr(Tensor, "__add__") is not saved_methods["__add__"]
        for method, original in saved_methods.items():
            assert getattr(Tensor, method) is original
        for function, original in saved_functions.items():
            assert getattr(tensor_ops, function) is original

    def test_restored_even_on_exception(self):
        original = Tensor.__add__
        with pytest.raises(RuntimeError):
            with OpProfiler():
                raise RuntimeError("boom")
        assert Tensor.__add__ is original

    def test_no_recording_after_exit(self):
        with OpProfiler() as prof:
            pass
        a = Tensor(np.ones(3, dtype=np.float32))
        a + a
        assert prof.stats == {}

    def test_table_formats_all_ops(self):
        a = Tensor(gen(5).normal(size=(3, 3)).astype(np.float32))
        with OpProfiler() as prof:
            (a + a).sum()
        table = prof.table()
        lines = table.splitlines()
        assert "op" in lines[0] and "calls" in lines[0]
        assert len(lines) == 1 + len(prof.stats)
        assert any(line.startswith("add") for line in lines[1:])
        assert len(prof.table(limit=1).splitlines()) == 2

    def test_publish_mirrors_into_metrics(self):
        metrics = MetricsRegistry()
        a = Tensor(gen(6).normal(size=(4, 4)).astype(np.float32))
        with OpProfiler() as prof:
            a + a
            a + a
        prof.publish(metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["ops.add.calls"] == 2
        assert snapshot["counters"]["ops.add.bytes"] == prof.stats["add"].bytes
        assert "ops.add.seconds" in snapshot["histograms"]


class TestProfileEncode:
    def test_smoke_over_embed_items(self, encoder):
        profile = profile_encode(encoder, CORPUS, batch_size=2)
        assert isinstance(profile, EncodeProfile)
        assert profile.num_texts == len(CORPUS)
        assert profile.wall_seconds > 0
        assert profile.texts_per_second > 0
        assert profile.op_calls > 0
        # The encode path is matmul-heavy by construction.
        assert profile.stats["matmul"].calls > 0
        assert "matmul" in profile.table()

    def test_profiled_pass_matches_unprofiled(self, encoder):
        baseline = encoder.embed_items(CORPUS, batch_size=2)
        profile_encode(encoder, CORPUS, batch_size=2)
        again = encoder.embed_items(CORPUS, batch_size=2)
        np.testing.assert_array_equal(baseline, again)
