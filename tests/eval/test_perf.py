"""Tests for the op-level performance profiler (repro.eval.perf)."""

import numpy as np
import pytest

from repro.core import SudowoodoConfig, SudowoodoEncoder, build_tokenizer
from repro.eval import EncodeProfile, OpProfiler, OpStat, profile_encode
from repro.nn import Tensor, TransformerConfig, TransformerEncoder, cross_entropy
from repro.nn import tensor as tensor_ops


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

    @staticmethod
    def assert_detached(prof):
        """Nothing more is recorded and no hook is left installed."""
        before = {name: stat.calls for name, stat in prof.stats.items()}
        a = Tensor(np.ones(3, dtype=np.float32))
        a + a
        assert {name: stat.calls for name, stat in prof.stats.items()} == before
        assert tensor_ops.set_op_hook(None) is None

    def test_hook_removed_on_exit(self):
        with OpProfiler() as prof:
            a = Tensor(np.ones(3, dtype=np.float32))
            a + a
        assert prof.stats["add"].calls == 1
        self.assert_detached(prof)

    def test_hook_removed_even_on_exception(self):
        with pytest.raises(RuntimeError):
            with OpProfiler() as prof:
                raise RuntimeError("boom")
        assert prof.stats == {}
        self.assert_detached(prof)

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

    def test_training_step_profile_is_pinned(self):
        """Per-op calls and output bytes of one forward and backward of a
        fixed two-layer encoder: what the benchmark's ``nn.ops.calls`` and
        ``nn.ops.output_mb`` read.  A change to how ops are dispatched or
        counted shows here before it shows in the benchmark."""
        config = TransformerConfig(
            vocab_size=40,
            dim=16,
            num_layers=2,
            num_heads=2,
            ffn_dim=32,
            max_seq_len=12,
            dropout=0.1,
            seed=0,
        )
        model = TransformerEncoder(config)
        ids = gen(0).integers(1, 40, size=(4, 10))
        ids[1, 7:] = 0
        ids[3, 5:] = 0
        segments = np.zeros_like(ids)
        segments[:, 5:] = 1
        with OpProfiler() as prof:
            pooled = model.pooled(ids, segment_ids=segments, pooling="mean")
            z = pooled.l2_normalize(axis=-1)
            loss = cross_entropy((z @ z.T) * 10.0, np.arange(4))
            loss.backward()
        assert {name: (s.calls, s.bytes) for name, s in prof.stats.items()} == {
            "add": (7, 15376),
            "attention_scores": (2, 6400),
            "bias_gelu": (2, 10240),
            "div": (2, 512),
            "dropout": (9, 29440),
            "embedding": (3, 7680),
            "getitem": (1, 16),
            "layer_norm": (6, 15360),
            "linear": (10, 25600),
            "log_softmax": (1, 64),
            "matmul": (5, 15424),
            "mul": (5, 2888),
            "reshape": (8, 20480),
            "sqrt": (1, 16),
            "sum": (3, 276),
            "transpose": (9, 20736),
        }
        assert prof.total_calls == 74


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
