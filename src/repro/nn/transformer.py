"""A compact Transformer encoder — the reproduction's stand-in for
RoBERTa/DistilBERT.

The Sudowoodo paper initializes its encoder ``M_emb`` from a pre-trained LM.
This machine has no pre-trained checkpoints, so :class:`TransformerEncoder`
is trained from scratch (optionally warm-started with a masked-LM pass; see
:mod:`repro.text.lm_pretrain`).  Everything else — serialization scheme,
contrastive objectives, the fine-tuning head — follows the paper exactly.

The encoder exposes an ``embedding_transform`` hook: a callable applied to
the token-embedding tensor before the attention stack.  This is how the
paper's *cutoff* data-augmentation operators (Figure 5) perturb inputs at
the embedding level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .attention import MultiHeadSelfAttention, make_padding_mask
from .layers import Dropout, Embedding, LayerNorm, Linear, MLP
from .module import Module
from .tensor import Tensor

EmbeddingTransform = Callable[[Tensor, np.ndarray], Tensor]


@dataclass
class TransformerConfig:
    """Hyper-parameters of the encoder.

    Defaults are CPU-scale: 2 layers of width 48 train in seconds on the
    corpus sizes used by the benchmarks while leaving the architecture
    identical in kind to the paper's 12-layer, width-768 RoBERTa.
    """

    vocab_size: int = 2000
    dim: int = 48
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 96
    max_seq_len: int = 64
    num_segments: int = 2
    dropout: float = 0.1
    pad_token_id: int = 0
    seed: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


class TransformerLayer(Module):
    """Pre-LayerNorm encoder block: LN -> MHSA -> add, LN -> FFN -> add."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.attn_norm = LayerNorm(config.dim)
        self.attn = MultiHeadSelfAttention(
            config.dim, config.num_heads, rng, dropout=config.dropout
        )
        self.ffn_norm = LayerNorm(config.dim)
        self.ffn = MLP(
            config.dim,
            config.ffn_dim,
            config.dim,
            rng,
            activation="gelu",
            dropout=config.dropout,
        )
        self.drop = Dropout(config.dropout, rng)

    def forward(self, x: Tensor, blocking_mask: Optional[np.ndarray]) -> Tensor:
        x = x + self.drop(self.attn(self.attn_norm(x), blocking_mask))
        x = x + self.drop(self.ffn(self.ffn_norm(x)))
        return x


class TransformerEncoder(Module):
    """Token + position (+ segment) embeddings followed by encoder layers.

    ``forward`` returns per-token hidden states ``(B, T, D)``;
    :meth:`pooled` reduces them to one vector per sequence by masked mean
    pooling over the non-pad tokens (at this model scale it yields far
    better similarity structure than the ``[CLS]`` position; the paper's
    RoBERTa learns a usable ``[CLS]`` in its large-scale pre-training).
    """

    def __init__(self, config: TransformerConfig) -> None:
        super().__init__()
        self.config = config
        rng = config.rng()
        self.token_embedding = Embedding(
            config.vocab_size, config.dim, rng, padding_idx=config.pad_token_id
        )
        self.position_embedding = Embedding(config.max_seq_len, config.dim, rng)
        self.segment_embedding = Embedding(config.num_segments, config.dim, rng)
        self.embed_norm = LayerNorm(config.dim)
        self.embed_dropout = Dropout(config.dropout, rng)
        self.layers = [TransformerLayer(config, rng) for _ in range(config.num_layers)]
        self.final_norm = LayerNorm(config.dim)

    # ------------------------------------------------------------------
    def embed(
        self,
        token_ids: np.ndarray,
        segment_ids: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Compute the summed token/position/segment embedding matrix."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        batch, seq = token_ids.shape
        if seq > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        embeddings = self.token_embedding(token_ids) + self.position_embedding(
            positions
        )
        if segment_ids is not None:
            embeddings = embeddings + self.segment_embedding(
                np.asarray(segment_ids, dtype=np.int64)
            )
        return embeddings

    def forward(
        self,
        token_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        segment_ids: Optional[np.ndarray] = None,
        embedding_transform: Optional[EmbeddingTransform] = None,
    ) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if attention_mask is None:
            attention_mask = (token_ids != self.config.pad_token_id).astype(np.int64)
        embeddings = self.embed(token_ids, segment_ids)
        if embedding_transform is not None:
            embeddings = embedding_transform(embeddings, attention_mask)
        hidden = self.embed_dropout(self.embed_norm(embeddings))
        blocking = make_padding_mask(attention_mask)
        for layer in self.layers:
            hidden = layer(hidden, blocking)
        return self.final_norm(hidden)

    # ------------------------------------------------------------------
    def pooled(
        self,
        token_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        segment_ids: Optional[np.ndarray] = None,
        embedding_transform: Optional[EmbeddingTransform] = None,
    ) -> Tensor:
        """Encode and mean-pool to a (B, D) matrix of sequence
        representations."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if attention_mask is None:
            attention_mask = (token_ids != self.config.pad_token_id).astype(np.int64)
        hidden = self.forward(
            token_ids,
            attention_mask=attention_mask,
            segment_ids=segment_ids,
            embedding_transform=embedding_transform,
        )
        # Build the mask and counts in the hidden dtype: a float64 mask
        # would silently upcast the whole pooled output even when the
        # model runs float32 end to end.
        dtype = hidden.data.dtype
        mask = Tensor(attention_mask[:, :, np.newaxis].astype(dtype), dtype=dtype)
        summed = (hidden * mask).sum(axis=1)
        counts = Tensor(
            np.maximum(attention_mask.sum(axis=1, keepdims=True), 1).astype(dtype),
            dtype=dtype,
        )
        return summed / counts


class LMHead(Module):
    """Vocabulary projection head used for masked-LM warm starting."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.transform = Linear(config.dim, config.dim, rng)
        self.norm = LayerNorm(config.dim)
        self.decoder = Linear(config.dim, config.vocab_size, rng)

    def forward(self, hidden: Tensor) -> Tensor:
        return self.decoder(self.norm(self.transform(hidden).gelu()))
