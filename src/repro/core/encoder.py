"""The Sudowoodo embedding model: encoder ``M_emb`` + projector ``g``.

The encoder is a Transformer over serialized data items; the projector is
a single linear layer (the paper's choice for text, vs. the MLP head used
in vision).  After pre-training the projector is discarded (Algorithm 1,
line 11) and ``M_emb`` serves blocking, pseudo-labeling, and fine-tuning.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..nn import (
    Linear,
    Module,
    Tensor,
    TransformerConfig,
    TransformerEncoder,
    no_grad,
)
from ..text import Tokenizer
from ..utils import spawn_rng
from .config import SudowoodoConfig

EmbeddingTransform = Callable[[Tensor, np.ndarray], Tensor]


class SudowoodoEncoder(Module):
    """Embedding model + projection head over a fitted tokenizer."""

    def __init__(self, config: SudowoodoConfig, tokenizer: Tokenizer) -> None:
        super().__init__()
        config.validate()
        self.config = config
        self.tokenizer = tokenizer
        transformer_config = TransformerConfig(
            vocab_size=tokenizer.vocab_size,
            dim=config.dim,
            num_layers=config.num_layers,
            num_heads=config.num_heads,
            ffn_dim=config.ffn_dim,
            # Pair encoding needs room for two serialized items.
            max_seq_len=max(config.max_seq_len, config.pair_max_seq_len),
            dropout=config.dropout,
            seed=config.seed,
        )
        self.encoder = TransformerEncoder(transformer_config)
        self.projector = Linear(
            config.dim, config.projector_dim, spawn_rng(config.seed, "projector")
        )
        # Serving-side tokenize+pad cache (created lazily by
        # :meth:`token_cache`): ``embed_items`` re-encodes a corpus after
        # every reindex, and tokenization is the dominant Python-level
        # cost — caching per-item encodings keyed by text fingerprint
        # makes warm re-encodes skip it entirely.
        self._token_cache = None

    # ------------------------------------------------------------------
    # Training-path encodes (gradients flow)
    # ------------------------------------------------------------------
    def encode_training(
        self,
        texts: Sequence[str],
        embedding_transform: Optional[EmbeddingTransform] = None,
        max_len: Optional[int] = None,
    ) -> Tensor:
        """Pooled (B, dim) representations with gradients."""
        encoded = self.tokenizer.encode_batch(
            list(texts), max_len=max_len or self.config.max_seq_len
        )
        return self.encoder.pooled(
            encoded.token_ids,
            attention_mask=encoded.attention_mask,
            pooling=self.config.pooling,
            embedding_transform=embedding_transform,
        )

    def encode_tokens_training(
        self,
        encoding,
        embedding_transform: Optional[EmbeddingTransform] = None,
    ) -> Tensor:
        """Pooled (B, dim) representations from a pre-tokenized batch.

        The training engine tokenizes ahead of the forward pass (through
        its :class:`~repro.train.data.TokenCache`), so the hot path
        enters here; results are byte-identical to
        :meth:`encode_training` on the same texts.
        """
        return self.encoder.pooled(
            encoding.token_ids,
            attention_mask=encoding.attention_mask,
            pooling=self.config.pooling,
            embedding_transform=embedding_transform,
        )

    def encode_pairs_training(
        self, pairs: Sequence[tuple], max_len: Optional[int] = None
    ) -> Tensor:
        """Pooled representations of concatenated ``[CLS] x [SEP] y [SEP]``
        sequences (with segment embeddings), gradients on."""
        encoded = self.tokenizer.encode_pair_batch(
            list(pairs), max_len=max_len or self.config.pair_max_seq_len
        )
        return self.encoder.pooled(
            encoded.token_ids,
            attention_mask=encoded.attention_mask,
            segment_ids=encoded.segment_ids,
            pooling=self.config.pooling,
        )

    def project(self, pooled: Tensor) -> Tensor:
        """Apply the projection head ``g`` (pre-training only)."""
        return self.projector(pooled)

    # ------------------------------------------------------------------
    # Inference-path embeddings (no gradients, batched)
    # ------------------------------------------------------------------
    def token_cache(self):
        """The serving-side tokenize+pad cache (created on first use).

        A :class:`~repro.train.data.TokenCache` keyed by the library-wide
        :func:`~repro.utils.text_fingerprint` — the same scheme the
        :class:`~repro.serve.store.EmbeddingStore` vector cache and the
        training engine use, so one serialized record has a single stable
        identity across every cache layer.
        """
        if self._token_cache is None:
            from ..train.data import TokenCache  # deferred: avoids a cycle

            self._token_cache = TokenCache(self.tokenizer)
        return self._token_cache

    def token_cache_stats(self) -> dict:
        """Hit/miss/size counters of the serving token cache."""
        cache = self._token_cache
        if cache is None:
            return {"hits": 0, "misses": 0, "size": 0}
        return {"hits": cache.hits, "misses": cache.misses, "size": len(cache)}

    def discard_tokens(self, fingerprints: Sequence[str]) -> None:
        """Drop ``fingerprints``' entries from the serving token cache.

        Does nothing when this encoder has no cache yet (it never creates
        one).  The serving store calls it for every record it evicts, so
        the cache holds no entry for a record that left the index.
        """
        if self._token_cache is not None:
            self._token_cache.discard(fingerprints, self.config.max_seq_len)

    def adopt_token_cache(self, other: "SudowoodoEncoder") -> bool:
        """Take over ``other``'s token cache when the vocabularies match.

        Token encodings depend only on the tokenizer, not on model
        weights, so a fine-tuned clone (or a blue/green reindex shadow
        encoder) can reuse the live encoder's warm cache and skip the
        cold tokenize pass entirely.  Returns ``False`` (and leaves this
        encoder untouched) when the vocabularies differ or ``other`` has
        no cache yet.
        """
        cache = other._token_cache
        if cache is None or other.tokenizer.vocab != self.tokenizer.vocab:
            return False
        self._token_cache = cache
        return True

    def encode_tokens_inference(self, encoding) -> np.ndarray:
        """Pooled (B, dim) float64 embeddings for a pre-tokenized batch.

        The inference twin of :meth:`encode_tokens_training`: dropout
        off, no autograd graph, raw (un-normalized) pooled rows.  Callers
        holding cached token encodings (the serving
        :meth:`token_cache`, external feature pipelines) enter here and
        skip tokenization altogether.
        """
        with no_grad():  # dropout is off under no_grad
            pooled = self.encoder.pooled(
                encoding.token_ids,
                attention_mask=encoding.attention_mask,
                pooling=self.config.pooling,
            )
        return pooled.data.astype(np.float64)

    def embed_items(
        self,
        texts: Sequence[str],
        batch_size: int = 64,
        normalize: bool = True,
        use_token_cache: bool = True,
    ) -> np.ndarray:
        """Embed a corpus into a (N, dim) float matrix without gradients.

        Rows are L2-normalized by default (Definition 1 assumes unit-norm
        outputs), so dot products are cosine similarities.  Tokenization
        goes through the fingerprint-keyed :meth:`token_cache` (pass
        ``use_token_cache=False`` to force the cold path); warm rows are
        byte-identical to cold ones — tokenization is deterministic and
        both paths stack through ``Encoding.stack`` — just several times
        faster.  A row depends on its chunk-mates only within that
        method's padding contract (1e-6 in float32).
        """
        cache = self.token_cache() if use_token_cache else None
        max_len = self.config.max_seq_len
        chunks: List[np.ndarray] = []
        for start in range(0, len(texts), batch_size):
            batch = list(texts[start : start + batch_size])
            if cache is not None:
                encoding = cache.encode_batch(batch, max_len)
            else:
                encoding = self.tokenizer.encode_batch(batch, max_len=max_len)
            chunks.append(self.encode_tokens_inference(encoding))
        if not chunks:
            return np.zeros((0, self.config.dim))
        matrix = np.vstack(chunks)
        if normalize:
            norms = np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
            matrix = matrix / norms
        return matrix


    # ------------------------------------------------------------------
    def clone(self) -> "SudowoodoEncoder":
        """An independent deep copy of this encoder (weights, tokenizer,
        config).

        Fine-tuning mutates encoder weights in place, so a task that
        trains a matcher on a *shared* pre-trained encoder would corrupt
        every other consumer's representations.  Cloning first keeps the
        shared encoder (and any :class:`~repro.serve.store.EmbeddingStore`
        built on it) pristine — the contract
        :class:`~repro.api.SudowoodoSession` relies on to serve several
        tasks from one pre-training run.

        The serving token cache is deliberately *not* copied (the clone
        starts cold); a clone that shares the same vocabulary can call
        :meth:`adopt_token_cache` to warm-start from this encoder.
        """
        import copy

        cache, self._token_cache = self._token_cache, None
        try:
            return copy.deepcopy(self)
        finally:
            self._token_cache = cache


def build_tokenizer(corpus: Sequence[str], config: SudowoodoConfig) -> Tokenizer:
    """Fit the tokenizer on the unlabeled corpus (plus pair vocabulary)."""
    return Tokenizer.fit(corpus, vocab_size=config.vocab_size)
