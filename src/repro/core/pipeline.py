"""End-to-end Sudowoodo pipeline for entity matching (Figure 2).

①  contrastive pre-training on the unlabeled union of both tables;
②  blocking by kNN search over the learned embeddings;
③  pseudo-labeling from the candidate set;
④  fine-tuning the pairwise matcher on manual + pseudo labels.

The same object drives the semi-supervised (label budget 500), unsupervised
(budget 0, prior positive ratio only), and fully-supervised settings, plus
all ablations via :meth:`SudowoodoConfig.ablated`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data import EMDataset, LabeledPair
from ..serve import EmbeddingStore, MatchService, build_backend
from ..utils import RngStream, Timer
from .blocker import Blocker, CandidateSet
from .config import SudowoodoConfig
from .encoder import SudowoodoEncoder
from .matcher import (
    FinetuneResult,
    PairwiseMatcher,
    TrainingExample,
    evaluate_f1,
    finetune_matcher,
)
from .pretrain import PretrainResult, pretrain
from .pseudo_label import PseudoLabelSet, generate_pseudo_labels


@dataclass
class PipelineReport:
    """Everything a benchmark needs to print a paper-style row."""

    dataset: str
    test_metrics: Dict[str, float]
    finetune: Optional[FinetuneResult] = None
    pseudo_quality: Optional[Dict[str, float]] = None
    num_manual_labels: int = 0
    num_pseudo_labels: int = 0
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def f1(self) -> float:
        """Test-set F1 — the headline number of every paper table."""
        return self.test_metrics.get("f1", 0.0)


def _apply_class_balance(examples: List[TrainingExample]) -> None:
    """Scale example weights so both classes contribute equally in
    expectation (EM training sets are ~90% negative)."""
    num_pos = sum(1 for e in examples if e.label == 1)
    num_neg = len(examples) - num_pos
    if num_pos == 0 or num_neg == 0:
        return
    weight_of = {
        1: len(examples) / (2.0 * num_pos),
        0: len(examples) / (2.0 * num_neg),
    }
    for example in examples:
        example.weight *= weight_of[example.label]


class SudowoodoPipeline:
    """High-level driver: pretrain -> block -> pseudo-label -> fine-tune.

    .. deprecated::
        ``SudowoodoPipeline`` is now a shim over
        :class:`repro.api.SudowoodoSession`; new code should use
        ``session.task("match")`` (see ``docs/api.md``), which shares one
        pre-training run across every workload.
    """

    def __init__(self, config: Optional[SudowoodoConfig] = None) -> None:
        warnings.warn(
            "SudowoodoPipeline is deprecated; use repro.api.SudowoodoSession "
            "and session.task('match') instead (see docs/api.md)",
            DeprecationWarning,
            stacklevel=2,
        )
        self._init_state(config)

    def _init_state(self, config: Optional[SudowoodoConfig]) -> None:
        self.config = config or SudowoodoConfig()
        self.config.validate()
        self.dataset: Optional[EMDataset] = None
        self.encoder: Optional[SudowoodoEncoder] = None
        self.matcher: Optional[PairwiseMatcher] = None
        self.pretrain_result: Optional[PretrainResult] = None
        self.store: Optional[EmbeddingStore] = None
        self._blocker: Optional[Blocker] = None
        self._pseudo: Optional[PseudoLabelSet] = None
        # True when the store belongs to a SudowoodoSession shared with
        # other tasks: fine-tuning then trains a private encoder clone,
        # so the shared cache stays valid and must not be cleared.
        self._shared_store = False
        self.timer = Timer()

    @classmethod
    def _attached(
        cls,
        config: SudowoodoConfig,
        dataset: EMDataset,
        encoder: SudowoodoEncoder,
        store: EmbeddingStore,
    ) -> "SudowoodoPipeline":
        """Session-internal constructor: adopt a pre-trained encoder and a
        shared embedding store instead of pre-training (no deprecation
        warning — this is the engine behind ``session.task("match")``)."""
        pipeline = cls.__new__(cls)
        pipeline._init_state(config)
        pipeline.dataset = dataset
        pipeline.encoder = encoder
        pipeline.store = store
        pipeline._shared_store = True
        return pipeline

    # ------------------------------------------------------------------
    # ① Pre-training
    # ------------------------------------------------------------------
    def pretrain_on(self, dataset: EMDataset) -> PretrainResult:
        """Contrastive pre-training over the serialized union of A and B."""
        from ..api.session import SudowoodoSession  # deferred: api imports core

        self.dataset = dataset
        with self.timer.section("pretrain"):
            # The session is the one pre-training implementation; this
            # driver keeps its historical surface by adopting the
            # session's encoder and store (blocking, pseudo labeling, and
            # any MatchService built from this pipeline share the store's
            # cache, so the corpus is encoded exactly once).
            session = SudowoodoSession(self.config)
            self.pretrain_result = session.pretrain(dataset.all_items())
        self.encoder = session.encoder
        self.store = session.store
        self._shared_store = False  # private session: the store is ours
        self._blocker = None
        self._pseudo = None
        return self.pretrain_result

    def _require_encoder(self) -> SudowoodoEncoder:
        if self.encoder is None or self.dataset is None:
            raise RuntimeError("call pretrain_on(dataset) first")
        return self.encoder

    # ------------------------------------------------------------------
    # ② Blocking
    # ------------------------------------------------------------------
    @property
    def blocker(self) -> Blocker:
        """Lazily built blocker sharing the pipeline's embedding store."""
        encoder = self._require_encoder()
        if self._blocker is None:
            with self.timer.section("blocking"):
                self._blocker = Blocker(
                    encoder,
                    self.dataset,
                    store=self.store,
                    backend=build_backend(self.config),
                )
        return self._blocker

    def block(self, k: Optional[int] = None) -> CandidateSet:
        """Candidate pairs at ``k`` (default: ``config.blocking_k``)."""
        return self.blocker.candidates(k or self.config.blocking_k)

    # ------------------------------------------------------------------
    # Streaming updates (incremental blocking)
    # ------------------------------------------------------------------
    def upsert_records(self, texts: Sequence[str]) -> np.ndarray:
        """Stream new table-B records into blocking; returns their ids.

        Only the new records are encoded and the ANN backend is patched
        in place — the standing corpus is neither re-encoded nor
        re-indexed.  Pseudo labels derived from the old candidate set
        are invalidated (the next request regenerates them).
        """
        ids = self.blocker.upsert_b(texts)
        self._pseudo = None
        return ids

    def delete_records(self, ids: Sequence[int]) -> None:
        """Retire table-B records from blocking by id (no rebuild)."""
        self.blocker.delete_b(ids)
        self._pseudo = None

    def match_service(self) -> MatchService:
        """Request-level serving facade sharing this pipeline's store.

        The returned service reuses the pipeline's :class:`EmbeddingStore`
        and, when a matcher has been fine-tuned, serves ``match_pairs``
        with it.  Before fine-tuning, corpora embedded during blocking are
        already cached; after :meth:`train_matcher` the cache starts empty
        (fine-tuning mutates the encoder, so pre-finetune vectors were
        dropped) and re-warms on first use.

        The service is thread-safe: its live index is partitioned across
        ``config.num_shards`` lock-guarded shards and concurrent
        ``search`` callers are coalesced into batched calls.
        """
        return MatchService(
            self._require_encoder(),
            config=self.config,
            store=self.store,
            matcher=self.matcher,
        )

    # ------------------------------------------------------------------
    # ③ Pseudo-labeling
    # ------------------------------------------------------------------
    def pseudo_labels(
        self,
        num_labels: int,
        exclude: Optional[Set[Tuple[int, int]]] = None,
        k: Optional[int] = None,
    ) -> PseudoLabelSet:
        """Similarity-ranked pseudo labels over the candidate set (③)."""
        candidate_set = self.block(k)
        effective_ratio = max(
            0.01, self.config.positive_ratio * self.config.pseudo_positive_fraction
        )
        with self.timer.section("pseudo_label"):
            self._pseudo = generate_pseudo_labels(
                self.blocker.vectors_a,
                self.blocker.vectors_b,
                candidate_set.pairs,
                num_labels=num_labels,
                positive_ratio=effective_ratio,
                exclude=exclude,
            )
        return self._pseudo

    def pseudo_label_quality(self) -> Dict[str, float]:
        """TPR/TNR of the most recent pseudo-label set (Table XI)."""
        if self._pseudo is None or self.dataset is None:
            raise RuntimeError("generate pseudo labels first")
        return self._pseudo.quality(self.dataset.matches)

    # ------------------------------------------------------------------
    # ④ Fine-tuning
    # ------------------------------------------------------------------
    def build_training_set(
        self, label_budget: int
    ) -> Tuple[List[TrainingExample], List[TrainingExample]]:
        """Manual + pseudo examples per the paper's protocol.

        * budget > 0 (semi-supervised): sample ``budget`` labels from
          train+valid; the same labels serve as the validation set ("we use
          the same 500 labels for validation for further label saving").
        * budget = 0 (unsupervised): pseudo labels only, with validation on
          a slice of the pseudo labels themselves.
        * pseudo labels enlarge the set to ``multiplier ×`` its manual size
          without increasing the number of fine-tuning steps.
        """
        dataset = self.dataset
        if dataset is None:
            raise RuntimeError("call pretrain_on(dataset) first")
        rngs = RngStream(self.config.seed)
        manual_pairs: List[LabeledPair] = (
            dataset.sample_labeled(label_budget, rngs.get("labels"))
            if label_budget > 0
            else []
        )
        manual = [
            TrainingExample(*dataset.serialize_pair(pair), pair.label, 1.0)
            for pair in manual_pairs
        ]

        pseudo_examples: List[TrainingExample] = []
        if self.config.use_pseudo_labeling:
            base = len(manual) if manual else max(32, self.config.finetune_batch_size * 4)
            num_pseudo = max(0, (self.config.multiplier - 1) * base)
            exclude = {(p.left, p.right) for p in manual_pairs}
            pseudo = self.pseudo_labels(num_pseudo, exclude=exclude)
            weight = self.config.pseudo_label_weight
            for left, right in pseudo.positives:
                pseudo_examples.append(
                    TrainingExample(
                        dataset.serialize_a(left), dataset.serialize_b(right), 1, weight
                    )
                )
            for left, right in pseudo.negatives:
                pseudo_examples.append(
                    TrainingExample(
                        dataset.serialize_a(left), dataset.serialize_b(right), 0, weight
                    )
                )

        train = manual + pseudo_examples
        valid = manual if manual else pseudo_examples[: max(8, len(pseudo_examples) // 5)]
        if not train:
            raise RuntimeError(
                "no training examples: enable pseudo labeling or provide labels"
            )
        self._num_manual = len(manual)
        self._num_pseudo = len(pseudo_examples)
        if self.config.class_balance:
            _apply_class_balance(train)
        return train, valid

    def train_matcher(
        self, label_budget: int = 500, head: str = "sudowoodo"
    ) -> FinetuneResult:
        """Fine-tune the pairwise matcher (④) on manual + pseudo labels."""
        encoder = self._require_encoder()
        train, valid = self.build_training_set(label_budget)
        # The step budget is what the *manual* set alone would consume, so
        # pseudo labels never buy extra compute (Section VI-B).
        manual_size = self._num_manual or len(train)
        steps_per_epoch = max(
            1, int(np.ceil(manual_size / self.config.finetune_batch_size))
        )
        fixed_steps = steps_per_epoch * self.config.finetune_epochs
        self.matcher = PairwiseMatcher(encoder, head=head)
        with self.timer.section("finetune"):
            result = finetune_matcher(
                self.matcher, train, valid, self.config, fixed_steps=fixed_steps
            )
        if self.store is not None and not self._shared_store:
            # Fine-tuning updated the encoder weights in place, so cached
            # vectors now come from a stale model; drop them so later
            # serving requests re-encode consistently.  (Blocking and
            # pseudo-labels already consumed the pre-finetune vectors —
            # the paper's ordering — so nothing upstream is affected.)
            # A session-shared store is exempt: the task fine-tuned a
            # private encoder clone, so the shared vectors are still the
            # pristine pre-trained ones every other task expects.
            self.store.clear()
        return result

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, split: str = "test") -> Dict[str, float]:
        """Precision / recall / F1 of the trained matcher on ``split``."""
        if self.matcher is None or self.dataset is None:
            raise RuntimeError("train a matcher first")
        pairs = getattr(self.dataset.pairs, split)
        texts = [self.dataset.serialize_pair(p) for p in pairs]
        labels = [p.label for p in pairs]
        with self.timer.section("evaluate"):
            return evaluate_f1(self.matcher, texts, labels)

    # ------------------------------------------------------------------
    # One-call experiment driver
    # ------------------------------------------------------------------
    def run(
        self, dataset: EMDataset, label_budget: int = 500, head: str = "sudowoodo"
    ) -> PipelineReport:
        """Full pipeline on a dataset; returns a benchmark-ready report."""
        self.pretrain_on(dataset)
        finetune_result = self.train_matcher(label_budget, head=head)
        metrics = self.evaluate("test")
        pseudo_quality = None
        if self.config.use_pseudo_labeling and self._pseudo is not None:
            pseudo_quality = self.pseudo_label_quality()
        return PipelineReport(
            dataset=dataset.name,
            test_metrics=metrics,
            finetune=finetune_result,
            pseudo_quality=pseudo_quality,
            num_manual_labels=getattr(self, "_num_manual", 0),
            num_pseudo_labels=getattr(self, "_num_pseudo", 0),
            timings=self.timer.summary(),
        )
