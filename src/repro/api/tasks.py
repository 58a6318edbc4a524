"""Built-in session tasks: match, block, clean, column_match, column_cluster.

Each task binds one workload to a :class:`~repro.api.session.SudowoodoSession`
and follows the common ``fit`` / ``predict`` / ``evaluate`` / ``report``
lifecycle of the :class:`~repro.api.registry.Task` protocol.  Tasks embed
through the session's shared :class:`~repro.serve.store.EmbeddingStore`
(so corpora are encoded once per session) and fine-tune on *checkouts* of
the shared encoder (so no task ever perturbs another's representations,
and nothing ever clears the shared store).

The task class *is* the workload: block -> pseudo-label -> fine-tune
(Figure 2, steps 2-4) lives in :class:`MatchTask`, error correction in
:class:`CleanTask`, column blocking / labeling / matching in
:class:`ColumnMatchTask`.  They compose the plain building blocks of
``core`` (``Blocker``, ``generate_pseudo_labels``, ``finetune_matcher``),
``cleaning`` (``serialize_cell``, ``score_repairs``)
and ``columns`` (``discover_types``); step 1, pre-training, is the
session's.

``fit`` is atomic with respect to ``fitted``: it is cleared on entry and
set only when training succeeded, so a failed (re-)fit leaves a task that
says it is unfitted, with no matcher and no cached predictions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cleaning.candidates import CandidateGenerator
from ..cleaning.cleaner import score_repairs, serialize_cell
from ..columns.clustering import ClusterReport, discover_types
from ..core.blocker import Blocker, CandidateSet
from ..core.matcher import (
    PairwiseMatcher,
    TrainingExample,
    _apply_class_balance,
    evaluate_f1,
    finetune_matcher,
)
from ..core.pseudo_label import PseudoLabelSet, generate_pseudo_labels
from ..serve import ANNBackend, build_backend
from ..text.similarity import normalize_rows
from ..utils import RngStream, Timer
from .registry import TaskNotFittedError, register_task
from .results import (
    BlockResult,
    CleanResult,
    ColumnClusterResult,
    ColumnMatchResult,
    MatchResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.em_dataset import EMDataset
    from ..data.generators.cleaning import CleaningDataset
    from ..data.generators.columns import ColumnCorpus
    from .session import SudowoodoSession

#: Loss weight of a pseudo-labelled pair; manual labels weigh 1.0.
PSEUDO_LABEL_WEIGHT = 0.5


class SessionTask:
    """Base class for session-bound tasks (see the ``Task`` protocol).

    Subclasses set ``name`` via :func:`~repro.api.registry.register_task`
    and implement ``fit`` / ``predict`` / ``evaluate`` / ``report``.
    """

    #: Registry name; assigned by :func:`register_task`.
    name: str = ""

    def __init__(self, session: "SudowoodoSession") -> None:
        self.session = session
        self.fitted = False
        self._matcher: Optional[PairwiseMatcher] = None

    def _require_fitted(self, operation: str = "this operation") -> None:
        if not self.fitted:
            raise TaskNotFittedError(self.name, operation)

    @staticmethod
    def _resolve_k(k: Optional[int], default: int) -> int:
        """``default`` when ``k`` is None — the only "not given" value;
        ``k < 1`` is an error, never a silent fall-back to the default."""
        if k is None:
            return default
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        return k

    def _new_blocker(self, dataset: "EMDataset") -> Blocker:
        """A blocker over ``dataset`` embedding through the shared store
        (the pristine encoder: blocking never needs a checkout)."""
        return Blocker(
            dataset=dataset,
            store=self.session.store,
            backend=build_backend(self.session.config),
        )

    @property
    def matcher(self) -> Optional[PairwiseMatcher]:
        """The task's fine-tuned pairwise matcher (None when it has none
        or is not fitted)."""
        return self._matcher

    def corpus_texts(self) -> List[str]:
        """Serialized records the task indexes when exported via
        :meth:`SudowoodoSession.serve`; tasks without a servable corpus
        raise ``ValueError``."""
        raise ValueError(
            f"task {self.name!r} has no corpus to serve; "
            "use serve(task, index=False) for an empty service"
        )


@register_task("match")
class MatchTask(SessionTask):
    """Entity matching over an :class:`~repro.data.em_dataset.EMDataset`
    (Figure 2, steps 2-4): block by kNN over the shared embeddings,
    pseudo-label the candidates, fine-tune a matcher on manual + pseudo
    labels using a checkout of the session encoder.

    The same task drives the semi-supervised (label budget > 0),
    unsupervised (budget 0, positive-ratio prior only) and
    fully-supervised settings, plus all ablations via
    :meth:`SudowoodoConfig.ablated`.
    """

    def __init__(self, session: "SudowoodoSession") -> None:
        super().__init__(session)
        #: Wall-clock sections of the latest fit: ``blocking``,
        #: ``pseudo_label``, ``finetune``, ``evaluate``.
        self.timer = Timer()
        self.dataset: Optional["EMDataset"] = None
        self._blocker: Optional[Blocker] = None
        self._pseudo: Optional[PseudoLabelSet] = None
        self._num_manual = 0
        self._num_pseudo = 0

    @property
    def pipeline(self) -> "MatchTask":
        """Alias of the task itself, kept because the frozen
        ``benchmarks/perf`` reads ``task.pipeline.timer.summary()``."""
        return self

    def fit(
        self,
        dataset: "EMDataset",
        label_budget: int = 500,
        head: str = "sudowoodo",
    ) -> "MatchTask":
        """Blocking + pseudo-labels + matcher fine-tuning (no pre-training
        — the session already paid for it)."""
        self.fitted = False
        self._matcher = None
        self.dataset = dataset
        self.timer = Timer()
        self._blocker = None
        self._pseudo = None
        config = self.session.config
        matcher = PairwiseMatcher(self.session.checkout_encoder(), head=head)
        train, valid = self.build_training_set(label_budget)
        # The step budget is what the *manual* set alone would consume, so
        # pseudo labels never buy extra compute (Section VI-B).
        manual_size = self._num_manual or len(train)
        steps_per_epoch = max(
            1, int(np.ceil(manual_size / config.finetune_batch_size))
        )
        with self.timer.section("finetune"):
            finetune_matcher(
                matcher,
                train,
                valid,
                config,
                fixed_steps=steps_per_epoch * config.finetune_epochs,
            )
        self._matcher = matcher
        self.fitted = True
        return self

    def _require_dataset(self, operation: str) -> "EMDataset":
        if self.dataset is None:
            raise TaskNotFittedError(self.name, operation)
        return self.dataset

    # -- blocking (step 2) ----------------------------------------------
    @property
    def blocker(self) -> Blocker:
        """The dataset's blocker, built on first use.  Stream table-B
        changes through ``session.serve("match").upsert_records`` /
        ``delete_records``."""
        dataset = self._require_dataset("blocking")
        if self._blocker is None:
            with self.timer.section("blocking"):
                self._blocker = self._new_blocker(dataset)
        return self._blocker

    def block(self, k: Optional[int] = None) -> CandidateSet:
        """Candidate pairs at ``k`` (default: ``config.blocking_k``)."""
        k = self._resolve_k(k, self.session.config.blocking_k)
        return self.blocker.candidates(k)

    # -- pseudo-labeling (step 3) ---------------------------------------
    def pseudo_labels(
        self,
        num_labels: int,
        exclude: Optional[Set[Tuple[int, int]]] = None,
        k: Optional[int] = None,
    ) -> PseudoLabelSet:
        """Similarity-ranked pseudo labels over the candidate set."""
        config = self.session.config
        candidate_set = self.block(k)
        effective_ratio = max(
            0.01, config.positive_ratio * config.pseudo_positive_fraction
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
        if self._pseudo is None:
            raise RuntimeError("generate pseudo labels first")
        return self._pseudo.quality(self.dataset.matches)

    # -- fine-tuning (step 4) -------------------------------------------
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
        dataset = self._require_dataset("building a training set")
        config = self.session.config
        rngs = RngStream(config.seed)
        manual_pairs = (
            dataset.sample_labeled(label_budget, rngs.get("labels"))
            if label_budget > 0
            else []
        )
        manual = [
            TrainingExample(*dataset.serialize_pair(pair), pair.label, 1.0)
            for pair in manual_pairs
        ]

        pseudo_examples: List[TrainingExample] = []
        if config.use_pseudo_labeling:
            base = len(manual) if manual else max(32, config.finetune_batch_size * 4)
            num_pseudo = max(0, (config.multiplier - 1) * base)
            exclude = {(p.left, p.right) for p in manual_pairs}
            pseudo = self.pseudo_labels(num_pseudo, exclude=exclude)
            for label, pairs in ((1, pseudo.positives), (0, pseudo.negatives)):
                for left, right in pairs:
                    pseudo_examples.append(
                        TrainingExample(
                            dataset.serialize_a(left),
                            dataset.serialize_b(right),
                            label,
                            PSEUDO_LABEL_WEIGHT,
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
        _apply_class_balance(train)
        return train, valid

    # -- the Task protocol ----------------------------------------------
    def predict(
        self,
        pairs: Sequence[Tuple[str, str]],
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Match probabilities (``(N, 2)`` softmax rows) for text pairs."""
        self._require_fitted("predict()")
        return self._matcher.predict_proba(
            list(pairs),
            batch_size=batch_size or self.session.config.serve_batch_size,
        )

    def evaluate(self, split: str = "test") -> Dict[str, float]:
        """Precision / recall / F1 on the ``train``, ``valid`` or ``test``
        split of the fitted dataset."""
        self._require_fitted("evaluate()")
        if split not in ("train", "valid", "test"):
            raise ValueError(
                f"unknown split {split!r}; choose from train, valid, test"
            )
        pairs = getattr(self.dataset.pairs, split)
        texts = [self.dataset.serialize_pair(p) for p in pairs]
        labels = [p.label for p in pairs]
        with self.timer.section("evaluate"):
            return evaluate_f1(self._matcher, texts, labels)

    def corpus_texts(self) -> List[str]:
        """Table-B records — the searchable side of the live index."""
        if not self.fitted:
            return []
        return [self.dataset.serialize_b(j) for j in range(len(self.dataset.table_b))]

    def report(self) -> MatchResult:
        """Benchmark-ready result with test metrics and label accounting."""
        return MatchResult(
            task=self.name,
            metrics=self.evaluate("test"),
            timings=self.timer.summary(),
            dataset=self.dataset.name,
            num_manual_labels=self._num_manual,
            num_pseudo_labels=self._num_pseudo,
            pseudo_quality=(
                self.pseudo_label_quality() if self._pseudo is not None else {}
            ),
        )


@register_task("block")
class BlockTask(SessionTask):
    """Blocking only: kNN candidate generation over the shared embeddings
    (no fine-tuning, no labels)."""

    def __init__(self, session: "SudowoodoSession") -> None:
        super().__init__(session)
        self.timer = Timer()
        self._blocker: Optional[Blocker] = None
        self._candidates: Optional[CandidateSet] = None
        self.k = 0

    def fit(self, dataset: "EMDataset", k: Optional[int] = None) -> "BlockTask":
        """Embed both tables through the shared store and build the
        candidate set at ``k`` (default ``config.blocking_k``)."""
        self.fitted = False
        k = self._resolve_k(k, self.session.config.blocking_k)
        timer = Timer()
        with timer.section("blocking"):
            blocker = self._new_blocker(dataset)
        candidates = blocker.candidates(k)
        self.timer, self.k = timer, k
        self._blocker, self._candidates = blocker, candidates
        self.fitted = True
        return self

    @property
    def blocker(self) -> Blocker:
        """The fitted blocker (recall/CSSR curves)."""
        self._require_fitted("reading the blocker")
        return self._blocker

    def predict(self, k: Optional[int] = None) -> CandidateSet:
        """The candidate set (recomputed when ``k`` differs from fit)."""
        self._require_fitted("predict()")
        k = self._resolve_k(k, self.k)
        if k == self.k:
            return self._candidates
        return self._blocker.candidates(k)

    def evaluate(self, **_: Any) -> Dict[str, float]:
        """Recall over ground-truth matches and CSSR at the fitted k."""
        candidates = self.predict()
        return {
            "recall": candidates.recall(self._blocker.dataset.matches),
            "cssr": candidates.cssr(),
        }

    def report(self) -> BlockResult:
        """Candidate volume and the recall/CSSR point at the fitted k."""
        return BlockResult(
            task=self.name,
            metrics=self.evaluate(),
            timings=self.timer.summary(),
            dataset=self._blocker.dataset.name,
            k=self.k,
            num_candidates=len(self.predict()),
        )


#: Corrections per cell the clean task's matcher scores; longer candidate
#: lists are pruned by embedding similarity first.
MAX_MATCH_CANDIDATES = 6


@register_task("clean")
class CleanTask(SessionTask):
    """Error correction over a
    :class:`~repro.data.generators.cleaning.CleaningDataset` (Section
    V-A): label ~20 uniformly sampled rows, fine-tune the matcher on
    (cell, candidate) pairs, then for every cell take the candidate
    maximizing the match probability — the cell is clean when every
    candidate is rejected.

    Pseudo-labeling is *not* used here (the task is not similarity-based,
    Section V-A).  Candidate pruning — the section's optional blocking
    step — embeds through the shared store, i.e. with the *pre-trained*
    encoder; only the matcher sees fine-tuned weights.
    """

    def __init__(self, session: "SudowoodoSession") -> None:
        super().__init__(session)
        self.timer = Timer()
        self.dataset: Optional["CleaningDataset"] = None
        self.generator: Optional[CandidateGenerator] = None
        self._recoverable_rate = 0.0
        self._repairs: Optional[Dict[Tuple[int, str], str]] = None

    def fit(
        self,
        dataset: "CleaningDataset",
        generator: Optional[CandidateGenerator] = None,
        labeled_rows: int = 20,
    ) -> "CleanTask":
        """Fine-tune on ``labeled_rows`` uniformly sampled rows, using the
        session encoder (no per-task pre-training)."""
        self.fitted = False
        self._matcher = None
        self._repairs = None
        config = self.session.config
        generator = generator or CandidateGenerator().fit(dataset)
        rng = RngStream(config.seed).get("labeled-rows")
        num_rows = len(dataset.dirty)
        chosen = rng.choice(num_rows, size=min(labeled_rows, num_rows), replace=False)
        recoverable = 0
        examples: List[TrainingExample] = []
        for row in sorted(int(r) for r in chosen):
            for attribute in dataset.schema:
                value = dataset.dirty[row].get(attribute)
                truth = dataset.ground_truth(row, attribute)
                # Candidate *corrections* only — the original value is not a
                # correction; "keep the cell" is the all-candidates-rejected
                # outcome (M_pm = 0), as in the paper's decision rule.
                candidates = [
                    c for c in generator.candidates(row, attribute) if c != value
                ]
                cell_text = serialize_cell(dataset, row, attribute, value)
                negatives = [c for c in candidates if c != truth]
                rng.shuffle(negatives)
                if truth != value and truth in candidates:
                    recoverable += 1
                    examples.append(
                        TrainingExample(
                            cell_text,
                            serialize_cell(dataset, row, attribute, truth),
                            1,
                            1.0,
                        )
                    )
                for candidate in negatives[:2]:
                    examples.append(
                        TrainingExample(
                            cell_text,
                            serialize_cell(dataset, row, attribute, candidate),
                            0,
                            1.0,
                        )
                    )
        if not any(e.label == 1 for e in examples):
            raise RuntimeError(
                "labeled rows contain no recoverable errors; increase "
                "labeled_rows or the dataset scale"
            )
        _apply_class_balance(examples)

        timer = Timer()
        matcher = PairwiseMatcher(self.session.checkout_encoder())
        with timer.section("finetune"):
            finetune_matcher(matcher, examples, examples, config)

        self.timer, self.dataset, self.generator = timer, dataset, generator
        # The labeled rows give an unbiased estimate of the *recoverable*
        # error rate; the apply phase repairs the same fraction of cells,
        # taking the highest-scoring candidates first.  (This mirrors the
        # paper's use of dataset priors — cf. the positive ratio rho in
        # pseudo-labeling — and replaces a poorly calibrated 0.5 cut.)
        self._recoverable_rate = recoverable / max(1, len(chosen) * len(dataset.schema))
        self._matcher = matcher
        self.fitted = True
        return self

    def predict(self) -> Dict[Tuple[int, str], str]:
        """Proposed repairs: ``(row, attribute) -> corrected value`` for
        the cells whose chosen candidate differs from the current value.

        Full-table matcher inference runs once per fit; later calls
        (and :meth:`evaluate` / :meth:`report`) reuse the cached repairs.
        """
        self._require_fitted("predict()")
        if self._repairs is None:
            self._repairs = self._correct()
        return self._repairs

    def _correct(self) -> Dict[Tuple[int, str], str]:
        dataset = self.dataset
        # Gather (cell, candidate) queries, embedding-pruned to the top few
        # candidates per cell (the optional "blocking" step of Section V-A).
        queries: List[Tuple[str, str]] = []
        spans: List[Tuple[int, str, List[str]]] = []
        for row in range(len(dataset.dirty)):
            for attribute in dataset.schema:
                value = dataset.dirty[row].get(attribute)
                candidates = [
                    c
                    for c in self.generator.candidates(row, attribute)
                    if c != value
                ]
                if not candidates:
                    continue
                candidates = self._prune(row, attribute, value, candidates)
                cell_text = serialize_cell(dataset, row, attribute, value)
                for candidate in candidates:
                    queries.append(
                        (
                            cell_text,
                            serialize_cell(dataset, row, attribute, candidate),
                        )
                    )
                spans.append((row, attribute, candidates))

        with self.timer.section("correct"):
            probabilities = (
                self._matcher.predict_proba(queries)[:, 1] if queries else np.array([])
            )
        best_scores: List[float] = []
        best_candidates: List[str] = []
        cursor = 0
        for row, attribute, candidates in spans:
            scores = probabilities[cursor : cursor + len(candidates)]
            cursor += len(candidates)
            best = int(np.argmax(scores))
            best_scores.append(float(scores[best]))
            best_candidates.append(candidates[best])

        # Repair budget: the recoverable-error rate estimated from the
        # labeled rows, applied to the whole table.
        total_cells = len(dataset.dirty) * len(dataset.schema)
        budget = min(int(round(self._recoverable_rate * total_cells)), len(spans))
        repairs: Dict[Tuple[int, str], str] = {}
        if budget > 0:
            order = np.argsort(-np.array(best_scores))[:budget]
            for index in order:
                row, attribute, _ = spans[int(index)]
                # Still require the matcher to prefer "match" outright.
                if best_scores[int(index)] < 0.5:
                    continue
                repairs[(row, attribute)] = best_candidates[int(index)]
        return repairs

    def _prune(
        self, row: int, attribute: str, value: str, candidates: List[str]
    ) -> List[str]:
        """Top :data:`MAX_MATCH_CANDIDATES` corrections by embedding
        similarity to the cell.  Candidates repeat heavily across cells (they come from
        shared domain vocabularies), so this goes through the cached
        store instead of re-encoding per cell."""
        if len(candidates) <= MAX_MATCH_CANDIDATES:
            return candidates
        texts = [serialize_cell(self.dataset, row, attribute, c) for c in candidates]
        cell_vector = self.session.embed(
            [serialize_cell(self.dataset, row, attribute, value)]
        )
        scores = self.session.embed(texts) @ cell_vector[0]
        keep = np.argsort(-scores)[: MAX_MATCH_CANDIDATES]
        return [candidates[int(i)] for i in sorted(keep)]

    def evaluate(
        self, exclude_rows: Optional[Sequence[int]] = None
    ) -> Dict[str, float]:
        """Correction precision / recall / F1 against ground truth."""
        result = score_repairs(self.dataset, self.predict(), exclude_rows)
        return {
            "precision": result.precision,
            "recall": result.recall,
            "f1": result.f1,
        }

    def report(self) -> CleanResult:
        """Correction metrics plus the applied repairs."""
        repairs = self.predict()
        return CleanResult(
            task=self.name,
            metrics=self.evaluate(),
            timings=self.timer.summary(),
            dataset=self.dataset.name,
            repaired=len(repairs),
            repairs=repairs,
        )


@register_task("column_match")
class ColumnMatchTask(SessionTask):
    """Column matching over a
    :class:`~repro.data.generators.columns.ColumnCorpus` (Section V-B).

    Data items are table columns serialized as ``[VAL] v1 [VAL] v2 ...``
    (bare-bone: no column names or table metadata).  The workload mirrors
    EM: kNN blocking among the column embeddings extracts candidate
    pairs, a sample of candidates is labeled (match = same ground-truth
    semantic type), and the pairwise matcher is fine-tuned on an encoder
    checkout.
    """

    def __init__(
        self,
        session: "SudowoodoSession",
        max_values_per_column: int = 8,
    ) -> None:
        super().__init__(session)
        self.max_values = max_values_per_column
        self.timer = Timer()
        self.k = 0
        self.corpus: Optional["ColumnCorpus"] = None
        self.texts: List[str] = []
        self._vectors: Optional[np.ndarray] = None
        self._backend: Optional[ANNBackend] = None
        self._result: Optional[ColumnMatchResult] = None

    def fit(
        self,
        corpus: "ColumnCorpus",
        k: int = 20,
        num_labels: int = 1000,
    ) -> "ColumnMatchTask":
        """Embed columns through the shared store, label candidates, and
        fine-tune the pair matcher on an encoder checkout."""
        self.fitted = False
        self._matcher = None
        self._result = None
        self.k = self._resolve_k(k, 20)
        config = self.session.config
        self.timer = Timer()
        self.corpus = corpus
        self.texts = corpus.serialized(max_values=self.max_values)
        with self.timer.section("embed"):
            raw = self.session.embed(self.texts, normalize=False)
            self._vectors = normalize_rows(raw - raw.mean(axis=0, keepdims=True))
        self._backend = build_backend(config).build(self._vectors)

        candidates = self.candidate_pairs()
        splits = self.build_labeled_pairs(candidates, num_labels)
        train = self._examples(splits["train"])
        _apply_class_balance(train)
        valid = self._examples(splits["valid"])
        test = self._examples(splits["test"])
        matcher = PairwiseMatcher(self.session.checkout_encoder())
        with self.timer.section("finetune"):
            finetune_matcher(matcher, train, valid, config)

        def score(examples: List[TrainingExample]) -> Dict[str, float]:
            return evaluate_f1(
                matcher,
                [(e.left, e.right) for e in examples],
                [e.label for e in examples],
            )

        with self.timer.section("evaluate"):
            valid_metrics, test_metrics = score(valid), score(test)
        positives = sum(label for _, _, label in splits["train"])
        self._result = ColumnMatchResult(
            task=self.name,
            metrics=test_metrics,
            num_candidates=len(candidates),
            positive_rate=positives / max(1, len(splits["train"])),
            valid_metrics=valid_metrics,
        )
        self._matcher = matcher
        self.fitted = True
        return self

    def candidate_pairs(self, k: Optional[int] = None) -> List[Tuple[int, int]]:
        """kNN blocking among columns at ``k`` (default: the fitted k);
        self-matches excluded, pairs deduplicated as ``(min, max)``.

        Candidate generation goes through the config-selected ANN backend
        (exact by default, HNSW via ``ann_backend="hnsw"``).
        """
        if self._backend is None:
            raise TaskNotFittedError(self.name, "candidate_pairs()")
        k = self._resolve_k(k, self.k)
        with self.timer.section("blocking"):
            indices, _ = self._backend.query(self._vectors, k + 1)
            pairs: Set[Tuple[int, int]] = set()
            for i in range(indices.shape[0]):
                for j in indices[i]:
                    j = int(j)
                    if j == i or j < 0:
                        continue
                    pairs.add((min(i, j), max(i, j)))
        return sorted(pairs)

    def build_labeled_pairs(
        self, candidates: Sequence[Tuple[int, int]], num_labels: int
    ) -> Dict[str, List[Tuple[int, int, int]]]:
        """Label a uniform sample of candidates with ground truth and split
        2:1:1 (the paper's protocol for the VizNet study)."""
        if self.corpus is None:
            raise TaskNotFittedError(self.name, "build_labeled_pairs()")
        rng = RngStream(self.session.config.seed).get("column-labels")
        chosen = rng.choice(
            len(candidates), size=min(num_labels, len(candidates)), replace=False
        )
        labeled = [
            (
                candidates[int(i)][0],
                candidates[int(i)][1],
                int(self.corpus.same_type(*candidates[int(i)])),
            )
            for i in chosen
        ]
        rng.shuffle(labeled)
        n = len(labeled)
        train_end = n // 2
        valid_end = train_end + n // 4
        return {
            "train": labeled[:train_end],
            "valid": labeled[train_end:valid_end],
            "test": labeled[valid_end:],
        }

    def _examples(
        self, labeled: Sequence[Tuple[int, int, int]]
    ) -> List[TrainingExample]:
        return [
            TrainingExample(self.texts[i], self.texts[j], label, 1.0)
            for i, j, label in labeled
        ]

    def predict(
        self,
        candidates: Optional[Sequence[Tuple[int, int]]] = None,
        threshold: float = 0.9,
        k: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """Same-type column edges among ``candidates`` (default: the kNN
        candidate pairs at ``k``, itself defaulting to the fitted k).

        ``threshold`` trades cluster granularity for purity: connected
        components amplify every false edge, so type discovery uses a
        high-precision cut (the paper notes cluster granularity is
        controlled by adjusting the clustering step).  Use 0.5 for the raw
        matcher decision.
        """
        self._require_fitted("predict()")
        if candidates is None:
            candidates = self.candidate_pairs(k)
        pairs = [(self.texts[i], self.texts[j]) for i, j in candidates]
        probabilities = self._matcher.predict_proba(pairs, batch_size=64)
        return [c for c, p in zip(candidates, probabilities[:, 1]) if p >= threshold]

    def evaluate(self, **_: Any) -> Dict[str, float]:
        """Pair-matching test metrics from the labeled split."""
        self._require_fitted("evaluate()")
        return dict(self._result.metrics)

    def corpus_texts(self) -> List[str]:
        """The serialized columns the live index serves."""
        return list(self.texts) if self.fitted else []

    def report(self) -> ColumnMatchResult:
        """Pair metrics, candidate volume, and the labeled positive rate."""
        self._require_fitted("report()")
        return replace(
            self._result,
            metrics=dict(self._result.metrics),
            valid_metrics=dict(self._result.valid_metrics),
            timings=self.timer.summary(),
        )


@register_task("column_cluster")
class ColumnClusterTask(SessionTask):
    """Semantic type discovery: column matching plus connected-component
    clustering of the predicted same-type edges (Tables IX / XIII)."""

    def __init__(
        self,
        session: "SudowoodoSession",
        max_values_per_column: int = 8,
    ) -> None:
        super().__init__(session)
        self._match = ColumnMatchTask(
            session, max_values_per_column=max_values_per_column
        )
        self._edges: List[Tuple[int, int]] = []
        self._clusters: Optional[ClusterReport] = None

    def fit(
        self,
        corpus: "ColumnCorpus",
        k: int = 20,
        num_labels: int = 1000,
        threshold: float = 0.9,
    ) -> "ColumnClusterTask":
        """Fit the underlying column matcher, predict edges at
        ``threshold``, and cluster them into discovered types."""
        self.fitted = False
        self._match.fit(corpus, k=k, num_labels=num_labels)
        self._edges = self._match.predict(threshold=threshold, k=k)
        self._clusters = discover_types(corpus, self._edges)
        self.fitted = True
        return self

    @property
    def matcher(self) -> Optional[PairwiseMatcher]:
        """The underlying column-pair matcher once fitted."""
        return self._match.matcher if self.fitted else None

    def predict(self) -> List[List[int]]:
        """The discovered multi-column clusters (column index lists)."""
        self._require_fitted("predict()")
        return self._clusters.clusters

    def evaluate(self, **_: Any) -> Dict[str, float]:
        """Cluster purity and count, plus the pair-matching F1."""
        self._require_fitted("evaluate()")
        return {
            "purity": self._clusters.mean_purity,
            "num_clusters": float(self._clusters.num_clusters),
            "f1": self._match.evaluate().get("f1", 0.0),
        }

    def report(self) -> ColumnClusterResult:
        """Clusters, purity, subtype discoveries, and match metrics."""
        self._require_fitted("report()")
        return ColumnClusterResult(
            task=self.name,
            metrics=self.evaluate(),
            timings=self._match.timer.summary(),
            num_clusters=self._clusters.num_clusters,
            num_edges=len(self._edges),
            clusters=self._clusters.clusters,
            subtype_discoveries=self._clusters.subtype_discoveries,
            match_metrics=self._match.evaluate(),
        )
