"""``SudowoodoSession`` — pretrain once, serve every task.

The paper's headline claim is *multi-purpose*: one contrastively
pre-trained representation model powers entity matching, blocking, error
correction, and column type discovery.  The session makes that reuse the
unit of the public API:

>>> session = SudowoodoSession(SudowoodoConfig(pretrain_epochs=3))
>>> session.pretrain(corpus_texts)                     # the expensive step, once
>>> match = session.task("match").fit(em_dataset, label_budget=80)
>>> clean = session.task("clean").fit(cleaning_dataset)
>>> cols  = session.task("column_cluster").fit(column_corpus)
>>> service = session.serve("match")                   # streaming upsert/search

Sharing contract
----------------
* The session owns the **pristine pre-trained encoder** and one
  :class:`~repro.serve.store.EmbeddingStore` over it; every task embeds
  through that store, so a record serialized by two tasks is encoded
  once and both see byte-identical vectors.
* A task that fine-tunes (matching, cleaning, column matching) trains on
  a **clone** of the encoder (:meth:`checkout_encoder`), so fitting one
  task never perturbs another task's — or the store's — representations.
* :meth:`serve` exports any fitted task as a thread-safe
  :class:`~repro.serve.service.MatchService` over the shared store:
  cleaning and column embeddings get streaming upsert / delete and
  coalesced concurrent queries exactly like the EM path.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from ..core.config import SudowoodoConfig
from ..core.encoder import SudowoodoEncoder
from ..core.pretrain import PretrainResult, pretrain
from ..serve import EmbeddingStore, MatchService, ServiceFrontend
from ..utils import Timer
from .registry import Task, TaskNotFittedError, available_tasks, create_task


class SudowoodoSession:
    """One pre-trained encoder serving any number of registered tasks.

    Parameters
    ----------
    config:
        The shared :class:`~repro.core.config.SudowoodoConfig`; defaults
        apply when omitted.  Use ``SudowoodoConfig.for_task(...)`` or
        :meth:`SudowoodoConfig.from_dict` to build one, and pass
        task-specific options to ``task(...).fit(...)`` instead of
        cloning configs per task.
    """

    def __init__(self, config: Optional[SudowoodoConfig] = None) -> None:
        self.config = config or SudowoodoConfig()
        self.config.validate()
        self.timer = Timer()
        self.pretrain_result: Optional[PretrainResult] = None
        self._encoder: Optional[SudowoodoEncoder] = None
        self._store: Optional[EmbeddingStore] = None
        self._tasks: Dict[str, Task] = {}

    # ------------------------------------------------------------------
    # Pre-training (the amortized step)
    # ------------------------------------------------------------------
    @property
    def is_pretrained(self) -> bool:
        """Whether the session already holds a pre-trained encoder."""
        return self._encoder is not None

    def pretrain(
        self,
        corpus: Sequence[str],
        force: bool = False,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
    ) -> PretrainResult:
        """Contrastively pre-train the shared encoder on ``corpus``.

        ``corpus`` is any iterable of serialized data items — records,
        cells, columns, or their union when several tasks will share the
        session.  Pre-training twice is almost always a mistake (it
        silently invalidates every fitted task), so a second call raises
        ``RuntimeError`` unless ``force=True``, which also resets the
        store and drops cached task instances.

        With ``checkpoint_dir`` the training engine writes a full-state
        checkpoint after every epoch;
        ``resume=True`` continues from the latest checkpoint in that
        directory (byte-identical to the uninterrupted run — see
        ``docs/training.md``).
        """
        if self.is_pretrained and not force:
            raise RuntimeError(
                "session is already pretrained; pass force=True to "
                "re-pretrain (drops the store and every cached task)"
            )
        with self.timer.section("pretrain"):
            result = pretrain(
                list(corpus),
                self.config,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
            )
        self._adopt(result.encoder, pretrain_result=result)
        return result

    def adopt(
        self,
        encoder: SudowoodoEncoder,
        store: Optional[EmbeddingStore] = None,
    ) -> "SudowoodoSession":
        """Attach an already-trained encoder (e.g. loaded via
        :func:`repro.core.persistence.load_encoder`) instead of
        pre-training; optionally reuse an existing warm ``store``.
        """
        self._adopt(encoder, store=store)
        return self

    def _adopt(
        self,
        encoder: SudowoodoEncoder,
        store: Optional[EmbeddingStore] = None,
        pretrain_result: Optional[PretrainResult] = None,
    ) -> None:
        self._encoder = encoder
        self._store = store or EmbeddingStore(
            encoder,
            batch_size=self.config.serve_batch_size,
            dtype=self.config.store_dtype,
        )
        self.pretrain_result = pretrain_result
        self._tasks = {}

    # ------------------------------------------------------------------
    # Shared state
    # ------------------------------------------------------------------
    @property
    def encoder(self) -> SudowoodoEncoder:
        """The pristine shared encoder (raises before :meth:`pretrain`)."""
        if self._encoder is None:
            raise RuntimeError(
                "session has no encoder; call pretrain(corpus) or "
                "adopt(encoder) first"
            )
        return self._encoder

    @property
    def store(self) -> EmbeddingStore:
        """The shared embedding store (raises before :meth:`pretrain`)."""
        if self._store is None:
            raise RuntimeError(
                "session has no embedding store; call pretrain(corpus) or "
                "adopt(encoder) first"
            )
        return self._store

    def checkout_encoder(self) -> SudowoodoEncoder:
        """A deep copy of the shared encoder for in-place fine-tuning.

        Tasks train matchers on checkouts, never on the shared encoder,
        so the session's embeddings stay valid across task fits.
        """
        with self.timer.section("encoder_checkout"):
            return self.encoder.clone()

    def embed(self, texts: Sequence[str], normalize: bool = True) -> np.ndarray:
        """Embed ``texts`` through the shared store (cache-first)."""
        return self.store.embed_batch(texts, normalize=normalize)

    def embedding_fingerprint(self, texts: Sequence[str]) -> str:
        """Content hash of the shared-encoder embeddings of ``texts``.

        Byte-stable: the same session produces the same fingerprint for
        the same texts no matter how many tasks ran in between — the
        testable form of "fitting tasks never mutates the shared
        representation".
        """
        vectors = self.embed(texts, normalize=False)
        return hashlib.sha256(
            np.ascontiguousarray(vectors, dtype=np.float64).tobytes()
        ).hexdigest()

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def task(self, name: str, fresh: bool = False, **options: Any) -> Task:
        """The session's task instance for ``name`` (cached per name).

        The first call instantiates the registered task bound to this
        session; later calls return the same instance — so
        ``session.task("match")`` after fitting retrieves the fitted
        task — unless ``fresh=True`` replaces it.  Unknown names raise
        ``ValueError`` listing the registered tasks.
        """
        if fresh or name not in self._tasks:
            self._tasks[name] = create_task(name, self, **options)
        elif options:
            raise ValueError(
                f"task {name!r} already exists for this session; pass "
                "fresh=True to rebuild it with new options"
            )
        return self._tasks[name]

    def fitted_tasks(self) -> Dict[str, Task]:
        """Name -> task for every cached task that has been fitted."""
        return {
            name: task
            for name, task in self._tasks.items()
            if getattr(task, "fitted", False)
        }

    def tasks(self) -> Dict[str, bool]:
        """Every registered task name -> whether this session holds a
        fitted instance of it.

        Covers the full registry (including tasks this session never
        instantiated, reported as ``False``), so callers can discover
        what is *available* and what is *ready to serve* in one call.
        """
        return {
            name: bool(getattr(self._tasks.get(name), "fitted", False))
            for name in available_tasks()
        }

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        task: Optional[Union[str, Task]] = None,
        index: bool = True,
        frontend: bool = False,
    ) -> Union[MatchService, ServiceFrontend]:
        """Export the session (optionally a fitted task) as a live service.

        Returns a thread-safe :class:`~repro.serve.service.MatchService`
        sharing this session's encoder and warm store.  With ``task`` (a
        name or a fitted task instance) the task's corpus is loaded into
        the live index — streaming ``upsert_records`` / ``delete_records`` /
        ``search_batch`` then work over it.  The tasks with a corpus are
        ``match`` (table B), ``column_match`` (serialized columns),
        ``lake_discovery`` / ``join_discovery`` (column profiles),
        ``dedupe`` (canonical records) and ``streaming_er``; any other
        task raises ``ValueError`` unless ``index=False``.  Match
        probabilities stay with the task (``task.predict``).
        ``index=False`` skips corpus indexing (call
        ``service.index_records`` yourself).

        With ``frontend=True`` the service is wrapped in a
        :class:`~repro.serve.frontend.ServiceFrontend` — the one
        coalescing ``search`` entry point, with bounded admission, a
        streaming metrics registry, and zero-downtime blue/green
        ``reindex``.  Shard count, queue depth and coalescing window come
        from the session's config
        (``dataclasses.replace(config, num_shards=...)``).
        """
        bound: Optional[Task] = None
        if task is not None:
            bound = self._tasks.get(task, task) if isinstance(task, str) else task
            if isinstance(bound, str):
                raise ValueError(
                    f"task {bound!r} has not been created on this session; "
                    f"known tasks: {', '.join(available_tasks())}"
                )
            if not getattr(bound, "fitted", False):
                raise TaskNotFittedError(
                    str(getattr(bound, "name", bound)), "serving it"
                )
        service = MatchService(self.encoder, config=self.config, store=self.store)
        if bound is not None and index:
            corpus = bound.corpus_texts()
            if corpus:
                service.index_records(corpus)
        if frontend:
            return ServiceFrontend(service)
        return service
