"""Sudowoodo configuration.

Groups the paper's hyper-parameters (Section VI-A2 and Table IV) with the
CPU-scale model dimensions this reproduction uses.  The four optimization
switches mirror the ablation names of Table V:

* ``use_pseudo_labeling``   (PL,  Section III-C)
* ``use_cluster_sampling``  (Cls, Section IV-B)
* ``use_cutoff``            (Cut, Section IV-A)
* ``use_barlow_twins``      (RR,  Section IV-C)

With all four off, the pipeline degenerates to plain SimCLR — the paper's
base ablation row.

The flat :class:`SudowoodoConfig` dataclass is the one shape of the
configuration: every knob is a field, written once with its default.
:meth:`SudowoodoConfig.to_dict` / :meth:`SudowoodoConfig.from_dict`
round-trip it as a flat mapping (the shape encoder checkpoints store).
Per-task presets (the defaults the cleaning and column drivers used to
duplicate) live in :meth:`SudowoodoConfig.for_task`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional


@dataclass
class SudowoodoConfig:
    """All model, training, pseudo-labeling, and serving hyper-parameters.

    Defaults are the CPU-scale calibration of the paper's Table IV /
    Section VI-A2 settings; every field can be overridden per experiment
    and :meth:`ablated` flips the four optimization switches.
    """

    # ------------------------------------------------------------- model
    dim: int = 48
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 96
    max_seq_len: int = 48
    pair_max_seq_len: int = 64
    vocab_size: int = 1500

    # ---------------------------------------------------------- pretrain
    pretrain_epochs: int = 3  # paper: 3
    pretrain_batch_size: int = 16  # paper: 64
    da_operator: str = "token_del"  # paper's EM default: token_del
    cutoff_kind: str = "span"  # paper: span cutoff works best
    cutoff_ratio: float = 0.05  # Table IV best: 0.05
    num_clusters: int = 10  # paper: 90 for 10k items (~1/100); scaled
    alpha_bt: float = 1e-3  # Table IV best: 1e-3
    corpus_cap: Optional[int] = 10_000  # paper fixes corpus size to 10k
    mlm_warm_start_epochs: int = 1  # stand-in for "init from pre-trained LM"

    # ---------------------------------------------------------- finetune
    finetune_epochs: int = 15  # paper: 50 at full scale
    finetune_batch_size: int = 16
    finetune_lr: float = 1e-4  # encoder LR; paper: 5e-5 (3e-5 fully sup.)

    # ------------------------------------------------------ pseudo label
    positive_ratio: float = 0.10  # rho, from {5%, 10%, ...}
    multiplier: int = 8  # Table IV best: 8 (7x extra labels)
    # Fraction of rho used when *selecting* pseudo positives: only the very
    # top of the similarity ranking becomes positive (theta+ conservative),
    # which keeps pseudo-positive precision high at small-encoder scale.
    # The class-balanced loss (always on) restores the effective positive
    # weight.
    pseudo_positive_fraction: float = 0.3

    # ------------------------------------------------------------- other
    blocking_k: int = 10
    seed: int = 0

    # ----------------------------------------------------------- serving
    # ANN backend for candidate generation: "exact" | "hnsw" | "ivfpq".
    # HNSW runs at HNSWBackend's own graph defaults (docs/serving.md,
    # "when to pick hnsw").
    ann_backend: str = "exact"
    # IVF-PQ backend knobs (serve.ivfpq): coarse k-means cell count,
    # product-quantization subvectors per vector (dim must divide evenly),
    # bits per PQ code (codebook size 2**bits, max 8 = one byte per code),
    # and how many cells each query probes (recall/latency dial).
    ivf_cells: int = 64
    pq_subvectors: int = 8
    pq_bits: int = 8
    nprobe: int = 8
    # EmbeddingStore: encode chunk size of cache misses.
    serve_batch_size: int = 64
    # In-RAM precision of served vectors (EmbeddingStore cache + backend
    # corpus rows), and the precision the exact backend scores in:
    # "float64" byte-equal to the seed (<= 1e-12 once a remove reordered
    # rows), "float32" half the RSS and within 1e-6 of the float64 cosine
    # of the stored rows, "float16" within 1e-3 (docs/serving.md).
    store_dtype: str = "float32"
    # Sharded serving (serve.sharding): with num_shards > 1 the ANN index
    # is hash-partitioned across lock-guarded per-shard backends.
    # ServiceFrontend's broker (serve.broker) collects concurrent search()
    # callers for up to coalesce_window_ms into one batched encoder /
    # backend call, capped at max_coalesce_batch queries per batch
    # (window 0 = no added latency, only simultaneous callers coalesce).
    num_shards: int = 1
    coalesce_window_ms: float = 2.0
    max_coalesce_batch: int = 64
    # Front-end admission policy (serve.frontend): max_queue_depth bounds
    # admitted-but-unfinished requests — beyond it new arrivals are shed
    # with a typed Overloaded error (None = never shed).
    max_queue_depth: Optional[int] = None

    # ----------------------------------------------------- training engine
    # Data-parallel gradient workers of the shared step-loop runtime
    # (repro.train.Trainer) on every training path: contrastive
    # pre-training, MLM warm start, and matcher fine-tuning (EM, cleaning,
    # columns).  1 is the serial loop, byte-identical to the pre-engine
    # loops; see docs/training.md.
    train_workers: int = 1

    # ------------------------------------------------- optimization flags
    use_pseudo_labeling: bool = True
    use_cluster_sampling: bool = True
    use_cutoff: bool = True
    use_barlow_twins: bool = True

    # ------------------------------------------------------------------
    def ablated(self, **flags: bool) -> "SudowoodoConfig":
        """Return a copy with optimization switches flipped, e.g.
        ``config.ablated(use_cutoff=False)`` for Sudowoodo (-cut)."""
        return replace(self, **flags)

    def as_simclr(self) -> "SudowoodoConfig":
        """All four optimizations off — the SimCLR baseline row."""
        return self.ablated(
            use_pseudo_labeling=False,
            use_cluster_sampling=False,
            use_cutoff=False,
            use_barlow_twins=False,
        )

    # ------------------------------------------------------------------
    # Dict round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize to the flat field mapping :meth:`from_dict` reads."""
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "SudowoodoConfig":
        """Build a config from a flat field mapping; any other key raises
        ``ValueError``.  Names in :data:`RETIRED_CONFIG_FIELDS` are
        dropped, so configs saved before a field was deleted still load;
        a ``da_operator`` in :data:`RETIRED_DA_OPERATORS` reads as the
        default operator.

        Round-trip guarantee: ``from_dict(cfg.to_dict()) == cfg``.
        """
        values: Dict[str, Any] = {}
        for key, value in mapping.items():
            if key in _FIELD_NAMES:
                values[key] = value
            elif key not in RETIRED_CONFIG_FIELDS:
                raise ValueError(
                    f"unknown config key {key!r}; "
                    f"valid fields: {sorted(_FIELD_NAMES)}"
                )
        if values.get("da_operator") in RETIRED_DA_OPERATORS:
            del values["da_operator"]
        return cls(**values)

    # ------------------------------------------------------------------
    # Per-task presets
    # ------------------------------------------------------------------
    @classmethod
    def for_task(cls, task: str, **overrides: Any) -> "SudowoodoConfig":
        """The paper's per-task configuration preset for ``task``.

        Known tasks are the registered session tasks (``"match"``,
        ``"block"``, ``"clean"``, ``"column_match"``,
        ``"column_cluster"``, and the discovery tier
        ``"join_discovery"`` / ``"dedupe"`` / ``"streaming_er"``);
        ``overrides`` are applied on top of the preset.
        """
        if task not in TASK_CONFIG_DEFAULTS:
            raise ValueError(
                f"unknown task {task!r}; valid tasks: "
                f"{sorted(TASK_CONFIG_DEFAULTS)}"
            )
        values = dict(TASK_CONFIG_DEFAULTS[task])
        values.update(overrides)
        return cls(**values)

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range hyper-parameters."""
        if not 0.0 <= self.alpha_bt <= 1.0:
            raise ValueError("alpha_bt must be in [0, 1]")
        if not 0.0 < self.positive_ratio < 1.0:
            raise ValueError("positive_ratio must be in (0, 1)")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.cutoff_ratio < 1.0:
            raise ValueError("cutoff_ratio must be in [0, 1)")
        if self.blocking_k < 1:
            raise ValueError("blocking_k must be >= 1")
        if self.cutoff_kind not in VALID_CUTOFF_KINDS:
            raise ValueError(
                f"unknown cutoff kind {self.cutoff_kind!r}; "
                f"valid options: {', '.join(sorted(VALID_CUTOFF_KINDS))}"
            )
        # Imported here: ``augment`` depends on ``data`` and must not load
        # at ``core.config`` import time.
        from ..augment.operators import ALL_OPERATORS

        if self.da_operator not in ALL_OPERATORS:
            raise ValueError(
                f"unknown da_operator {self.da_operator!r}; "
                f"valid options: {', '.join(sorted(ALL_OPERATORS))}"
            )
        if not self.ann_backend:
            raise ValueError("ann_backend must be a non-empty backend name")
        if self.ivf_cells < 1:
            raise ValueError("ivf_cells must be >= 1")
        if self.pq_subvectors < 1:
            raise ValueError("pq_subvectors must be >= 1")
        if not 1 <= self.pq_bits <= 8:
            raise ValueError("pq_bits must be in [1, 8]")
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.store_dtype not in VALID_STORE_DTYPES:
            raise ValueError(
                f"unknown store_dtype {self.store_dtype!r}; "
                f"valid options: {', '.join(VALID_STORE_DTYPES)}"
            )
        if self.serve_batch_size < 1:
            raise ValueError("serve_batch_size must be positive")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.coalesce_window_ms < 0:
            raise ValueError("coalesce_window_ms must be >= 0")
        if self.max_coalesce_batch < 1:
            raise ValueError("max_coalesce_batch must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive or None")
        if self.train_workers < 1:
            raise ValueError("train_workers must be >= 1")


#: Fields earlier versions had and later deleted.  Saved configs (encoder
#: checkpoints) still carry them; :meth:`SudowoodoConfig.from_dict` drops
#: them instead of raising.  ``lsh_*`` went with the LSH backend,
#: ``train_prefetch`` with background batch preparation, the next four
#: with the training engine's accumulation, clipping, early stopping and
#: checkpoint cadence, and the next two with the embedding store's LRU
#: bound and the lake-discovery batch knob (its default, 256, stays).
#: The last fifteen were options only tests set: each default is now a
#: constant where it is used (``core.encoder.PROJECTOR_DIM`` and
#: ``DROPOUT``, ``core.pretrain.PRETRAIN_LR``, ``core.matcher.HEAD_LR``,
#: ``api.tasks.PSEUDO_LABEL_WEIGHT``, the loss functions' defaults and
#: ``HNSWBackend``'s keyword defaults); mean pooling and the class
#: balance are always on; the front end's per-request budget and drain
#: classes went with the code they set; a persistent lake cache is
#: ``LakeDiscoveryTask.fit(store=...)``.
RETIRED_CONFIG_FIELDS = (
    "lsh_num_tables",
    "lsh_num_bits",
    "train_prefetch",
    "grad_accum_steps",
    "grad_clip",
    "early_stop_patience",
    "checkpoint_every",
    "embed_cache_capacity",
    "discovery_batch_size",
    "projector_dim",
    "dropout",
    "pooling",
    "temperature",
    "lambda_bt",
    "pretrain_lr",
    "head_lr",
    "pseudo_label_weight",
    "class_balance",
    "hnsw_m",
    "hnsw_ef_construction",
    "hnsw_ef_search",
    "profile_cache_dir",
    "default_deadline_ms",
    "priority_levels",
)

#: ``da_operator`` values earlier versions accepted and later deleted: an
#: adaptive operator scheduler and two operators outside Table I.
#: :meth:`SudowoodoConfig.from_dict` reads them as the default operator;
#: :meth:`SudowoodoConfig.validate` rejects them.
RETIRED_DA_OPERATORS = ("auto", "mixup_embed", "identity")

_FIELD_NAMES = frozenset(f.name for f in fields(SudowoodoConfig))


#: Valid ``cutoff_kind`` values (see ``augment.cutoff``).
VALID_CUTOFF_KINDS = ("token", "feature", "span", "none")

#: Valid ``store_dtype`` values (in-RAM precision of served vectors; the
#: on-disk ``serve.vecstore.MemmapVectorStore`` additionally supports
#: ``int8`` scalar quantization via its own ``dtype`` argument).
VALID_STORE_DTYPES = ("float64", "float32", "float16")


#: The preset of every task that embeds serialized columns: the two
#: column tasks and join discovery.
_COLUMN_TASK_DEFAULTS: Dict[str, Any] = dict(
    da_operator="cell_shuffle",
    cutoff_kind="span",
    use_pseudo_labeling=False,
    max_seq_len=40,
    pair_max_seq_len=72,
)

#: Per-task configuration presets behind :meth:`SudowoodoConfig.for_task`
#: (Sections V-A and V-B of the paper).  ``match`` / ``block`` use the EM
#: defaults unchanged; cleaning swaps in span_shuffle DA and disables
#: pseudo-labeling; column tasks use cell_shuffle DA and longer columns.
TASK_CONFIG_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "match": {},
    "block": {},
    "clean": dict(
        da_operator="span_shuffle",
        cutoff_kind="span",
        use_pseudo_labeling=False,
        positive_ratio=0.10,
    ),
    "column_match": _COLUMN_TASK_DEFAULTS,
    "column_cluster": _COLUMN_TASK_DEFAULTS,
    # Discovery tier: join_discovery and lake_discovery are one task
    # under two names; dedupe is a self-join of the EM pipeline;
    # streaming ER replays a feed through the serving stack.
    "join_discovery": _COLUMN_TASK_DEFAULTS,
    "lake_discovery": _COLUMN_TASK_DEFAULTS,
    "dedupe": {},
    "streaming_er": {},
}
