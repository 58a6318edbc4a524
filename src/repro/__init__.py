"""repro — reproduction of Sudowoodo (ICDE 2023).

Contrastive self-supervised learning for multi-purpose data integration
and preparation: entity matching (blocking + matching), data cleaning
(error correction), and semantic column type discovery.

The recommended surface is the session API (``repro.api``): pretrain one
encoder, attach any number of tasks, serve them all.

>>> from repro import SudowoodoConfig, SudowoodoSession
>>> from repro.data.generators import load_em_benchmark
>>> dataset = load_em_benchmark("AB", scale=0.05)
>>> session = SudowoodoSession(SudowoodoConfig(pretrain_epochs=1))
>>> session.pretrain(dataset.all_items())  # doctest: +SKIP
>>> report = session.task("match").fit(dataset, label_budget=100).report()  # doctest: +SKIP
"""

from .api import SudowoodoSession, available_tasks, register_task
from .core import (
    Blocker,
    CandidateSet,
    PairwiseMatcher,
    SudowoodoConfig,
    SudowoodoEncoder,
)
from .serve import EmbeddingStore, MatchService, build_backend

__version__ = "1.2.0"

__all__ = [
    "Blocker",
    "CandidateSet",
    "EmbeddingStore",
    "MatchService",
    "PairwiseMatcher",
    "SudowoodoConfig",
    "SudowoodoEncoder",
    "SudowoodoSession",
    "available_tasks",
    "build_backend",
    "register_task",
    "__version__",
]
