"""DL-Block baseline (Thirumuruganathan et al., PVLDB 2021).

DL-Block is the state-of-the-art deep-learning blocking framework the
paper compares against in Figure 7 / Table VII.  Its strongest variants
use self-supervised representations *without* Sudowoodo's contrastive
matching objective.  Here it is reproduced as kNN blocking over the
masked-LM warm-started encoder's embeddings (no contrastive step), which
is exactly the representational gap the paper's comparison isolates.
"""

from __future__ import annotations

from typing import Optional

from ..core import SudowoodoConfig
from ..core.blocker import Blocker
from ..data import EMDataset
from .ditto import build_warm_encoder


class DLBlockBlocker(Blocker):
    """kNN blocker over non-contrastive (MLM-only) representations."""

    def __init__(
        self,
        dataset: EMDataset,
        config: Optional[SudowoodoConfig] = None,
    ) -> None:
        config = config or SudowoodoConfig()
        encoder = build_warm_encoder(dataset, config)
        super().__init__(encoder, dataset)

