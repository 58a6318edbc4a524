"""Deterministic random-number management.

Every stochastic component in the library draws from an explicitly seeded
``numpy.random.Generator``; nothing touches global random state.  An
:class:`RngStream` derives independent child generators by name so that,
e.g., data augmentation and dropout noise do not perturb each other's
sequences when one of them is reconfigured.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def spawn_rng(seed: int, *names: str) -> np.random.Generator:
    """Create a generator whose seed is derived from ``seed`` and ``names``.

    The derivation hashes the names so that streams are stable under
    refactoring (insertion order does not matter) and independent across
    distinct names.
    """
    digest = hashlib.sha256(("/".join(names)).encode("utf-8")).digest()
    offset = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, offset]))


class RngStream:
    """A named family of deterministic generators sharing a root seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._children: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the child generator for ``name``."""
        if name not in self._children:
            self._children[name] = spawn_rng(self.seed, name)
        return self._children[name]

    # ------------------------------------------------------------------
    # Serialization (training checkpoint/resume)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """JSON-serializable snapshot: root seed plus every child
        generator's bit-generator state.

        Restoring via :meth:`load_state_dict` makes each child continue
        its sequence exactly where the snapshot left off — the invariant
        byte-identical training resume depends on.
        """
        return {
            "seed": self.seed,
            "children": {
                name: generator.bit_generator.state
                for name, generator in self._children.items()
            },
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot (in place).

        Children are created on demand, so the stream need not have
        handed out the same names yet; generators already handed out by
        reference resume mid-sequence.  A root-seed mismatch raises
        ``ValueError`` — resuming under a different seed would silently
        mix two unrelated randomness plans.
        """
        if int(state["seed"]) != int(self.seed):
            raise ValueError(
                f"RngStream seed mismatch: snapshot has {state['seed']}, "
                f"stream has {self.seed}"
            )
        for name, child_state in state["children"].items():
            self.get(name).bit_generator.state = child_state
