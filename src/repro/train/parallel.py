"""Data-parallel gradient workers for the training engine.

Each step, the prepared batch is split into per-worker shards; every
worker thread runs forward/backward on its **own encoder replica** (the
matmul-heavy hot path releases the GIL inside numpy, so threads overlap),
and the shard gradients are averaged — weighted by shard size — into the
main model before the single optimizer step.

Equivalence contract: at ``worker_count=1`` the engine bypasses this pool
entirely and runs the serial loop, so results are byte-identical to the
pre-engine code.  At ``worker_count>1`` results are deterministic (stable
shard → replica assignment, per-replica RNG streams) but not identical to
the serial run: dropout noise is drawn per replica, and batch-global
losses (e.g. NT-Xent in-batch negatives) see shard-local batches — the
standard data-parallel semantics.  Replica ``i`` starts each of its
generators at the main model's state jumped ``i + 1`` times, so no two
replicas draw the same noise and the main model's streams do not move.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Module
from .checkpoint import module_generators

LossFn = Callable[[Module, Any], Any]


def shard_bounds(
    num_items: int, num_shards: int, min_per_shard: int = 1
) -> Optional[List[Tuple[int, int]]]:
    """Even ``(lo, hi)`` split bounds for sharding a batch across workers.

    The shard count shrinks until every shard holds at least
    ``min_per_shard`` items (contrastive losses need >= 2 for in-batch
    negatives); returns None when fewer than two shards fit — the engine
    then falls back to the serial step.
    """
    num_shards = min(num_shards, num_items // max(1, min_per_shard))
    if num_shards < 2:
        return None
    bounds = np.linspace(0, num_items, num_shards + 1).astype(int)
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]


def _replica(model: Module, index: int) -> Module:
    """A deep copy of ``model`` whose generators are jumped ``index + 1``
    times from the model's (generators shared inside the model stay
    shared inside the copy; the model's own states are not advanced)."""
    replica = copy.deepcopy(model)
    sources = module_generators(model)
    forked = set()
    for path, generator in module_generators(replica).items():
        if id(generator) not in forked:
            forked.add(id(generator))
            generator.bit_generator.state = (
                sources[path].bit_generator.jumped(index + 1).state
            )
    return replica


class GradientWorkerPool:
    """A fixed pool of model replicas plus the threads that drive them.

    The pool is built once per ``fit`` (replica deep-copies are paid a
    single time) and must be :meth:`close`\\ d — the engine does both.
    """

    def __init__(self, model: Module, worker_count: int) -> None:
        if worker_count < 2:
            raise ValueError("GradientWorkerPool needs worker_count >= 2")
        self.model = model
        self.worker_count = worker_count
        self._params = model.parameters()
        self._replicas: List[Module] = [
            _replica(model, index) for index in range(worker_count)
        ]
        self._replica_params = [replica.parameters() for replica in self._replicas]
        self._executor = ThreadPoolExecutor(
            max_workers=worker_count, thread_name_prefix="grad-worker"
        )

    @property
    def replicas(self) -> List[Module]:
        """The per-worker model replicas (checkpointing captures their
        internal RNG states so multi-worker resume stays byte-identical)."""
        return self._replicas

    # ------------------------------------------------------------------
    def run_step(
        self, loss_fn: LossFn, shards: Sequence[Tuple[Any, int]]
    ) -> float:
        """One data-parallel forward/backward over ``shards``.

        ``shards`` holds ``(prepared, num_items)`` pairs (at most
        ``worker_count`` of them).  Shard gradients are averaged into the
        main model's ``param.grad`` — *accumulated* when a gradient is
        already present, as ``backward`` does.  Returns the item-weighted
        mean loss.
        """
        if not shards or len(shards) > self.worker_count:
            raise ValueError(
                f"expected 1..{self.worker_count} shards, got {len(shards)}"
            )
        total = float(sum(size for _, size in shards))
        if total <= 0:
            raise ValueError("shards must carry a positive item count")

        def work(index: int) -> float:
            replica = self._replicas[index]
            prepared, _ = shards[index]
            for param in self._replica_params[index]:
                param.zero_grad()
            loss = loss_fn(replica, prepared)
            loss.backward()
            return float(loss.item())

        self._sync_replicas(len(shards))
        futures = [
            self._executor.submit(work, index) for index in range(len(shards))
        ]
        losses = [future.result() for future in futures]

        weights = [size / total for _, size in shards]
        for p, param in enumerate(self._params):
            averaged = None
            for index, weight in enumerate(weights):
                grad = self._replica_params[index][p].grad
                if grad is None:
                    continue
                contribution = weight * grad
                averaged = (
                    contribution if averaged is None else averaged + contribution
                )
            if averaged is None:
                continue
            if param.grad is None:
                param.grad = averaged.astype(param.data.dtype, copy=False)
            else:
                param.grad += averaged
        return float(sum(w * l for w, l in zip(weights, losses)))

    def _sync_replicas(self, count: int) -> None:
        for index in range(count):
            for main, replica in zip(self._params, self._replica_params[index]):
                np.copyto(replica.data, main.data)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker threads down (replicas are garbage-collected)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "GradientWorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
