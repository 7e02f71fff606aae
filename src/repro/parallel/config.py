"""Configuration for the data-parallel gradient workers."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ParallelConfig", "DEFAULT_SHARD_SIZE"]

#: Default micro-shard size.  Deliberately independent of the worker count:
#: the shard decomposition (and therefore the tree-reduction order and the
#: bit-exact result) is a function of the batch alone, so any ``workers``
#: value — including the in-process ``workers=0`` executor — produces
#: identical parameters.
DEFAULT_SHARD_SIZE = 8


@dataclass(frozen=True)
class ParallelConfig:
    """Settings of the sharded gradient step.

    Attributes
    ----------
    workers:
        Number of gradient-worker processes.  ``0`` runs the identical
        sharded semantics in-process (the reference serial path that every
        worker count reproduces bit-exactly).
    shard_size:
        Rows per micro-shard.  Must not depend on ``workers`` if results
        are to be comparable across worker counts (the default never does).
    sort_by_length:
        Order rows by observation count before slicing shards, so each
        shard re-collates to a near-uniform padded length.  This cuts
        padded-cell compute on uneven datasets and is deterministic
        (stable sort), hence safe for the bit-exactness guarantee.
    timeout_s:
        Per-step deadline for worker replies; a worker that blows it is
        treated as hung, killed and respawned.
    max_retries:
        How many times a failed shard is retried (on a fresh worker)
        before the training step fails loudly.
    union_batching:
        Group shard rows by time-grid overlap
        (:func:`repro.data.plan_union_buckets` capped at ``shard_size``)
        instead of by descending length, so each micro-shard pads to a
        near-shared observation grid (the union-grid batching strategy,
        arXiv 2207.05708).  Still a pure function of the batch, so the
        bit-exactness-across-worker-counts guarantee is preserved.
    """

    workers: int = 0
    shard_size: int = DEFAULT_SHARD_SIZE
    sort_by_length: bool = True
    timeout_s: float = 60.0
    max_retries: int = 1
    union_batching: bool = False

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
