"""Union-grid batched ODE solves (the Lam et al. batching strategy).

:func:`union_solve` is the execution half of union-grid batching (the
planning half is :func:`repro.data.plan_union_buckets`): samples are
bucketed by time-span overlap, each bucket's observation times are merged
into one union grid, the bucket is integrated **once** with dopri5 — the
per-sample error norms and freezing from the solver core keep
heterogeneous buckets safe — and each sample's own observation times are
read back out of the dense-output interpolant (:func:`dopri5_dense_solve`,
the per-bucket step).  RHS evaluations are amortized over the whole
bucket, so NFE per sample falls roughly with the bucket size (see
``BENCH_batching.json``).

:func:`padded_shard_solve` is the reference baseline the equivalence
tests and the benchmark compare against: the pre-existing behaviour of
solving each micro-shard of ``shard_size`` length-sorted rows over the
shard's full padded common grid.  Both drivers share one bucket loop and
differ only in how they group the rows.

Both drivers take the batch's RHS as a *factory* ``func_for(indices)``
returning the right-hand side restricted to those batch rows, because
model dynamics close over per-sample context (encodings, masks) that must
be sliced alongside ``y0``.

Telemetry (when the registry is enabled): ``batching.buckets``,
``batching.union_grid_len``, ``batching.bucket_size`` and
``batching.nfe_per_sample`` — see ``docs/telemetry.md``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..autodiff import Tensor, stack
from ..data.batching import UnionBucket, plan_union_buckets
from ..odeint import SolverStats
from ..odeint.dopri5 import _dopri5_core
from ..telemetry import get_registry

__all__ = ["union_solve", "padded_shard_solve"]

OdeFunc = Callable[[float, Tensor], Tensor]
FuncFactory = Callable[[np.ndarray], OdeFunc]


def dopri5_dense_solve(func: OdeFunc, y0: Tensor,
                       sample_times: Sequence[np.ndarray], *, t0: float,
                       rtol: float = 1e-5, atol: float = 1e-7,
                       max_steps: int = 10_000
                       ) -> tuple[list[Tensor], SolverStats]:
    """One union-grid solve, read out at each sample's own times.

    ``sample_times[i]`` is row ``i``'s own strictly-increasing observation
    grid (at least one of them non-empty) and ``y0`` the batched state at
    the common initial time ``t0``.  The solver integrates **once** over
    the merged union of all grids — intermediate times cost
    dense-interpolant evaluations, not extra steps — and each sample's
    states are gathered back out at only its own times.

    Returns ``(per_sample, stats)`` where ``per_sample[i]`` has shape
    ``(len(sample_times[i]), *y0.shape[1:])`` and remains a
    differentiable view into the single shared solve.  Forward
    integration only: every sample time must be ``>= t0``.
    """
    arrays = [np.asarray(ts, dtype=np.float64).reshape(-1)
              for ts in sample_times]
    union = np.unique(np.concatenate([a for a in arrays if a.size]))
    t0 = float(t0)
    if union[0] < t0:
        raise ValueError(
            f"sample time {union[0]} precedes the initial time t0={t0}")

    prepend = union[0] > t0
    grid = np.concatenate([[t0], union]) if prepend else union
    offset = 1 if prepend else 0

    if len(grid) < 2:
        # Every observation coincides with t0: nothing to integrate.
        outputs = [y0]
        stats = SolverStats(method="dopri5")
    else:
        outputs, stats, _ = _dopri5_core(func, y0, grid, rtol, atol,
                                         max_steps)
    stacked = stack(outputs, axis=0)

    per_sample: list[Tensor] = []
    for i, a in enumerate(arrays):
        pos = np.searchsorted(union, a) + offset
        per_sample.append(stacked[pos, np.full(a.size, i, dtype=np.int64)])
    return per_sample, stats


def _sample_grids(driver: str, y0: Tensor,
                  sample_times: Sequence[np.ndarray],
                  t0: float | None) -> tuple[list[np.ndarray], float]:
    """Validate a driver's per-row grids; resolve the common ``t0``."""
    arrays = [np.asarray(ts, dtype=np.float64).reshape(-1)
              for ts in sample_times]
    rows = y0.shape[0] if y0.ndim >= 1 else 1
    if len(arrays) != rows:
        raise ValueError(
            f"{driver}: got {len(arrays)} sample grids for batch of {rows}")
    if t0 is None:
        starts = [a[0] for a in arrays if a.size]
        if not starts:
            raise ValueError(f"{driver} needs at least one observation")
        t0 = float(min(starts))
    return arrays, t0


def _solve_buckets(func_for: FuncFactory, y0: Tensor,
                   arrays: list[np.ndarray], groups: Sequence[np.ndarray],
                   t0: float, rtol: float, atol: float, max_steps: int
                   ) -> tuple[list[Tensor], SolverStats]:
    """The bucket loop both drivers share: one dense solve per row group.

    ``dopri5_dense_solve`` is looked up as a module global on every
    bucket, so instrumentation that patches it sees each solve.
    """
    total = SolverStats(method="dopri5")
    out: list[Tensor | None] = [None] * len(arrays)
    for idx in groups:
        grids = [arrays[int(i)] for i in idx]
        if not any(g.size for g in grids):
            # Padded/empty rows: nothing to integrate, nothing to read.
            for i in idx:
                out[int(i)] = y0[np.empty(0, dtype=np.int64)]
            continue
        per, stats = dopri5_dense_solve(
            func_for(idx), y0[idx], grids, t0=t0, rtol=rtol, atol=atol,
            max_steps=max_steps)
        total.merge(stats)
        for k, i in enumerate(idx):
            out[int(i)] = per[k]
    return out, total  # type: ignore[return-value]


def _publish_buckets(buckets: list[UnionBucket], stats: SolverStats,
                     n_samples: int) -> None:
    """Emit the ``batching.*`` metrics for one planned solve."""
    registry = get_registry()
    if registry is None or not getattr(registry, "enabled", False):
        return
    registry.inc("batching.buckets", len(buckets))
    for b in buckets:
        registry.observe("batching.union_grid_len", float(len(b.grid)))
        registry.observe("batching.bucket_size", float(b.size))
    if n_samples:
        registry.observe("batching.nfe_per_sample",
                         stats.nfev / n_samples)


def union_solve(func_for: FuncFactory, y0: Tensor,
                sample_times: Sequence[np.ndarray], *,
                t0: float | None = None,
                max_bucket: int = 64, min_overlap: float = 0.25,
                rtol: float = 1e-5, atol: float = 1e-7,
                max_steps: int = 10_000
                ) -> tuple[list[Tensor], SolverStats]:
    """Solve a whole irregular batch via union-grid buckets.

    Parameters
    ----------
    func_for:
        Factory mapping an index array (rows of the batch) to the RHS
        restricted to those rows: ``func_for(idx)(t, y)`` must accept
        ``y`` of shape ``(len(idx), *y0.shape[1:])``.
    y0:
        Batched initial state at the common initial time ``t0``.
    sample_times:
        Per-sample strictly-increasing observation grids, exactly one per
        row of ``y0`` (empty grids yield empty outputs).
    t0:
        Common initial time; defaults to the earliest observation across
        the batch.  Every bucket's solve starts here, so outputs are
        comparable across bucketing choices.
    max_bucket, min_overlap:
        Planner knobs — see :func:`repro.data.plan_union_buckets`.
    rtol, atol, max_steps:
        dopri5 settings, as in :class:`repro.odeint.SolverOptions`.

    Returns
    -------
    ``(per_sample, stats)``: ``per_sample[i]`` is the differentiable
    solution Tensor of shape ``(len(sample_times[i]), *y0.shape[1:])``
    in the original batch order; ``stats`` merges every bucket's
    :class:`~repro.odeint.SolverStats`.
    """
    arrays, t0 = _sample_grids("union_solve", y0, sample_times, t0)
    buckets = plan_union_buckets(arrays, max_bucket=max_bucket,
                                 min_overlap=min_overlap)
    out, total = _solve_buckets(func_for, y0, arrays,
                                [b.indices for b in buckets], t0, rtol,
                                atol, max_steps)
    _publish_buckets(buckets, total, len(arrays))
    return out, total


def padded_shard_solve(func_for: FuncFactory, y0: Tensor,
                       sample_times: Sequence[np.ndarray], *,
                       t0: float | None = None,
                       shard_size: int = 8, sort_by_length: bool = True,
                       rtol: float = 1e-5, atol: float = 1e-7,
                       max_steps: int = 10_000
                       ) -> tuple[list[Tensor], SolverStats]:
    """Reference baseline: per-shard padded common-grid solves.

    Reproduces the pre-union behaviour of the training path: rows are
    stably sorted by descending observation count, sliced into shards of
    ``shard_size``, and each shard is integrated once over the merged
    grid of *all* its samples' times (the padded common grid), with each
    sample's own times gathered back out.  Same outputs as
    :func:`union_solve` within solver tolerance, but the solve cost is
    paid per small shard and per the densest member's span.
    """
    arrays, t0 = _sample_grids("padded_shard_solve", y0, sample_times, t0)
    n = len(arrays)
    order = np.arange(n)
    if sort_by_length and n > 1:
        lengths = np.array([a.size for a in arrays])
        order = order[np.argsort(-lengths, kind="stable")]
    shards = [order[s:s + shard_size] for s in range(0, n, shard_size)]
    return _solve_buckets(func_for, y0, arrays, shards, t0, rtol, atol,
                          max_steps)
