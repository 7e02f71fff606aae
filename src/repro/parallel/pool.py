"""Sharded gradient executors: in-process reference and the worker pool.

Both executors implement the same contract — ``grad_step(batch)`` computes
the batch gradient into ``param.grad`` and returns the (weighted-mean)
loss — and both realise the *same* arithmetic:

1. :func:`~repro.parallel.plan_shards` splits the batch into micro-shards
   (a function of the batch and config only, never the worker count),
2. each shard's raw flat gradient comes from
   :func:`~repro.training.objective.batch_grad`,
3. shard gradients are scaled by their loss weights and combined with the
   fixed-order :func:`~repro.parallel.tree_reduce`, then divided by the
   total weight.

The only difference is *where* step 2 runs: sequentially in-process
(``workers=0``) or on fork workers fed through shared-memory arenas.  A
worker executes byte-identical parameters on byte-identical shard arrays,
so the end-to-end result is bit-identical for any worker count.

Fault handling (pool only): a worker that crashes, hangs past
``timeout_s`` or raises mid-shard is respawned and the affected shards are
re-dispatched; a shard that fails more than ``max_retries`` times fails
the training step with the worker's traceback attached.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing.connection import wait as _conn_wait
import time

import numpy as np

from ..telemetry import get_registry
from ..training.objective import batch_grad, loss_weight
from ..training.optim import unpack_grads
from .config import ParallelConfig
from .reduce import tree_reduce
from .sharding import plan_shards, shard_batch
from .shm import Arena, ArraySpec, aligned_capacity
from .worker import worker_main

__all__ = ["InProcessExecutor", "WorkerPool", "WorkerFailure",
           "make_executor"]

_SHARD_FIELDS = ("values", "times", "mask", "labels", "target_times",
                 "target_values", "target_mask")


class WorkerFailure(RuntimeError):
    """A shard exhausted its retries; carries the last worker traceback."""


def make_executor(model, task: str, config: ParallelConfig):
    """The executor matching ``config`` (pool iff ``workers > 0``)."""
    if config.workers > 0:
        return WorkerPool(model, task, config)
    return InProcessExecutor(model, task, config)


class _ShardedExecutor:
    """Shared plan/scale/reduce/unpack logic of both executors."""

    def __init__(self, model, task: str, config: ParallelConfig):
        self.model = model
        self.task = task
        self.config = config
        self.params = list(model.parameters())
        self.param_size = sum(p.size for p in self.params)

    # -- subclass hook ---------------------------------------------------
    def _shard_grads(self, shards) -> tuple[list[np.ndarray], list[float]]:
        """Raw flat gradient and loss per shard, in plan order."""
        raise NotImplementedError

    # -- the one gradient step -------------------------------------------
    def grad_step(self, batch) -> float:
        reg = get_registry()
        plan = plan_shards(batch, self.config)
        shards = [shard_batch(batch, idx) for idx in plan]
        weights = [loss_weight(self.model, self.task, s) for s in shards]

        flats, losses = self._shard_grads(shards)

        with reg.timer("reduce"):
            scaled = [flat * w for flat, w in zip(flats, weights)]
            total, adds = tree_reduce(scaled)
            total_weight = float(sum(weights))
            unpack_grads(self.params, total * (1.0 / total_weight))
        loss = float(sum(w * l for w, l in zip(weights, losses))
                     / total_weight)

        if reg.enabled:
            reg.inc("parallel.steps")
            reg.inc("parallel.shards", len(shards))
            reg.inc("parallel.reduce_adds", adds)
            for s in shards:
                reg.observe("parallel.shard_rows", s.batch_size)
                reg.observe("parallel.shard_len", s.values.shape[1])
            cells = sum(s.batch_size * s.values.shape[1] for s in shards)
            full = batch.batch_size * np.asarray(batch.values).shape[1]
            if full > 0:
                reg.set_gauge("parallel.trim_ratio", 1.0 - cells / full)
        return loss

    def close(self) -> None:  # pragma: no cover - overridden by the pool
        pass


class InProcessExecutor(_ShardedExecutor):
    """``workers=0``: the reference serial path of the sharded semantics."""

    def _shard_grads(self, shards):
        flats, losses = [], []
        for shard in shards:
            flat, loss = batch_grad(self.model, self.task, shard)
            flats.append(flat)
            losses.append(loss)
        return flats, losses


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("id", "process", "conn")

    def __init__(self, wid: int, process, conn):
        self.id = wid
        self.process = process
        self.conn = conn


class WorkerPool(_ShardedExecutor):
    """Fork-based gradient-worker pool with shared-memory transport."""

    def __init__(self, model, task: str, config: ParallelConfig):
        super().__init__(model, task, config)
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "parallel gradient workers need the POSIX 'fork' start "
                "method; use workers=0 on this platform")
        self._ctx = mp.get_context("fork")
        self._workers: list[_Worker | None] = [None] * config.workers
        self._step_id = 0
        # Parameter arena: fixed layout, written once per step.
        self._param_arena = Arena(
            aligned_capacity(p.data.nbytes for p in self.params) or 8)
        self._param_specs: list[ArraySpec] = []
        for p in self.params:
            self._param_specs.append(self._param_arena.push(p.data))
        self._input_arena: Arena | None = None
        self._grad_arena: Arena | None = None
        self._grad_slots = 0
        get_registry().set_gauge("parallel.workers", config.workers)

    # -- lifecycle -------------------------------------------------------
    def _spawn(self, wid: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(wid, child_conn, self.model, self.task, self._param_arena,
                  self._param_specs, self._input_arena, self._grad_arena,
                  self.param_size),
            daemon=True, name=f"repro-grad-worker-{wid}")
        process.start()
        child_conn.close()
        worker = _Worker(wid, process, parent_conn)
        self._workers[wid] = worker
        return worker

    def _retire(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn hang
                worker.process.kill()
                worker.process.join(timeout=2.0)
        else:
            worker.process.join(timeout=2.0)

    def _respawn(self, wid: int) -> _Worker:
        worker = self._workers[wid]
        if worker is not None:
            self._retire(worker)
        get_registry().inc("parallel.respawns")
        return self._spawn(wid)

    def _respawn_all(self) -> None:
        """Arena layout changed: every worker must re-fork to see it."""
        for wid, worker in enumerate(self._workers):
            if worker is not None:
                self._retire(worker)
                self._workers[wid] = None

    def close(self) -> None:
        for wid, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            self._retire(worker)
            self._workers[wid] = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass

    # -- arenas ----------------------------------------------------------
    def _ensure_arenas(self, shards) -> None:
        need_input = sum(
            sum(np.asarray(a).nbytes + 64 for a in
                (s.values, s.times, s.mask, s.labels, s.target_times,
                 s.target_values, s.target_mask) if a is not None)
            for s in shards)
        need_slots = len(shards)
        grown = False
        if self._input_arena is None or not _fits(self._input_arena,
                                                  need_input):
            self._input_arena = Arena(max(2 * need_input, 1 << 20))
            grown = True
        if self._grad_arena is None or need_slots > self._grad_slots:
            self._grad_slots = 2 * need_slots
            self._grad_arena = Arena(self._grad_slots * self.param_size * 8
                                     or 8)
            grown = True
        if grown and any(w is not None for w in self._workers):
            get_registry().inc("parallel.regrows")
            self._respawn_all()

    def _write_params(self) -> None:
        for p, spec in zip(self.params, self._param_specs):
            self._param_arena.view(spec)[...] = p.data

    def _write_shard(self, shard) -> dict:
        arrays = {}
        for name in _SHARD_FIELDS:
            value = getattr(shard, name)
            arrays[name] = (self._input_arena.push(np.asarray(value))
                            if value is not None else None)
        return arrays

    # -- the parallel step ------------------------------------------------
    def _shard_grads(self, shards):
        reg = get_registry()
        self._ensure_arenas(shards)
        for wid in range(self.config.workers):
            if self._workers[wid] is None:
                self._spawn(wid)

        self._step_id += 1
        step_id = self._step_id
        self._write_params()
        self._input_arena.reset()
        descs = [{"slot": i, "arrays": self._write_shard(s)}
                 for i, s in enumerate(shards)]

        assignment = {i: i % self.config.workers for i in range(len(descs))}
        with reg.timer("dispatch"):
            for wid in range(self.config.workers):
                mine = [d for d in descs if assignment[d["slot"]] == wid]
                if mine:
                    self._workers[wid].conn.send(("step", step_id, mine))

        losses: dict[int, float] = {}
        attempts = {i: 0 for i in range(len(descs))}
        pending = set(attempts)
        deadline = time.monotonic() + self.config.timeout_s

        def _redispatch(slots: list[int], failed: int | None,
                        tb: str | None) -> None:
            """Respawn the owning workers and retry ``slots`` on them."""
            nonlocal deadline
            if failed is not None:
                attempts[failed] += 1
                reg.inc("parallel.retries")
                if attempts[failed] > self.config.max_retries:
                    raise WorkerFailure(
                        f"shard {failed} failed "
                        f"{attempts[failed]} times (workers="
                        f"{self.config.workers}); last worker traceback:\n"
                        f"{tb or '<process died without a traceback>'}")
            for wid in {assignment[s] for s in slots}:
                fresh = self._respawn(wid)
                mine = [d for d in descs if d["slot"] in slots
                        and assignment[d["slot"]] == wid]
                fresh.conn.send(("step", step_id, mine))
            deadline = time.monotonic() + self.config.timeout_s

        with reg.timer("collect"):
            while pending:
                alive = {w.conn: w for w in self._workers
                         if w is not None and
                         any(assignment[s] == w.id for s in pending)}
                sentinels = {w.process.sentinel: w for w in alive.values()}
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Everything still outstanding is on a hung worker.
                    stale = sorted(pending)
                    _redispatch(stale, stale[0],
                                f"worker timed out after "
                                f"{self.config.timeout_s:.1f}s")
                    continue
                ready = _conn_wait(list(alive) + list(sentinels),
                                   timeout=remaining)
                for obj in ready:
                    worker = sentinels.get(obj) or alive.get(obj)
                    if self._workers[worker.id] is not worker:
                        continue  # retired mid-batch by an earlier respawn
                    if obj in sentinels:
                        dead = sorted(s for s in pending
                                      if assignment[s] == worker.id)
                        if dead:
                            _redispatch(dead, dead[0], None)
                        continue
                    try:
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        dead = sorted(s for s in pending
                                      if assignment[s] == worker.id)
                        if dead:
                            _redispatch(dead, dead[0], None)
                        continue
                    if msg[1] != worker.id or msg[2] != step_id:
                        continue  # stale reply from before a respawn
                    if msg[0] == "ok":
                        _, wid, _, slot, loss, busy = msg
                        if slot in pending:
                            pending.discard(slot)
                            losses[slot] = loss
                            reg.inc(f"parallel.worker.{wid}.shards")
                            reg.inc(f"parallel.worker.{wid}.busy_s", busy)
                    else:  # "err"
                        _, wid, _, slot, tb = msg
                        if slot in pending:
                            casualties = sorted(
                                s for s in pending if assignment[s] == wid)
                            _redispatch(casualties, slot, tb)

        grad_view = self._grad_arena.view(
            ArraySpec(0, (self._grad_slots * self.param_size,), "<f8"))
        flats = [grad_view[i * self.param_size:(i + 1) * self.param_size]
                 .copy() for i in range(len(descs))]
        return flats, [losses[i] for i in range(len(descs))]


def _fits(arena: Arena, nbytes: int) -> bool:
    return nbytes <= arena.capacity
