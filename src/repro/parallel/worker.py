"""Gradient-worker process: the loop running inside each fork child.

The worker owns a forked copy of the model.  Every ``step`` message makes
it (1) refresh the copy's parameters from the parameter arena — the parent
wrote the post-optimizer values there before dispatching — then (2) for
each assigned shard, materialise the shard batch from the input arena,
run forward + backward via the shared :func:`~repro.training.objective.
batch_grad`, and write the raw flat gradient into the shard's slot of the
gradient arena.  Only scalars (loss, busy seconds) and descriptors travel
over the control pipe.

Because the worker executes byte-identical parameters on byte-identical
shard arrays with the same numpy build as the parent, its gradients match
the in-process executor's bit for bit — the property the determinism
regression test locks in.
"""

from __future__ import annotations

import time
import traceback

from ..data import Batch
from ..telemetry import get_registry
from ..training.objective import batch_grad
from .shm import Arena, ArraySpec

__all__ = ["worker_main", "materialize_shard"]

_BATCH_FIELDS = ("values", "times", "mask", "labels", "target_times",
                 "target_values", "target_mask")


def materialize_shard(arena: Arena, arrays: dict[str, ArraySpec | None]
                      ) -> Batch:
    """Rebuild a shard :class:`~repro.data.Batch` from arena descriptors."""
    fields = {name: (arena.view(spec) if spec is not None else None)
              for name, spec in arrays.items()}
    return Batch(**{name: fields.get(name) for name in _BATCH_FIELDS})


def _load_params(params, param_arena: Arena, param_specs) -> None:
    for p, spec in zip(params, param_specs):
        p.data[...] = param_arena.view(spec)


def worker_main(worker_id: int, conn, model, task: str, param_arena: Arena,
                param_specs: list[ArraySpec], input_arena: Arena,
                grad_arena: Arena, grad_slot: int) -> None:
    """Entry point of a worker process (started via the ``fork`` context)."""
    # The forked registry may be mid-session in the parent; worker-side
    # telemetry would be invisible anyway, so drop the overhead.
    get_registry().disable()
    params = list(model.parameters())
    grad_flat = grad_arena.view(ArraySpec(0, (grad_arena.capacity // 8,),
                                          "<f8"))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone
        if msg[0] == "stop":
            break
        _, step_id, shards = msg
        loaded = False
        for shard in shards:
            slot = shard["slot"]
            try:
                start = time.perf_counter()
                if not loaded:
                    _load_params(params, param_arena, param_specs)
                    loaded = True
                batch = materialize_shard(input_arena, shard["arrays"])
                flat, loss = batch_grad(model, task, batch)
                grad_flat[slot * grad_slot:slot * grad_slot + flat.size] = flat
                busy = time.perf_counter() - start
                conn.send(("ok", worker_id, step_id, slot, loss, busy))
            except BaseException:
                try:
                    conn.send(("err", worker_id, step_id, slot,
                               traceback.format_exc()))
                except (OSError, BrokenPipeError):
                    break
    try:
        conn.close()
    except OSError:
        pass
