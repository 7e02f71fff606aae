"""Opt-in per-op profiling of the autodiff tape.

``with tape_profile() as prof:`` installs a hook on the IR execution path
(:func:`repro.autodiff.tensor.apply`) that records, for every op executed
inside the block:

* the exact IR opcode (``add``, ``mul``, ``exp``, ``sum``, ``concat``,
  ...) -- the same name the op is registered under in
  :data:`repro.autodiff.ir.OPS`, taken straight from the dispatch, not
  guessed from the interpreter call stack;
* an allocation count and byte total (``out.data.nbytes``);
* **attributed forward time**: the wall-clock elapsed since the previous
  tape node was created on this thread.  In a serial numpy program that
  interval is dominated by the numpy kernel(s) that produced the node, so
  it is a faithful per-op cost signal - but it is an *attribution*, not a
  measurement of the kernel alone (python glue between ops is charged to
  the next op);
* **exact backward time**: the backward pass times each per-opcode rule
  dispatch.  The timing wrapper forwards the gradient tuple untouched, so
  profiled and unprofiled runs produce bit-identical gradients (locked by
  ``tests/autodiff/test_tape_profiling.py``).

When no profiler is active the only cost on the tape hot path is a single
module-global ``is None`` check per node.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from . import tensor as _tensor_mod

__all__ = ["OpRecord", "TapeProfiler", "tape_profile", "active_profiler"]


@dataclass
class OpRecord:
    """Aggregate cost of one op type over a profiled region."""

    count: int = 0
    bytes_allocated: int = 0
    forward_s: float = 0.0
    backward_s: float = 0.0
    backward_calls: int = 0

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "bytes_allocated": self.bytes_allocated,
            "forward_s": self.forward_s,
            "backward_s": self.backward_s,
            "backward_calls": self.backward_calls,
        }


class TapeProfiler:
    """Collects per-op tape statistics; install via :func:`tape_profile`."""

    def __init__(self):
        self.ops: dict[str, OpRecord] = {}
        self.nodes = 0
        self.bytes_allocated = 0
        self.backward_passes = 0
        self.replays = 0
        self.replayed_ops = 0
        self._last_ts = time.perf_counter()

    # -- hooks called from the tape (profiler active only) --------------
    def _record_node(self, op: str, nbytes: int) -> None:
        now = time.perf_counter()
        rec = self.ops.get(op)
        if rec is None:
            rec = self.ops[op] = OpRecord()
        rec.count += 1
        rec.bytes_allocated += nbytes
        rec.forward_s += now - self._last_ts
        self._last_ts = now
        self.nodes += 1
        self.bytes_allocated += nbytes

    def _timed_backward(self, rule, op: str, grad, inputs, out, attrs,
                        needs):
        """Dispatch one backward rule under the timer.

        The result passes through untouched, so profiled and unprofiled
        backward passes are bit-identical.
        """
        rec = self.ops.get(op)
        if rec is None:
            rec = self.ops[op] = OpRecord()
        start = time.perf_counter()
        result = rule(grad, inputs, out, attrs, needs)
        end = time.perf_counter()
        rec.backward_s += end - start
        rec.backward_calls += 1
        # Keep the forward-attribution clock current so time spent in
        # backward rules is never charged to the next forward node.
        self._last_ts = end
        return result

    def _record_backward_pass(self) -> None:
        self.backward_passes += 1
        self._last_ts = time.perf_counter()

    def _record_replay(self, n_ops: int) -> None:
        """One generated-kernel call executed ``n_ops`` recorded ops.

        Kernel calls (the replay executor's ``no_grad`` calls) bypass
        ``tensor.apply`` so they are counted in aggregate here rather than
        per opcode; resetting the attribution clock keeps kernel wall time
        from being charged to the next eager node.
        """
        self.replays += 1
        self.replayed_ops += n_ops
        self._last_ts = time.perf_counter()

    # -- reporting -------------------------------------------------------
    def table(self, top_k: int = 12, sort: str = "total_s") -> list[dict]:
        """Top-K ops as dict rows, sorted by ``total_s``/``count``/bytes."""
        keys = {"total_s": lambda r: r.total_s,
                "forward_s": lambda r: r.forward_s,
                "backward_s": lambda r: r.backward_s,
                "count": lambda r: r.count,
                "bytes": lambda r: r.bytes_allocated}
        if sort not in keys:
            raise ValueError(f"sort must be one of {sorted(keys)}")
        ranked = sorted(self.ops.items(), key=lambda kv: keys[sort](kv[1]),
                        reverse=True)
        return [{"op": op, **rec.as_dict(), "total_s": rec.total_s}
                for op, rec in ranked[:top_k]]

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "bytes_allocated": self.bytes_allocated,
            "backward_passes": self.backward_passes,
            "replays": self.replays,
            "replayed_ops": self.replayed_ops,
            "ops": {op: rec.as_dict() for op, rec in sorted(self.ops.items())},
        }


def active_profiler() -> TapeProfiler | None:
    """The profiler currently installed on the tape, if any."""
    return _tensor_mod._PROFILER


@contextlib.contextmanager
def tape_profile():
    """Install a fresh :class:`TapeProfiler` on the tape for the block.

    Profiling is process-global (the tape itself is shared), so nesting is
    rejected rather than silently double-counted.
    """
    if _tensor_mod._PROFILER is not None:
        raise RuntimeError("tape profiling is already active")
    profiler = TapeProfiler()
    profiler._last_ts = time.perf_counter()
    _tensor_mod._PROFILER = profiler
    try:
        yield profiler
    finally:
        _tensor_mod._PROFILER = None
