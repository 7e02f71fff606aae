"""Optimizing passes over recorded RHS traces.

A :class:`~repro.autodiff.executors.CompiledGraph` used to replay every
recorded op on every call.  For the DHS dynamics that is wasteful: Eq. 12's
right-hand side and the Eq. 32/34 recovery are dominated by subgraphs that
depend only on per-batch externals (``Z``, its pseudo-inverse, the null
projector, the sliced ``h``/``h2`` vectors), all constant across the
hundreds of NFEs of a single dopri5 solve.  This module plans, once at
trace-compile time, which ops can be skipped (:func:`plan_trace`):

1. **Dead-code elimination** -- drop ops whose results never reach the
   traced output.  Gradients only flow through ancestors of the output, so
   dead ops cannot feed a grad-required leaf either.
2. **Common-subexpression elimination** -- value-number each op on
   ``(opcode, canonical attrs, input refs)`` and merge duplicates (the
   multi-head DHS re-records identical ``Z``-side products per head).
   Static externals are numbered by the identity of their data so two
   distinct handles onto one constant still merge.
3. **Constant folding + loop-invariant hoisting** -- partition the
   surviving ops into an *invariant prefix* (ops reachable only from
   static externals, never from the ``y`` input or a ``t`` slot) and the
   per-step body.  The executor runs the prefix once per graph epoch and
   memoizes its buffers; every subsequent replay -- ``no_grad`` and
   grad-mode alike -- starts from the cached frontier.
4. The codegen backend then lowers the shrunk body of a ``no_grad``
   trace to one generated kernel (see :mod:`repro.autodiff.codegen`).

Bit-identity contract
---------------------
Passes rewrite the *forward* execution schedule only.  The backward walk
of a grad replay still traverses the **original** trace with the original
refs, reading a value table indexed by original op ids (prefix slots
filled from the memoized buffers, CSE duplicates filled by aliasing their
representative).  Since every retained computation runs the same numpy
kernels on the same arrays, forward results and gradients stay bit-
identical to eager execution -- the property the PR 4 validation step and
the hypothesis suites assert.

The pipeline is controlled by ``REPRO_IR_PASSES`` (``default`` | ``none``)
or :func:`set_ir_passes` (mirrored by the ``--ir-passes`` CLI flag).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .ir import bump_graph_epoch

__all__ = [
    "PassStats",
    "TracePlan",
    "plan_trace",
    "canonical_attrs",
    "get_ir_passes",
    "set_ir_passes",
    "recent_plans",
]

_VALID_MODES = ("default", "none")

_MODE = os.environ.get("REPRO_IR_PASSES", "default")
if _MODE not in _VALID_MODES:
    raise ValueError(
        f"REPRO_IR_PASSES must be one of {_VALID_MODES}, got {_MODE!r}")


def get_ir_passes() -> str:
    """Current pass-pipeline mode: ``"default"`` or ``"none"``."""
    return _MODE


def set_ir_passes(mode: str) -> None:
    """Select the pass pipeline applied when traces are compiled.

    ``"default"`` runs DCE, CSE and invariant hoisting; ``"none"`` replays
    the raw trace exactly as PR 4 did (the escape hatch).  Switching modes
    bumps the graph epoch so already-compiled traces are rebuilt under the
    new mode.
    """
    global _MODE
    if mode not in _VALID_MODES:
        raise ValueError(
            f"ir passes mode must be one of {_VALID_MODES}, got {mode!r}")
    if mode != _MODE:
        _MODE = mode
        bump_graph_epoch()


# ---------------------------------------------------------------------------
# attr canonicalization (CSE keys)
# ---------------------------------------------------------------------------

class _Uncanonical(Exception):
    """Raised for attr values with no stable hashable form."""


#: Sentinel for ops whose attrs cannot be canonicalized; they are skipped
#: by CSE (never merged) but still eligible for DCE and hoisting.
UNHASHABLE = object()


def _canon(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, slice):
        return ("slice", _canon(value.start), _canon(value.stop),
                _canon(value.step))
    if isinstance(value, (tuple, list)):
        return ("seq",) + tuple(_canon(v) for v in value)
    if isinstance(value, np.ndarray):
        return ("nd", value.shape, value.dtype.str, value.tobytes())
    raise _Uncanonical(type(value).__name__)


def canonical_attrs(attrs: dict | None):
    """Hashable, order-insensitive form of an op's attrs dict.

    ndarrays become byte strings, slices/lists become tagged tuples.
    Returns :data:`UNHASHABLE` when some value cannot be canonicalized
    (e.g. an arbitrary object in a ``getitem`` index): such ops simply
    never participate in CSE.
    """
    if attrs is None:
        return None
    try:
        return tuple(sorted((k, _canon(v)) for k, v in attrs.items()))
    except (_Uncanonical, TypeError):
        return UNHASHABLE


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

@dataclass
class PassStats:
    """What the pipeline did to one trace (fed into ``ir.pass_*`` counters)."""

    ops_in: int = 0
    dce_removed: int = 0
    cse_merged: int = 0
    hoisted: int = 0
    body_ops: int = 0
    enabled: bool = False

    def as_dict(self) -> dict:
        return {
            "ops_in": self.ops_in,
            "dce_removed": self.dce_removed,
            "cse_merged": self.cse_merged,
            "hoisted": self.hoisted,
            "body_ops": self.body_ops,
            "enabled": self.enabled,
        }


@dataclass
class TracePlan:
    """Optimized execution schedule for one recorded trace.

    Indices everywhere are *original* trace-op ids, so a value table of
    length ``len(ops)`` indexed by them serves both the optimized forward
    and the unmodified backward walk.

    Attributes
    ----------
    refs:
        ``refs[i]`` is op ``i``'s input refs with every ``("buf", k)``
        remapped to its CSE representative; ``None`` for ops that are dead
        or merged away (they never execute).
    prefix:
        Invariant op ids, in trace order -- executed once per graph epoch.
    body:
        Per-call op ids, in trace order.
    alias_fills:
        ``(dup, rep)`` pairs: after running the body, ``vals[dup] =
        vals[rep]`` so the backward walk (which uses original refs) finds
        values for merged ops.
    out_slot:
        The output buffer after CSE remapping.
    """

    refs: list
    prefix: list[int]
    body: list[int]
    alias_fills: list[tuple[int, int]]
    out_slot: int
    stats: PassStats = field(default_factory=PassStats)


def _trivial_plan(ops, out_buf: int) -> TracePlan:
    """Identity schedule: every op in the body, refs untouched."""
    n = len(ops)
    return TracePlan([op.refs for op in ops], [], list(range(n)), [],
                     out_buf, PassStats(ops_in=n, body_ops=n, enabled=False))


def plan_trace(ops, externals, ext_static, out_buf: int,
               mode: str | None = None) -> TracePlan:
    """Run the pass pipeline over one recorded trace.

    Parameters
    ----------
    ops:
        The recorder's ``TraceOp`` list.
    externals:
        Captured external tensors (live handles).
    ext_static:
        Per-external invariance flags from the recorder.
    out_buf:
        Trace-op id of the traced function's return value.
    mode:
        Pipeline mode; defaults to the process-wide setting.
    """
    if mode is None:
        mode = _MODE
    n = len(ops)
    if mode == "none" or n == 0:
        return _trivial_plan(ops, out_buf)

    # -- pass 1: DCE. Live = transitive ancestors of the output; gradients
    # only flow through those same ancestors, so nothing a grad-required
    # leaf needs can be dropped.
    keep = [False] * n
    stack = [out_buf]
    while stack:
        i = stack.pop()
        if keep[i]:
            continue
        keep[i] = True
        for kind, j in ops[i].refs:
            if kind == "buf" and not keep[j]:
                stack.append(j)
    dce_removed = n - sum(keep)

    # -- pass 2: CSE by value numbering. Two ops merge when opcode, attrs
    # and (representative-remapped) input refs agree. Static externals are
    # numbered by the id of their data array: per-head traces capture the
    # same constant through distinct Tensor handles.
    rep = list(range(n))
    refs: list = [None] * n
    table: dict = {}
    cse_merged = 0
    for i in range(n):
        if not keep[i]:
            continue
        op = ops[i]
        rrefs = tuple(("buf", rep[j]) if kind == "buf" else (kind, j)
                      for kind, j in op.refs)
        refs[i] = rrefs
        attrs_key = canonical_attrs(op.attrs)
        if attrs_key is UNHASHABLE:
            continue
        vnum = tuple(
            ("extd", id(externals[j].data))
            if kind == "ext" and ext_static[j] else (kind, j)
            for kind, j in rrefs)
        first = table.setdefault((op.opcode, attrs_key, vnum), i)
        if first != i:
            rep[i] = first
            refs[i] = None
            cse_merged += 1

    # -- pass 3: constant folding + loop-invariant hoisting. An op is
    # invariant iff every input is a static external or an invariant
    # buffer -- transitively never the ``y`` input or a ``t`` slot.
    # Differentiable prefix ops are fine even in grad mode: the backward
    # walk re-reads their memoized values, which are bit-identical to a
    # per-call recomputation (deterministic kernels on unchanged arrays).
    invariant = [False] * n
    prefix: list[int] = []
    body: list[int] = []
    alias_fills: list[tuple[int, int]] = []
    for i in range(n):
        if not keep[i]:
            continue
        if rep[i] != i:
            alias_fills.append((i, rep[i]))
            continue
        invariant[i] = all(
            (kind == "ext" and ext_static[j])
            or (kind == "buf" and invariant[j])
            for kind, j in refs[i])
        (prefix if invariant[i] else body).append(i)

    stats = PassStats(ops_in=n, dce_removed=dce_removed,
                      cse_merged=cse_merged, hoisted=len(prefix),
                      body_ops=len(body), enabled=True)
    return TracePlan(refs, prefix, body, alias_fills, rep[out_buf], stats)


# ---------------------------------------------------------------------------
# plan log (surfaced by ``python -m repro.cli profile``)
# ---------------------------------------------------------------------------

_PLAN_LOG: deque = deque(maxlen=32)


def log_plan(tag: str, stats: PassStats) -> None:
    """Record one compiled trace's pass stats for the profile report."""
    _PLAN_LOG.append({"graph": tag, **stats.as_dict()})


def recent_plans() -> list[dict]:
    """Pass stats of recently compiled traces, oldest first."""
    return list(_PLAN_LOG)
