"""Executors for the op-graph IR: eager (default) and trace-and-replay.

The eager executor is ``tensor.apply`` itself -- every op evaluates as it
is declared.  This module adds the second executor: a
:class:`CompiledGraph` that records the linear op sequence of one eager
evaluation of an ODE right-hand side and re-executes it on fresh inputs
without re-entering the Tensor front-end.

Lifecycle of a compiled function (per ``(y-shape, grad-flag,
y-requires-grad)`` key, all keys dropped when the global graph epoch
bumps):

1. **trace** -- the first call runs eagerly with a
   :class:`~repro.autodiff.ir.TraceRecorder` installed; recording rides on
   the execution, so the traced call does no duplicate work.  Ops that
   cannot be replayed (``custom`` nodes) fail the trace and pin the key to
   eager execution.
2. **validate** -- the second call runs eagerly *and* replays the trace,
   then bit-compares the outputs.  A right-hand side that does raw-numpy
   work the recorder cannot see (data-dependent masks built outside the
   Tensor API, randomness, time baked in without
   :func:`~repro.autodiff.tensor.time_tensor`) produces different values
   and permanently falls back to eager for that key.  A ``no_grad`` key
   that passes is then lowered to one flat generated function
   (:mod:`repro.autodiff.codegen`) whose output is bit-compared against
   the replayed one; a trace that cannot be lowered, or whose kernel
   differs, is pinned to eager the same way.
3. **codegen** (``no_grad`` keys) -- subsequent calls run the generated
   kernel, with no per-op dispatch and no Tensor front-end.
4. **ready** (gradient keys) -- subsequent calls re-execute the recorded
   ops on fresh arrays and plant a single "replay" fat node in the outer
   graph whose backward walks the trace in reverse with the same
   per-opcode rules the eager executor dispatches, so gradients stay
   bit-identical to eager.

``REPRO_CHECKPOINT_GRADS=on`` (:func:`set_checkpoint_grads`) switches the
grad-mode replays of step 4 to **checkpointed frames**: the fat node keeps
only the step inputs (t, y, non-static externals' data versions) and the
backward walk re-runs the recorded ops to rebuild intermediates.
Traces are cheap to re-execute, so this trades one extra forward per step
during backward for a tape that grows with step *inputs* instead of
step *intermediates*; gradients stay bit-identical.

External tensors captured by the trace (parameters, per-batch context
constants) are resolved to their live ``.data`` at replay time, so
in-place parameter updates are picked up without retracing.  Anything that
swaps the captured objects themselves (e.g. ``DHSDynamics.bind``
installing new contexts) must call
:func:`~repro.autodiff.ir.bump_graph_epoch`.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict

import numpy as np

from .ir import (
    OPS,
    OpNode,
    TraceRecorder,
    active_recorder,
    graph_epoch,
    next_node_id,
    set_recorder,
)
from .codegen import CodegenError, build_codegen
from .tensor import Tensor, is_grad_enabled
from . import tensor as _tensor

__all__ = [
    "get_executor",
    "set_executor",
    "maybe_compile",
    "CompiledFunction",
    "CompiledGraph",
    "get_checkpoint_grads",
    "set_checkpoint_grads",
    "tape_stats",
    "reset_tape_stats",
]

_VALID_MODES = ("eager", "replay")

_MODE = os.environ.get("REPRO_EXECUTOR", "eager")
if _MODE not in _VALID_MODES:
    raise ValueError(
        f"REPRO_EXECUTOR={_MODE!r} is not a valid executor; "
        f"choose one of {_VALID_MODES}")


def get_executor() -> str:
    """The process-wide executor mode ('eager' or 'replay')."""
    return _MODE


def set_executor(mode: str) -> None:
    """Select the executor for subsequent ODE solves."""
    if mode not in _VALID_MODES:
        raise ValueError(f"executor must be one of {_VALID_MODES}, "
                         f"got {mode!r}")
    global _MODE
    _MODE = mode


_VALID_CKPT = ("on", "off")

_CKPT = os.environ.get("REPRO_CHECKPOINT_GRADS", "off")
if _CKPT not in _VALID_CKPT:
    raise ValueError(
        f"REPRO_CHECKPOINT_GRADS={_CKPT!r} is not valid; "
        f"choose one of {_VALID_CKPT}")


def get_checkpoint_grads() -> str:
    """Whether grad-mode replays checkpoint their frames ('on' or 'off')."""
    return _CKPT


def set_checkpoint_grads(mode: str) -> None:
    """Select trace-checkpointed backprop for grad-mode replays.

    When 'on', a gradient replay's fat node stores only the step inputs
    (``t``, ``y`` and the non-static externals' data versions) instead of
    the full forward value table; the backward walk re-runs the recorded
    ops to rebuild intermediates.  Peak tape memory drops from
    O(steps x trace length) to O(steps) in step inputs, at the price of
    one extra forward execution per step during backward.  Gradients stay
    bit-identical: the recompute runs the same recorded ops over the same
    inputs (rebinding a non-static external's ``.data`` between
    forward and backward raises ``RuntimeError``).
    """
    if mode not in _VALID_CKPT:
        raise ValueError(f"checkpoint-grads mode must be one of "
                         f"{_VALID_CKPT}, got {mode!r}")
    global _CKPT
    _CKPT = mode


# -- tape accounting ---------------------------------------------------------
# Live/peak bytes retained by grad-replay frames.  Frames account their
# retained storage on creation and release it when their backward consumes
# them; frames that are never backwarded (e.g. a discarded forward) stay
# counted until reset_tape_stats().  Mirrored to the ir.tape_live_bytes /
# ir.tape_peak_bytes gauges when telemetry is enabled.

_TAPE = {"live": 0, "peak": 0}


def tape_stats() -> dict:
    """Snapshot of grad-replay frame storage: live and peak bytes."""
    return {"live_bytes": _TAPE["live"], "peak_bytes": _TAPE["peak"]}


def reset_tape_stats() -> None:
    """Zero the live/peak frame-byte accounting (start of a measurement)."""
    _TAPE["live"] = 0
    _TAPE["peak"] = 0


def _tape_add(nbytes: int) -> None:
    _TAPE["live"] += nbytes
    if _TAPE["live"] > _TAPE["peak"]:
        _TAPE["peak"] = _TAPE["live"]
    reg = _registry()
    if reg.enabled:
        reg.set_gauge("ir.tape_live_bytes", _TAPE["live"])
        reg.set_gauge("ir.tape_peak_bytes", _TAPE["peak"])


def _tape_release(nbytes: int) -> None:
    _TAPE["live"] = max(0, _TAPE["live"] - nbytes)
    reg = _registry()
    if reg.enabled:
        reg.set_gauge("ir.tape_live_bytes", _TAPE["live"])


class _CkptFrame:
    """Checkpointed grad-replay frame: step inputs only, no value table.

    Stores the step time and the identity/shape of every non-static
    external's data array at forward time; the backward walk rebuilds the
    forward value table by re-running the trace on the step's ``y``
    (read from the fat node's parent data) and verifies the externals were
    not rebound in between.
    """

    __slots__ = ("t", "ext_versions")

    def __init__(self, t: float, ext_versions: tuple):
        self.t = t
        self.ext_versions = ext_versions


#: Per-function trace-cache bound.  Sweeps over many shapes (variable-length
#: batches, bucketed sequence lengths) mint one CompiledGraph per key; the
#: LRU cap keeps that from growing without limit.
_CACHE_CAP = 64


_REGISTRY = None


def _registry():
    global _REGISTRY
    if _REGISTRY is None:
        from ..telemetry import get_registry
        _REGISTRY = get_registry()
    return _REGISTRY


def _inc(name: str, amount: float = 1.0) -> None:
    _registry().inc(name, amount)


# Ops whose output may be a view of an input array (numpy basic indexing /
# axis shuffling).  Used to decide when a replayed output must be copied
# before escaping to the caller: the caller may hold it across later
# replays that overwrite the underlying persistent buffer.
_VIEW_OPCODES = frozenset({"reshape", "transpose", "permute", "getitem"})


class CompiledGraph:
    """One recorded trace, executable without the Tensor front-end."""

    def __init__(self, recorder: TraceRecorder, out_buf: int,
                 grad_mode: bool):
        self.ops = recorder.ops
        self.inputs = recorder.inputs          # (kind, shape, requires_grad)
        self.externals = list(recorder.externals)
        self.ext_static = list(recorder.ext_static)
        self.out_buf = out_buf
        self.grad_mode = grad_mode

        n = len(self.ops)
        ext_diff = [bool(e.requires_grad) for e in self.externals]
        in_diff = [kind == "y" and rg for kind, _, rg in self.inputs]
        # Which recorded ops carry gradient, mirroring the eager rule:
        # differentiable op with at least one gradient-carrying parent.
        diff = [False] * n
        needs = [None] * n
        for i, op in enumerate(self.ops):
            flags = []
            for kind, j in op.refs:
                if kind == "buf":
                    flags.append(diff[j])
                elif kind == "ext":
                    flags.append(ext_diff[j])
                else:
                    flags.append(in_diff[j])
            needs[i] = tuple(flags)
            diff[i] = OPS[op.opcode].differentiable and any(flags)
        self.diff = diff
        self.needs = needs
        self.ext_diff = ext_diff
        self.diff_ext_idx = [j for j, d in enumerate(ext_diff) if d]
        self.diff_externals = tuple(self.externals[j]
                                    for j in self.diff_ext_idx)

        self._t_slots = [(j, shape) for j, (kind, shape, _) in
                         enumerate(self.inputs) if kind == "t"]
        self._y_slots = [j for j, (kind, _, _) in enumerate(self.inputs)
                         if kind == "y"]

        self._plan_outputs()
        #: Generated ``no_grad`` kernel, installed by validation.
        self.kernel = None

    # -- compile-time planning -----------------------------------------
    def _plan_outputs(self) -> None:
        """Output-copy rules and grad-frame sizes."""
        ops = self.ops
        n = len(ops)
        # A view's output may alias storage that outlives the call: an
        # input slot, an external's live ``.data``, or -- for the
        # generated kernel -- the persistent buffer it keeps for every
        # ``emit_out`` op but the output's.
        kernel_buf = [False] * n
        aliases = [False] * n        # the generated no_grad kernel
        galiases = [False] * n       # grad replays: fresh op arrays
        for i, op in enumerate(ops):
            if op.opcode in _VIEW_OPCODES:
                kind, j = op.refs[0]
                persistent = kind != "buf"
                aliases[i] = persistent or kernel_buf[j] or aliases[j]
                galiases[i] = persistent or galiases[j]
            kernel_buf[i] = (i != self.out_buf
                             and OPS[op.opcode].emit_out is not None)
        # An output living in (or viewing) such storage must be copied
        # out: the caller may hold it across replays and must never share
        # storage with the kernel's buffers, and mutating it must not
        # corrupt later replays.
        self._copy_output = aliases[self.out_buf]
        self._copy_grad_output = galiases[self.out_buf]
        # Frame storage accounting for grad replays: a full frame retains
        # the step input y, every non-view intermediate and the fresh
        # time buffers; a checkpointed frame retains only the step input
        # (views share their base's storage, so they are not counted).
        y_elems = (int(np.prod(self.inputs[self._y_slots[0]][1]))
                   if self._y_slots else 0)
        op_elems = sum(int(np.prod(op.shape)) for op in ops
                       if op.opcode not in _VIEW_OPCODES)
        t_elems = sum(int(np.prod(shape)) for _, shape in self._t_slots)
        self._full_frame_bytes = 8 * (y_elems + op_elems + t_elems)
        self._ckpt_frame_bytes = 8 * y_elems
        self._nonstatic_ext = tuple(
            j for j, static in enumerate(self.ext_static) if not static)

    # -- execution ------------------------------------------------------
    def _resolve(self, refs, vals, inarrs):
        externals = self.externals
        return tuple(
            vals[j] if kind == "buf"
            else inarrs[j] if kind == "in"
            else externals[j].data
            for kind, j in refs)

    def run_values(self, inarrs) -> list:
        """Fresh-array execution of every recorded op, in trace order
        (validation + grad replays); the value table is indexed by op id,
        as the backward walk reads it."""
        externals = self.externals
        vals: list = [None] * len(self.ops)
        asarray = np.asarray
        for i, op in enumerate(self.ops):
            ins = tuple(
                vals[j] if kind == "buf"
                else inarrs[j] if kind == "in"
                else externals[j].data
                for kind, j in op.refs)
            vals[i] = asarray(OPS[op.opcode].forward(ins, op.attrs),
                              dtype=np.float64)
        return vals

    def fill_inputs(self, t: float, y_data: np.ndarray) -> list:
        """Fresh input-slot arrays for one call: ``y`` and time fills."""
        inarrs: list = [None] * len(self.inputs)
        for j in self._y_slots:
            inarrs[j] = y_data
        for j, shape in self._t_slots:
            inarrs[j] = np.full(shape, float(t))
        return inarrs

    def replay_codegen(self, t: float, y: Tensor) -> Tensor:
        data = self.kernel(float(t), y.data)
        reg = _registry()
        if reg.enabled:
            reg.inc("ir.codegen_calls")
        profiler = _tensor._PROFILER
        if profiler is not None:
            profiler._record_replay(len(self.ops))
        # fast-path Tensor construction: data is already a float64 ndarray
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._node = None
        out.name = ""
        out.static = False
        return out

    def replay_grad(self, t: float, y: Tensor) -> Tensor:
        inarrs = self.fill_inputs(t, y.data)
        vals = self.run_values(inarrs)
        data = vals[self.out_buf]
        if self._copy_grad_output:
            data = np.array(data)   # never hand out a view of live storage
        out = Tensor(data)
        parents = (y,) + self.diff_externals
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            if _CKPT == "on":
                frame = _CkptFrame(float(t), tuple(
                    (id(self.externals[j].data),
                     self.externals[j].data.shape)
                    for j in self._nonstatic_ext))
                _tape_add(self._ckpt_frame_bytes)
                _inc("ir.ckpt_frames")
            else:
                frame = (vals, inarrs)
                _tape_add(self._full_frame_bytes)
            out._node = OpNode(next_node_id(), "replay", parents,
                               {"graph": self, "frame": frame},
                               out.data)
        profiler = _tensor._PROFILER
        if profiler is not None:
            profiler._record_replay(len(self.ops))
        return out

    def backward(self, g: np.ndarray, frame, ins=()) -> tuple:
        """Backward rule of the fat "replay" node.

        Walks the trace in reverse with the same per-opcode rules the
        eager executor dispatches, in the same (creation-descending)
        order.  Returns, per fat-node parent ``(y, *diff_externals)``, the
        list of this call's contributions in that order (``None`` when
        there are none): :meth:`Tensor.backward` adds them to its running
        totals one at a time, so a tensor several ops of several calls
        read sums exactly as under eager.

        ``ins`` is the fat node's parent data (``ins[0]`` = the step input
        ``y``); a checkpointed frame uses it to re-run the recorded ops and
        rebuild the value table the reverse walk reads.  The recompute
        follows the exact path the forward took, so gradients stay
        bit-identical to the uncheckpointed replay — and therefore to
        eager.
        """
        if isinstance(frame, _CkptFrame):
            for j, (ident, shape) in zip(self._nonstatic_ext,
                                         frame.ext_versions):
                data = self.externals[j].data
                if id(data) != ident or data.shape != shape:
                    name = getattr(self.externals[j], "name", "") or f"#{j}"
                    raise RuntimeError(
                        f"checkpointed backward: external tensor {name} "
                        "was rebound between forward and backward, so the "
                        "recompute would not match the recorded forward; "
                        "rebind parameters only after backward, or "
                        "set_checkpoint_grads('off')")
            inarrs = self.fill_inputs(frame.t, ins[0])
            vals = self.run_values(inarrs)
            _inc("ir.ckpt_recomputes")
            _inc("ir.ckpt_recomputed_ops", len(self.ops))
            _tape_release(self._ckpt_frame_bytes)
        else:
            vals, inarrs = frame
            _tape_release(self._full_frame_bytes)
        resolve = self._resolve
        grads: dict[int, np.ndarray] = {self.out_buf: g}
        ext_grads: dict[int, list] = {}
        y_grads: list = []
        for i in range(len(self.ops) - 1, -1, -1):
            if not self.diff[i]:
                continue
            node_grad = grads.pop(i, None)
            if node_grad is None:
                continue
            op = self.ops[i]
            ins = resolve(op.refs, vals, inarrs)
            parent_grads = OPS[op.opcode].backward(
                node_grad, ins, vals[i], op.attrs, self.needs[i])
            for (kind, j), pgrad in zip(op.refs, parent_grads):
                if pgrad is None:
                    continue
                if kind == "buf":
                    if self.diff[j]:
                        grads[j] = grads[j] + pgrad if j in grads else pgrad
                elif kind == "ext":
                    if self.ext_diff[j]:
                        ext_grads.setdefault(j, []).append(pgrad)
                elif self.inputs[j][0] == "y":
                    y_grads.append(pgrad)
        return ((y_grads or None),) + tuple(ext_grads.get(j)
                                            for j in self.diff_ext_idx)

    # -- introspection ---------------------------------------------------
    def dump(self) -> list[str]:
        """Human-readable listing of the recorded trace."""
        def show(ref):
            kind, j = ref
            if kind == "buf":
                return f"%{j}"
            if kind == "in":
                return f"{self.inputs[j][0]}{j}"
            name = getattr(self.externals[j], "name", "")
            return f"ext{j}" + (f":{name}" if name else "")

        lines = []
        for i, op in enumerate(self.ops):
            args = ", ".join(show(r) for r in op.refs)
            tag = " [diff]" if self.diff[i] else ""
            lines.append(f"%{i} = {op.opcode}({args}) shape={op.shape}{tag}")
        lines.append(f"return %{self.out_buf}")
        return lines


class CompiledFunction:
    """Trace cache wrapped around one ODE right-hand side ``func(t, y)``.

    Entries live in an LRU-ordered mapping bounded by ``_CACHE_CAP``:
    sweeps over many shape keys evict the least-recently-used graph
    instead of growing without limit.
    """

    __slots__ = ("func", "entries", "_epoch")

    def __init__(self, func):
        self.func = func
        self.entries: OrderedDict = OrderedDict()
        self._epoch = graph_epoch()

    def _tag(self) -> str:
        f = self.func
        return getattr(f, "__qualname__", None) or type(f).__name__

    def _store(self, key, entry) -> None:
        self.entries[key] = entry
        self.entries.move_to_end(key)
        while len(self.entries) > _CACHE_CAP:
            self.entries.popitem(last=False)
            _inc("ir.cache_evictions")

    def __call__(self, t, y):
        if _MODE != "replay" or not isinstance(y, Tensor) \
                or active_recorder() is not None:
            return self.func(t, y)
        epoch = graph_epoch()
        if epoch != self._epoch:
            self.entries.clear()
            self._epoch = epoch
        key = (y.data.shape, is_grad_enabled(), y.requires_grad)
        entry = self.entries.get(key)
        if entry is None:
            return self._trace(key, t, y)
        self.entries.move_to_end(key)
        state, graph = entry
        if state == "codegen":
            _inc("ir.replay_hits")
            return graph.replay_codegen(t, y)
        if state == "ready":
            _inc("ir.replay_hits")
            return graph.replay_grad(t, y)
        if state == "validate":
            return self._validate(key, graph, t, y)
        return self.func(t, y)          # pinned to eager for this key

    def _trace(self, key, t, y):
        _inc("ir.replay_misses")
        _inc("ir.trace_builds")
        recorder = TraceRecorder()
        recorder.mark_input(y, "y")
        set_recorder(recorder)
        try:
            out = self.func(t, y)
        finally:
            set_recorder(None)
        out_ref = (recorder.output_ref(out)
                   if isinstance(out, Tensor) else None)
        if recorder.failed is None and (out_ref is None
                                        or out_ref[0] != "buf"):
            recorder.failed = "output is not the product of a recorded op"
        if recorder.failed is not None:
            self._store(key, ("eager", recorder.failed))
        else:
            graph = CompiledGraph(recorder, out_ref[1],
                                  grad_mode=is_grad_enabled())
            self._store(key, ("validate", graph))
        return out

    def _validate(self, key, graph, t, y):
        _inc("ir.replay_misses")
        out = self.func(t, y)
        replayed = graph.run_values(
            graph.fill_inputs(t, y.data))[graph.out_buf]
        if not (isinstance(out, Tensor)
                and np.array_equal(out.data, replayed)):
            # The function does work the recorder cannot see (raw-numpy
            # masks, randomness, time baked in as a constant); stay eager.
            self._store(key, ("eager", "validation mismatch"))
            _inc("ir.validation_failures")
        elif graph.grad_mode:
            self._store(key, ("ready", graph))
        else:
            self._store(key, self._lower(graph, t, y.data, replayed))
        return out

    def _lower(self, graph, t, y_data, replayed) -> tuple:
        """Entry for a validated ``no_grad`` graph: its generated kernel if
        that reproduces the replayed output bit for bit, else eager."""
        try:
            kernel, _ = build_codegen(graph, self._tag())
        except CodegenError:
            _inc("ir.codegen_fallbacks")
            return ("eager", "codegen lowering failed")
        _inc("ir.codegen_builds")
        if not np.array_equal(kernel(float(t), y_data), replayed):
            _inc("ir.codegen_fallbacks")
            return ("eager", "codegen kernel mismatch")
        graph.kernel = kernel
        return ("codegen", graph)


_COMPILED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def maybe_compile(func):
    """Wrap ``func(t, y)`` with the trace-and-replay cache when the replay
    executor is selected; under the eager executor this is the identity.

    Wrappers are cached per function object, so a model's RHS keeps its
    traces across solver steps and training batches (until a graph-epoch
    bump invalidates them).
    """
    if isinstance(func, CompiledFunction):
        return func
    if _MODE != "replay":
        return func
    try:
        wrapper = _COMPILED.get(func)
        if wrapper is None:
            wrapper = CompiledFunction(func)
            _COMPILED[func] = wrapper
    except TypeError:
        return CompiledFunction(func)
    return wrapper
