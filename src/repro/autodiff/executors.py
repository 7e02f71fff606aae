"""Executors for the op-graph IR: eager (default) and trace-and-replay.

The eager executor is ``tensor.apply`` itself -- every op evaluates as it
is declared, and every gradient comes from its tape.  This module adds the
second executor, for ``no_grad`` calls only: a :class:`CompiledGraph`
records the linear op sequence of one eager evaluation of an ODE
right-hand side, and a generated kernel (:mod:`repro.autodiff.codegen`)
re-executes it on fresh inputs without re-entering the Tensor front-end.
A call made with gradients enabled always runs the function eagerly.

Lifecycle of a compiled function's ``no_grad`` calls (per y-shape key,
all keys dropped when the global graph epoch bumps):

1. **trace** -- the first call runs eagerly with a
   :class:`~repro.autodiff.ir.TraceRecorder` installed; recording rides on
   the execution, so the traced call does no duplicate work.  Ops that
   cannot be replayed (``custom`` nodes) fail the trace and pin the key to
   eager execution.
2. **validate** -- the second call runs eagerly *and* runs the recorded
   ops on fresh arrays, then bit-compares the outputs.  A right-hand side
   that does raw-numpy work the recorder cannot see (data-dependent masks
   built outside the Tensor API, randomness, time baked in without
   :func:`~repro.autodiff.tensor.time_tensor`) produces different values
   and permanently falls back to eager for that key.  A trace that passes
   is then lowered to one flat generated function whose output is
   bit-compared against the replayed one; a trace that cannot be lowered,
   or whose kernel differs, is pinned to eager the same way.
3. **codegen** -- subsequent calls run the generated kernel, with no
   per-op dispatch and no Tensor front-end.

External tensors captured by the trace (parameters, per-batch context
constants) that are not static are re-read through their live ``.data``
on every call, so in-place parameter updates are picked up without
retracing.  Anything that swaps the captured objects themselves (e.g.
``DHSDynamics.bind`` installing new contexts) must call
:func:`~repro.autodiff.ir.bump_graph_epoch`.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict

import numpy as np

from .ir import (
    OPS,
    TraceRecorder,
    active_recorder,
    graph_epoch,
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
    """Select the executor for subsequent ``no_grad`` ODE solves."""
    if mode not in _VALID_MODES:
        raise ValueError(f"executor must be one of {_VALID_MODES}, "
                         f"got {mode!r}")
    global _MODE
    _MODE = mode


def get_checkpoint_grads() -> str:
    """Always ``"off"``: every gradient comes from the eager tape.

    This read-only report exists for tools that record the execution
    modes beside a measurement, such as the environment line of
    ``perfbench/run.py``.
    """
    return "off"


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
# axis shuffling).  Used to decide when a kernel's output must be copied
# before escaping to the caller: the caller may hold it across later
# calls that overwrite the underlying persistent buffer.
_VIEW_OPCODES = frozenset({"reshape", "transpose", "permute", "getitem"})


class CompiledGraph:
    """One recorded trace, executable without the Tensor front-end."""

    def __init__(self, recorder: TraceRecorder, out_buf: int):
        self.ops = recorder.ops
        self.inputs = recorder.inputs          # (kind, shape)
        self.externals = list(recorder.externals)
        self.ext_static = list(recorder.ext_static)
        self.out_buf = out_buf
        self._t_slots = [(j, shape) for j, (kind, shape) in
                         enumerate(self.inputs) if kind == "t"]
        self._y_slots = [j for j, (kind, _) in enumerate(self.inputs)
                         if kind == "y"]
        # A view's output may alias storage that outlives the call: an
        # input slot, an external's live ``.data``, or the persistent
        # buffer the generated kernel keeps for every ``emit_out`` op but
        # the output's.  An output living in (or viewing) such storage is
        # copied out: the caller may hold it across calls and must never
        # share storage with the kernel's buffers, and mutating it must
        # not corrupt later calls.
        kernel_buf = [False] * len(self.ops)
        aliases = [False] * len(self.ops)
        for i, op in enumerate(self.ops):
            if op.opcode in _VIEW_OPCODES:
                kind, j = op.refs[0]
                aliases[i] = kind != "buf" or kernel_buf[j] or aliases[j]
            kernel_buf[i] = (i != out_buf
                             and OPS[op.opcode].emit_out is not None)
        self._copy_output = aliases[out_buf]
        #: Generated kernel, installed by validation.
        self.kernel = None

    # -- execution ------------------------------------------------------
    def run_values(self, inarrs) -> list:
        """Fresh-array execution of every recorded op, in trace order: the
        reference a generated kernel is validated against.  The value
        table is indexed by op id."""
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
            lines.append(f"%{i} = {op.opcode}({args}) shape={op.shape}")
        lines.append(f"return %{self.out_buf}")
        return lines


class CompiledFunction:
    """Trace cache wrapped around one ODE right-hand side ``func(t, y)``.

    Only ``no_grad`` calls use the cache; a call with gradients enabled
    runs ``func`` eagerly.  Entries live in an LRU-ordered mapping bounded
    by ``_CACHE_CAP``: sweeps over many shape keys evict the
    least-recently-used graph instead of growing without limit.
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
        if _MODE != "replay" or is_grad_enabled() \
                or not isinstance(y, Tensor) \
                or active_recorder() is not None:
            return self.func(t, y)
        epoch = graph_epoch()
        if epoch != self._epoch:
            self.entries.clear()
            self._epoch = epoch
        key = y.data.shape
        entry = self.entries.get(key)
        if entry is None:
            return self._trace(key, t, y)
        self.entries.move_to_end(key)
        state, graph = entry
        if state == "codegen":
            _inc("ir.replay_hits")
            return graph.replay_codegen(t, y)
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
            self._store(key, ("validate", CompiledGraph(recorder,
                                                        out_ref[1])))
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
        else:
            self._store(key, self._lower(graph, t, y.data, replayed))
        return out

    def _lower(self, graph, t, y_data, replayed) -> tuple:
        """Entry for a validated graph: its generated kernel if that
        reproduces the replayed output bit for bit, else eager."""
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
    traces across solver steps and batches (until a graph-epoch bump
    invalidates them).
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
