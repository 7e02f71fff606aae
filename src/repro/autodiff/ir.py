"""Typed op-graph IR for the autodiff tape.

Every primitive the :class:`~repro.autodiff.Tensor` front-end offers is
described once here as an :class:`OpSpec` -- a forward rule, a backward
rule, and replay metadata -- registered under a stable opcode in the
:data:`OPS` dispatch table.  Executing a primitive appends an
:class:`OpNode` (opcode, parents, attrs, output buffer) to the graph; the
node *is* the tape entry, and :class:`~repro.autodiff.Tensor` is reduced
to a handle onto it.

Two executors run this IR:

* the **eager** executor (``tensor.apply``) evaluates each op as it is
  declared and walks ``OpNode`` records backwards for gradients -- the
  same semantics the closure-based tape had, bit for bit;
* the **replay** executor (:mod:`repro.autodiff.executors`) records the
  linear sequence of ops produced by one eager evaluation of an ODE
  right-hand side via :class:`TraceRecorder` and re-executes it on fresh
  inputs without re-entering the Python front-end.

Backward rules receive ``(grad, inputs, out, attrs, needs)`` where
``inputs``/``out`` are the raw ndarrays of the op's parents and output and
``needs[i]`` says whether parent ``i`` wants a gradient; they return one
gradient (or ``None``) per parent.  Rules must derive everything from
those arguments -- never from captured state -- so the same rule serves
both executors.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "OpSpec",
    "OpNode",
    "OPS",
    "register_op",
    "TraceRecorder",
    "TraceOp",
    "next_node_id",
    "active_recorder",
    "set_recorder",
    "graph_epoch",
    "bump_graph_epoch",
    "_unbroadcast",
]

# ---------------------------------------------------------------------------
# tape identity
# ---------------------------------------------------------------------------

#: Monotonic node ids.  Creation order is a topological order (parents are
#: always created before children), which is what the eager backward pass
#: sorts by; a single process-wide counter keeps that invariant across
#: threads (``itertools.count.__next__`` is atomic in CPython).
_NODE_IDS = itertools.count()


def next_node_id() -> int:
    return next(_NODE_IDS)


#: Global graph epoch.  Model code bumps it whenever captured constants
#: change behind the IR's back (e.g. ``DHSDynamics.bind`` installing new
#: per-batch contexts); the replay cache keys on it, so every bump
#: invalidates all recorded traces.
_GRAPH_EPOCH = [0]


def graph_epoch() -> int:
    """Current graph epoch (see :func:`bump_graph_epoch`)."""
    return _GRAPH_EPOCH[0]


def bump_graph_epoch() -> int:
    """Invalidate all recorded replay traces and return the new epoch.

    Call this whenever constants a trace may have captured are swapped
    out-of-band -- e.g. ``DHSDynamics.bind`` installing a new batch's
    attention contexts.
    """
    _GRAPH_EPOCH[0] += 1
    return _GRAPH_EPOCH[0]


class _TraceState(threading.local):
    recorder = None


_TRACE = _TraceState()


def active_recorder() -> "TraceRecorder | None":
    """The trace recorder installed on this thread, if any."""
    return _TRACE.recorder


def set_recorder(recorder: "TraceRecorder | None") -> None:
    _TRACE.recorder = recorder


# ---------------------------------------------------------------------------
# op registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpSpec:
    """One primitive: forward + backward rules and replay metadata.

    ``differentiable=False`` ops (comparisons, constant-max) never create
    tape nodes but are still recorded in traces so replay can recompute
    them from live inputs.

    ``emit`` / ``emit_out`` (optional) are the codegen render rules: they
    return Python source replicating ``forward`` exactly, as an
    expression or as a statement writing into a preallocated buffer, so a
    generated kernel stays bit-identical to the replayed trace (see
    :mod:`repro.autodiff.codegen`).  Ops without render rules fall back to
    a closure call on ``forward`` in the generated source.
    """

    opcode: str
    forward: Callable[[tuple, dict | None], np.ndarray] | None
    backward: Callable[..., Sequence[np.ndarray | None]] | None
    differentiable: bool = True
    emit: Callable[..., str] | None = None
    emit_out: Callable[..., str] | None = None


OPS: dict[str, OpSpec] = {}


def register_op(opcode: str, forward, backward, *,
                differentiable: bool = True) -> OpSpec:
    if opcode in OPS:
        raise ValueError(f"opcode {opcode!r} already registered")
    spec = OpSpec(opcode, forward, backward, differentiable)
    OPS[opcode] = spec
    return spec


class OpNode:
    """One executed op on the tape: the unit the backward pass walks."""

    __slots__ = ("id", "opcode", "parents", "attrs", "out")

    def __init__(self, node_id: int, opcode: str, parents: tuple,
                 attrs: dict | None, out: np.ndarray):
        self.id = node_id
        self.opcode = opcode
        self.parents = parents          # tuple[Tensor, ...] (strong refs)
        self.attrs = attrs
        self.out = out                  # the op's output ndarray


# ---------------------------------------------------------------------------
# trace recording
# ---------------------------------------------------------------------------

#: Opcodes that cannot be replayed: their backward closes over per-call
#: state (adjoint custom nodes, nested replay nodes).  Hitting one during
#: tracing fails the trace and the function falls back to eager for good.
UNREPLAYABLE = frozenset({"custom", "replay"})


class TraceOp:
    """One recorded op: opcode + attrs + where its inputs come from.

    ``refs[i]`` is ``("buf", k)`` for the output of recorded op ``k``,
    ``("ext", j)`` for captured external tensor ``j`` (resolved to its live
    ``.data`` at replay time, so in-place parameter updates are picked up),
    or ``("in", j)`` for replay input slot ``j`` (the ODE state ``y`` or a
    ``time_tensor`` fill).
    """

    __slots__ = ("opcode", "attrs", "refs", "shape", "dtype_is_float")

    def __init__(self, opcode: str, attrs: dict | None,
                 refs: tuple, shape: tuple, dtype_is_float: bool):
        self.opcode = opcode
        self.attrs = attrs
        self.refs = refs
        self.shape = shape
        self.dtype_is_float = dtype_is_float


class TraceRecorder:
    """Records the linear op sequence of one eager evaluation.

    Installed via :func:`set_recorder`; ``tensor.apply`` notifies it of
    every op executed while active.  Recording rides on the eager
    execution -- the traced call does no duplicate work.
    """

    def __init__(self):
        self.ops: list[TraceOp] = []
        self.inputs: list[tuple[str, tuple, bool]] = []  # (kind, shape, requires_grad)
        self.externals: list = []                        # captured Tensors
        self.ext_static: list[bool] = []                 # per-external invariance
        self.failed: str | None = None
        self._index: dict[int, tuple] = {}               # id(tensor) -> ref
        self._ext_index: dict[int, int] = {}
        self._keepalive: list = []                       # pin ids while tracing
        self._transient: dict[int, object] = {}          # tensors born in-trace

    def note_transient(self, tensor) -> None:
        """Pin a tensor constructed while this trace was recording.

        Such tensors are trace-local constants (re-created from the same
        literals on every eager call, identical across replays); if one is
        captured as a non-grad external, it counts as static, so the
        generated kernel bakes its array in as a constant.  Keeping a
        strong reference also guards the id-keyed external index against
        reuse.
        """
        self._transient[id(tensor)] = tensor

    def mark_input(self, tensor, kind: str) -> None:
        """Declare ``tensor`` as replay input slot (kind 'y' or 't')."""
        slot = len(self.inputs)
        self.inputs.append((kind, tensor.data.shape, bool(tensor.requires_grad)))
        self._index[id(tensor)] = ("in", slot)
        self._keepalive.append(tensor)

    def record(self, opcode: str, parents: tuple, attrs: dict | None,
               out) -> None:
        if self.failed is not None:
            return
        if opcode in UNREPLAYABLE:
            self.failed = f"op {opcode!r} cannot be replayed"
            return
        refs = []
        for p in parents:
            ref = self._index.get(id(p))
            if ref is None:
                j = self._ext_index.get(id(p))
                if j is None:
                    j = len(self.externals)
                    self.externals.append(p)
                    # Static: explicitly promised (mark_static) or a
                    # constant literal born inside this very trace.
                    self.ext_static.append(
                        bool(p.static) or (not p.requires_grad
                                           and id(p) in self._transient))
                    self._ext_index[id(p)] = j
                ref = ("ext", j)
            refs.append(ref)
        k = len(self.ops)
        self.ops.append(TraceOp(opcode, attrs, tuple(refs), out.data.shape,
                                out.data.dtype == np.float64))
        self._index[id(out)] = ("buf", k)
        self._keepalive.append(out)

    def output_ref(self, tensor) -> tuple | None:
        """Ref of the traced function's return value (None if unknown)."""
        return self._index.get(id(tensor))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

# Binary rules compute a parent's gradient only when ``needs`` asks for it:
# a constant operand (readout weights, a loss mask, a solver coefficient)
# then costs neither its product nor its unbroadcast sum.

def _bw_add(g, ins, out, at, needs):
    return (_unbroadcast(g, ins[0].shape) if needs[0] else None,
            _unbroadcast(g, ins[1].shape) if needs[1] else None)


def _bw_sub(g, ins, out, at, needs):
    return (_unbroadcast(g, ins[0].shape) if needs[0] else None,
            _unbroadcast(-g, ins[1].shape) if needs[1] else None)


def _bw_mul(g, ins, out, at, needs):
    return (_unbroadcast(g * ins[1], ins[0].shape) if needs[0] else None,
            _unbroadcast(g * ins[0], ins[1].shape) if needs[1] else None)


def _bw_div(g, ins, out, at, needs):
    return (_unbroadcast(g / ins[1], ins[0].shape) if needs[0] else None,
            _unbroadcast(-g * ins[0] / (ins[1] ** 2), ins[1].shape)
            if needs[1] else None)


def _bw_neg(g, ins, out, at, needs):
    return (-g,)


def _bw_pow(g, ins, out, at, needs):
    exponent = at["exponent"]
    # d/dx x**0 == 0 and d/dx x**1 == 1 everywhere; the generic formula
    # ``g * e * x**(e-1)`` manufactures inf/nan at x == 0 for these cases
    # (and legitimately diverges there for fractional 0 < e < 1).
    if exponent == 0:
        return (np.zeros_like(ins[0]),)
    if exponent == 1:
        return (g * 1.0,)
    return (g * exponent * ins[0] ** (exponent - 1),)


def _bw_matmul(g, ins, out, at, needs):
    a, b = ins
    ga = gb = None
    if needs[0]:
        if b.ndim == 1:
            ga = np.multiply.outer(g, b) if a.ndim > 1 else g * b
            ga = _unbroadcast(np.asarray(ga), a.shape)
        elif a.ndim == 1:
            # out[..., j] = sum_k a[k] b[..., k, j]
            ga = (b * g[..., None, :]).sum(axis=-1)
            ga = _unbroadcast(ga, a.shape)
        else:
            ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
    if needs[1]:
        if a.ndim == 1:
            if b.ndim > 1:
                # out[..., j] = sum_k a[k] b[..., k, j]
                gb = a[:, None] * g[..., None, :]
            else:
                gb = a * g
            gb = _unbroadcast(np.asarray(gb), b.shape)
        elif b.ndim == 1:
            if a.ndim > 1:
                # out[..., i] = sum_k a[..., i, k] b[k]
                gb = (a * g[..., :, None]).sum(axis=tuple(range(a.ndim - 1)))
            else:
                gb = a * g
            gb = _unbroadcast(np.asarray(gb), b.shape)
        else:
            gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    return (ga, gb)


register_op("add", lambda ins, at: ins[0] + ins[1], _bw_add)
register_op("sub", lambda ins, at: ins[0] - ins[1], _bw_sub)
register_op("mul", lambda ins, at: ins[0] * ins[1], _bw_mul)
register_op("div", lambda ins, at: ins[0] / ins[1], _bw_div)
register_op("neg", lambda ins, at: -ins[0], _bw_neg)
register_op("pow", lambda ins, at: ins[0] ** at["exponent"], _bw_pow)
register_op("matmul", lambda ins, at: ins[0] @ ins[1], _bw_matmul)

# comparisons: non-differentiable, but recorded so replay recomputes the
# mask from live inputs instead of baking a stale constant into the trace
register_op("greater", lambda ins, at: ins[0] > ins[1], None,
            differentiable=False)
register_op("less", lambda ins, at: ins[0] < ins[1], None,
            differentiable=False)
register_op("greater_equal", lambda ins, at: ins[0] >= ins[1], None,
            differentiable=False)
register_op("less_equal", lambda ins, at: ins[0] <= ins[1], None,
            differentiable=False)

# constant (non-differentiable) keepdims-max: the softmax shift
register_op("amax_const",
            lambda ins, at: ins[0].max(axis=at["axis"], keepdims=True),
            None, differentiable=False)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def _fw_reshape(ins, at):
    return ins[0].reshape(at["shape"])


def _bw_reshape(g, ins, out, at, needs):
    return (g.reshape(ins[0].shape),)


def _fw_transpose(ins, at):
    axis0 = at["axis0"]
    if axis0 is None:
        return ins[0]           # 0-D/1-D identity: shares the source array
    return np.swapaxes(ins[0], axis0, at["axis1"])


def _bw_transpose(g, ins, out, at, needs):
    axis0 = at["axis0"]
    if axis0 is None:
        return (g,)
    return (np.swapaxes(g, axis0, at["axis1"]),)


def _fw_permute(ins, at):
    return np.transpose(ins[0], at["axes"])


def _bw_permute(g, ins, out, at, needs):
    return (np.transpose(g, at["inverse"]),)


def _fw_getitem(ins, at):
    return ins[0][at["index"]]


def _is_basic_index(index) -> bool:
    """True for numpy basic indexing: ints (not bools), slices, ``None``,
    ``Ellipsis`` and tuples of these -- indices that never repeat an
    element."""
    parts = index if type(index) is tuple else (index,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


def _bw_getitem(g, ins, out, at, needs):
    # Both branches add ``g`` onto zeros in np.add.at's element order, so
    # they are bitwise equal to it, signed zeros included.
    index = at["index"]
    shape = ins[0].shape
    if _is_basic_index(index):
        acc = np.zeros(shape, dtype=np.float64)
        acc[index] += g
        return (acc,)
    size = ins[0].size
    flat = np.arange(size).reshape(shape)[index].ravel()
    acc = np.bincount(flat, weights=g.ravel(), minlength=size)
    return (acc.reshape(shape),)


def _fw_broadcast_to(ins, at):
    return np.ascontiguousarray(np.broadcast_to(ins[0], at["shape"]))


def _bw_broadcast_to(g, ins, out, at, needs):
    return (_unbroadcast(g, ins[0].shape),)


register_op("reshape", _fw_reshape, _bw_reshape)
register_op("transpose", _fw_transpose, _bw_transpose)
register_op("permute", _fw_permute, _bw_permute)
register_op("getitem", _fw_getitem, _bw_getitem)
register_op("broadcast_to", _fw_broadcast_to, _bw_broadcast_to)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _fw_sum(ins, at):
    return ins[0].sum(axis=at["axis"], keepdims=at["keepdims"])


def _bw_sum(g, ins, out, at, needs):
    axis = at["axis"]
    shape = ins[0].shape
    if axis is None:
        return (np.broadcast_to(g, shape).copy(),)
    g_exp = g if at["keepdims"] else np.expand_dims(g, axis)
    return (np.broadcast_to(g_exp, shape).copy(),)


def _fw_max(ins, at):
    return ins[0].max(axis=at["axis"], keepdims=at["keepdims"])


def _bw_max(g, ins, out, at, needs):
    axis = at["axis"]
    keepdims = at["keepdims"]
    src = ins[0]
    if axis is None:
        mask = (src == out).astype(np.float64)
        mask /= mask.sum()
        return (mask * g,)
    expanded = out if keepdims else np.expand_dims(out, axis)
    mask = (src == expanded).astype(np.float64)
    mask /= mask.sum(axis=axis, keepdims=True)
    g_exp = g if keepdims else np.expand_dims(g, axis)
    return (np.broadcast_to(g_exp, src.shape) * mask,)


register_op("sum", _fw_sum, _bw_sum)
register_op("max", _fw_max, _bw_max)


# ---------------------------------------------------------------------------
# elementwise transcendentals
# ---------------------------------------------------------------------------

def _fw_sigmoid(ins, at):
    return 1.0 / (1.0 + np.exp(-np.clip(ins[0], -60.0, 60.0)))


def _fw_softplus(ins, at):
    # numerically stable: log(1 + e^x) = max(x, 0) + log1p(e^{-|x|})
    return np.maximum(ins[0], 0.0) + np.log1p(np.exp(-np.abs(ins[0])))


register_op("exp", lambda ins, at: np.exp(ins[0]),
            lambda g, ins, out, at, needs: (g * out,))
register_op("log", lambda ins, at: np.log(ins[0]),
            lambda g, ins, out, at, needs: (g / ins[0],))
register_op("sqrt", lambda ins, at: np.sqrt(ins[0]),
            lambda g, ins, out, at, needs: (g * 0.5 / out,))
register_op("tanh", lambda ins, at: np.tanh(ins[0]),
            lambda g, ins, out, at, needs: (g * (1.0 - out ** 2),))
register_op("sigmoid", _fw_sigmoid,
            lambda g, ins, out, at, needs: (g * out * (1.0 - out),))
register_op("relu", lambda ins, at: np.maximum(ins[0], 0.0),
            lambda g, ins, out, at, needs: (
                g * (ins[0] > 0).astype(np.float64),))
register_op("softplus", _fw_softplus,
            lambda g, ins, out, at, needs: (g * _fw_sigmoid(ins, at),))
register_op("abs", lambda ins, at: np.abs(ins[0]),
            lambda g, ins, out, at, needs: (g * np.sign(ins[0]),))
register_op("clip", lambda ins, at: np.clip(ins[0], at["lo"], at["hi"]),
            lambda g, ins, out, at, needs: (
                g * ((ins[0] >= at["lo"]) & (ins[0] <= at["hi"])
                     ).astype(np.float64),))
register_op("sin", lambda ins, at: np.sin(ins[0]),
            lambda g, ins, out, at, needs: (g * np.cos(ins[0]),))
register_op("cos", lambda ins, at: np.cos(ins[0]),
            lambda g, ins, out, at, needs: (-g * np.sin(ins[0]),))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _bw_inv(g, ins, out, at, needs):
    inv_t = np.swapaxes(out, -1, -2)
    return (-inv_t @ g @ inv_t,)


def _bw_pinv(g, ins, out, at, needs):
    # VJP of the classical differential (Golub & Pereyra 1973):
    # dA+ = -A+ dA A+ + A+ A+^T dA^T (I - A A+) + (I - A+ A) dA^T A+^T A+
    a, plus = ins[0], out
    pt = np.swapaxes(plus, -1, -2)
    m = a.shape[-2]
    n = a.shape[-1]
    eye_m = np.eye(m)
    eye_n = np.eye(n)
    term1 = -pt @ g @ pt
    term2 = (eye_m - a @ plus) @ np.swapaxes(g, -1, -2) @ (plus @ pt)
    term3 = (pt @ plus) @ np.swapaxes(g, -1, -2) @ (eye_n - plus @ a)
    return (term1 + term2 + term3,)


register_op("inv", lambda ins, at: np.linalg.inv(ins[0]), _bw_inv)
register_op("pinv",
            lambda ins, at: np.linalg.pinv(ins[0], rcond=at["rcond"]),
            _bw_pinv)


# ---------------------------------------------------------------------------
# multi-input ops
# ---------------------------------------------------------------------------

def _fw_concat(ins, at):
    return np.concatenate(ins, axis=at["axis"])


def _bw_concat(g, ins, out, at, needs):
    return tuple(np.array_split(g, at["splits"], axis=at["axis"]))


def _fw_stack(ins, at):
    return np.stack(ins, axis=at["axis"])


def _bw_stack(g, ins, out, at, needs):
    axis = at["axis"]
    pieces = np.split(g, len(ins), axis=axis)
    return tuple(np.squeeze(p, axis=axis) for p in pieces)


def _fw_where(ins, at):
    return np.where(ins[0], ins[1], ins[2])


def _bw_where(g, ins, out, at, needs):
    cond = ins[0]
    return (None,
            _unbroadcast(np.where(cond, g, 0.0), ins[1].shape)
            if needs[1] else None,
            _unbroadcast(np.where(cond, 0.0, g), ins[2].shape)
            if needs[2] else None)


def _fw_maximum(ins, at):
    return np.where(ins[0] >= ins[1], ins[0], ins[1])


def _bw_maximum(g, ins, out, at, needs):
    # ties send gradient to the first argument
    mask = ins[0] >= ins[1]
    return _select_grads(g, mask, ins, needs)


def _fw_minimum(ins, at):
    return np.where(ins[0] <= ins[1], ins[0], ins[1])


def _bw_minimum(g, ins, out, at, needs):
    mask = ins[0] <= ins[1]
    return _select_grads(g, mask, ins, needs)


def _select_grads(g, mask, ins, needs):
    """``maximum``/``minimum`` gradients: ``g`` where ``mask`` picks the
    first operand, the rest to the second."""
    return (_unbroadcast(np.where(mask, g, 0.0), ins[0].shape)
            if needs[0] else None,
            _unbroadcast(np.where(mask, 0.0, g), ins[1].shape)
            if needs[1] else None)


register_op("concat", _fw_concat, _bw_concat)
register_op("stack", _fw_stack, _bw_stack)
register_op("where", _fw_where, _bw_where)
register_op("maximum", _fw_maximum, _bw_maximum)
register_op("minimum", _fw_minimum, _bw_minimum)


# ---------------------------------------------------------------------------
# recurrent scans
# ---------------------------------------------------------------------------
# ``gru_scan`` runs a GRU cell over a (B, T, F) sequence as one op, so a
# sequence costs one tape node instead of ~20 per step.  Its inputs are
# ``(x, h0, w_ih, w_hh, b_ih, b_hh)`` and its output every hidden state
# (B, T, H).  The forward repeats ``nn.GRUCell.forward``'s numpy calls in
# the same order -- a per-step ``x[:, t] @ w_ih`` (hoisting it over all
# steps changes the rounding at B = 1) and ``_fw_sigmoid``'s clip -- so
# its values are bitwise those of the per-step composite.

def _gru_gates(gi, gh, hs):
    """Reset, update and candidate gates from the input and hidden
    pre-activations (..., 3H), in ``GRUCell.forward``'s order."""
    reset = _fw_sigmoid((gi[..., :hs] + gh[..., :hs],), None)
    update = _fw_sigmoid((gi[..., hs:2 * hs] + gh[..., hs:2 * hs],), None)
    candidate = np.tanh(gi[..., 2 * hs:] + reset * gh[..., 2 * hs:])
    return reset, update, candidate


def _fw_gru_scan(ins, at):
    x, h, w_ih, w_hh, b_ih, b_hh = ins
    hs = w_hh.shape[0]
    out = np.empty(x.shape[:2] + (hs,))
    for t in range(x.shape[1]):
        _, update, candidate = _gru_gates(x[:, t] @ w_ih + b_ih,
                                          h @ w_hh + b_hh, hs)
        h = update * h + (1.0 - update) * candidate
        out[:, t] = h
    return out


def _bw_gru_scan(g, ins, out, at, needs):
    # Gates are recomputed for all steps at once from the stored states
    # (h_{t-1} = out[:, t-1]); only the dh recurrence loops over time.
    x, h0, w_ih, w_hh, b_ih, b_hh = ins
    batch, steps, hs = out.shape
    h_prev = np.concatenate([h0[:, None], out[:, :-1]], axis=1)
    gh = h_prev @ w_hh + b_hh
    reset, update, cand = _gru_gates(x @ w_ih + b_ih, gh, hs)
    # d(pre-activation)/dh_t for the candidate and update gates, and the
    # reset gate's factor on top of the candidate's.
    d_cand = (1.0 - update) * (1.0 - cand ** 2)
    d_update = (h_prev - cand) * update * (1.0 - update)
    d_reset = gh[..., 2 * hs:] * reset * (1.0 - reset)
    # Pre-activation gradients of gh per unit dh_t: [reset, update, n].
    coef_h = np.concatenate([d_cand * d_reset, d_update, d_cand * reset],
                            axis=-1)
    dh_total = np.empty_like(out)
    dgh = np.empty_like(gh)
    w_hh_t = w_hh.T
    carry = np.zeros((batch, hs))
    for t in range(steps - 1, -1, -1):
        dh = g[:, t] + carry
        dh_total[:, t] = dh
        dgh[:, t] = np.concatenate([dh, dh, dh], axis=1) * coef_h[:, t]
        carry = dh * update[:, t] + dgh[:, t] @ w_hh_t
    dgi = dgh.copy()
    dgi[..., 2 * hs:] = dh_total * d_cand
    dgi2 = dgi.reshape(-1, 3 * hs)
    dgh2 = dgh.reshape(-1, 3 * hs)
    return (dgi @ w_ih.T if needs[0] else None,
            carry if needs[1] else None,
            x.reshape(-1, x.shape[-1]).T @ dgi2 if needs[2] else None,
            h_prev.reshape(-1, hs).T @ dgh2 if needs[3] else None,
            dgi2.sum(axis=0) if needs[4] else None,
            dgh2.sum(axis=0) if needs[5] else None)


register_op("gru_scan", _fw_gru_scan, _bw_gru_scan)


# ---------------------------------------------------------------------------
# escape hatches
# ---------------------------------------------------------------------------
# "custom" wraps a caller-supplied backward closure (the adjoint method's
# solve-backwards-in-time node); "replay" is the fat node a CompiledGraph
# plants in the outer graph.  Neither has a data-only forward rule, so both
# poison traces (see UNREPLAYABLE) and only ever run eagerly.

register_op("custom", None,
            lambda g, ins, out, at, needs: tuple(at["fn"](g)))
# The replay backward also receives the parents' live data (``ins[0]`` is
# the step input ``y``) so checkpointed frames — which drop the forward
# value table — can re-run the trace from the stored inputs alone.
register_op("replay", None,
            lambda g, ins, out, at, needs:
                at["graph"].backward(g, at["frame"], ins))


# ---------------------------------------------------------------------------
# codegen render rules
# ---------------------------------------------------------------------------
# The codegen backend (:mod:`repro.autodiff.codegen`) lowers a recorded
# trace to flat Python/numpy source.  ``emit(args, attrs, const)`` renders
# an op as an expression over already-rendered argument expressions;
# ``emit_out(args, attrs, const, out)`` renders a statement writing into
# the preallocated buffer named ``out``.  ``const(obj)`` binds ``obj`` as
# a closure constant of the generated kernel and returns its name, so
# attrs are baked by object identity rather than re-parsed from reprs.
# Every rule must replicate the forward rule's numpy call sequence
# exactly: the validation step bit-compares kernel output against the
# replayed trace, and a kernel that differs pins its trace to eager.  Helper names (``_np``, ``_add``, ``_whr``, ...)
# are provided by the codegen base namespace (``codegen._BASE_NS``).

def _emit_transpose(a, at, c):
    axis0 = at["axis0"]
    if axis0 is None:
        return a[0]
    return f"_sw({a[0]}, {c(axis0)}, {c(at['axis1'])})"


_EMIT_RULES = {
    "add": (lambda a, at, c: f"({a[0]} + {a[1]})",
            lambda a, at, c, o: f"_add({a[0]}, {a[1]}, {o})"),
    "sub": (lambda a, at, c: f"({a[0]} - {a[1]})",
            lambda a, at, c, o: f"_sub({a[0]}, {a[1]}, {o})"),
    "mul": (lambda a, at, c: f"({a[0]} * {a[1]})",
            lambda a, at, c, o: f"_mul({a[0]}, {a[1]}, {o})"),
    "div": (lambda a, at, c: f"({a[0]} / {a[1]})",
            lambda a, at, c, o: f"_div({a[0]}, {a[1]}, {o})"),
    "neg": (lambda a, at, c: f"(-{a[0]})",
            lambda a, at, c, o: f"_neg({a[0]}, {o})"),
    "pow": (lambda a, at, c: f"({a[0]} ** {c(at['exponent'])})",
            lambda a, at, c, o: f"_pw({a[0]}, {c(at['exponent'])}, {o})"),
    "matmul": (lambda a, at, c: f"({a[0]} @ {a[1]})",
               lambda a, at, c, o: f"_mm({a[0]}, {a[1]}, {o})"),
    "greater": (lambda a, at, c: f"({a[0]} > {a[1]})", None),
    "less": (lambda a, at, c: f"({a[0]} < {a[1]})", None),
    "greater_equal": (lambda a, at, c: f"({a[0]} >= {a[1]})", None),
    "less_equal": (lambda a, at, c: f"({a[0]} <= {a[1]})", None),
    "amax_const": (
        lambda a, at, c: f"{a[0]}.max(axis={c(at['axis'])}, keepdims=True)",
        None),
    "reshape": (lambda a, at, c: f"{a[0]}.reshape({c(at['shape'])})", None),
    "transpose": (_emit_transpose, None),
    "permute": (lambda a, at, c: f"_tr({a[0]}, {c(at['axes'])})", None),
    "getitem": (lambda a, at, c: f"{a[0]}[{c(at['index'])}]", None),
    "broadcast_to": (lambda a, at, c: f"_ac(_bt({a[0]}, {c(at['shape'])}))",
                     None),
    "sum": (lambda a, at, c:
            f"{a[0]}.sum(axis={c(at['axis'])}, keepdims={c(at['keepdims'])})",
            None),
    "max": (lambda a, at, c:
            f"{a[0]}.max(axis={c(at['axis'])}, keepdims={c(at['keepdims'])})",
            None),
    "exp": (lambda a, at, c: f"_exp({a[0]})",
            lambda a, at, c, o: f"_exp({a[0]}, {o})"),
    "log": (lambda a, at, c: f"_log({a[0]})",
            lambda a, at, c, o: f"_log({a[0]}, {o})"),
    "sqrt": (lambda a, at, c: f"_sqrt({a[0]})",
             lambda a, at, c, o: f"_sqrt({a[0]}, {o})"),
    "tanh": (lambda a, at, c: f"_tanh({a[0]})",
             lambda a, at, c, o: f"_tanh({a[0]}, {o})"),
    "sigmoid": (lambda a, at, c:
                f"(1.0 / (1.0 + _exp(-_clip({a[0]}, -60.0, 60.0))))",
                None),
    "relu": (lambda a, at, c: f"_maxu({a[0]}, 0.0)",
             lambda a, at, c, o: f"_maxu({a[0]}, 0.0, out={o})"),
    "softplus": (lambda a, at, c:
                 f"(_maxu({a[0]}, 0.0) + _log1p(_exp(-_abs({a[0]}))))",
                 None),
    "abs": (lambda a, at, c: f"_abs({a[0]})",
            lambda a, at, c, o: f"_abs({a[0]}, {o})"),
    "clip": (lambda a, at, c:
             f"_clip({a[0]}, {c(at['lo'])}, {c(at['hi'])})",
             lambda a, at, c, o:
             f"_clip({a[0]}, {c(at['lo'])}, {c(at['hi'])}, {o})"),
    "sin": (lambda a, at, c: f"_sin({a[0]})",
            lambda a, at, c, o: f"_sin({a[0]}, {o})"),
    "cos": (lambda a, at, c: f"_cos({a[0]})",
            lambda a, at, c, o: f"_cos({a[0]}, {o})"),
    "inv": (lambda a, at, c: f"_inv({a[0]})", None),
    "pinv": (lambda a, at, c: f"_pinv({a[0]}, rcond={c(at['rcond'])})", None),
    "concat": (lambda a, at, c:
               f"_cat(({', '.join(a)},), {c(at['axis'])})", None),
    "stack": (lambda a, at, c:
              f"_stk(({', '.join(a)},), {c(at['axis'])})", None),
    "where": (lambda a, at, c: f"_whr({a[0]}, {a[1]}, {a[2]})", None),
    "maximum": (lambda a, at, c:
                f"_whr({a[0]} >= {a[1]}, {a[0]}, {a[1]})", None),
    "minimum": (lambda a, at, c:
                f"_whr({a[0]} <= {a[1]}, {a[0]}, {a[1]})", None),
}


def _attach_emitters() -> None:
    from dataclasses import replace
    for opcode, (emit, emit_out) in _EMIT_RULES.items():
        OPS[opcode] = replace(OPS[opcode], emit=emit, emit_out=emit_out)


_attach_emitters()
