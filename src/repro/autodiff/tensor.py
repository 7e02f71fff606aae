"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the whole reproduction: every model in
``repro`` (DIFFODE itself and all baselines) is trained by backpropagating
through a tape of :class:`Tensor` operations, exactly the role PyTorch
plays for the original paper.

Design
------
* Every primitive is declared once in the :mod:`repro.autodiff.ir` dispatch
  table (:data:`~repro.autodiff.ir.OPS`): an opcode, a forward rule and a
  backward rule.  Executing a primitive through :func:`apply` evaluates the
  forward rule and -- when gradients are enabled and needed -- appends a
  typed :class:`~repro.autodiff.ir.OpNode` (opcode, parents, attrs, output
  buffer) to the graph.  A :class:`Tensor` is a thin handle onto that
  node plus the payload ndarray.
* ``Tensor.backward()`` walks the reachable ``OpNode`` records in
  decreasing creation-id order (creation order is a topological order) and
  dispatches each node's backward rule from the IR table, accumulating
  gradients into the leaves.
* Broadcasting follows numpy semantics; gradients are "unbroadcast"
  (summed) back to each parent's shape.
* :func:`no_grad` disables tape construction, used for evaluation loops.
* When a :class:`~repro.autodiff.ir.TraceRecorder` is active (see
  :mod:`repro.autodiff.executors`), :func:`apply` also appends the op to
  the trace so the replay executor can re-run it without re-entering this
  front-end.

Only genuinely primitive operations live here; composite functions
(softmax, losses, attention) are built from these primitives in
:mod:`repro.autodiff.functional`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable

import numpy as np

from .ir import OPS, OpNode, _TRACE, _unbroadcast, active_recorder, next_node_id

__all__ = [
    "Tensor",
    "apply",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "mark_static",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "time_tensor",
]

_STATE = threading.local()

#: Active :class:`repro.autodiff.profiler.TapeProfiler`, installed by
#: ``tape_profile()``.  When None (the default) the tape hot path pays one
#: global load + ``is None`` branch per node and nothing else.
_PROFILER = None


def is_grad_enabled() -> bool:
    """Return True when operations should be recorded on the tape."""
    return getattr(_STATE, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Inside the block every operation produces constant tensors, which makes
    evaluation passes cheaper and prevents accidental graph growth.
    """
    previous = is_grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def apply(opcode: str, parents: tuple["Tensor", ...],
          attrs: dict | None = None) -> "Tensor":
    """Execute one IR op eagerly and return its output tensor.

    This is the single choke point every primitive goes through: forward
    dispatch, tape-node creation, profiler notification and trace
    recording all happen here.
    """
    spec = OPS[opcode]
    out = Tensor(spec.forward(tuple(p.data for p in parents), attrs))
    if spec.differentiable and is_grad_enabled() \
            and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = OpNode(next_node_id(), opcode, parents, attrs, out.data)
    if _PROFILER is not None:
        _PROFILER._record_node(opcode, out.data.nbytes)
    recorder = active_recorder()
    if recorder is not None:
        recorder.record(opcode, parents, attrs, out)
    return out


class Tensor:
    """A numpy array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` ndarray.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "name", "static")
    __array_priority__ = 100  # make numpy defer to our reflected operators

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._node: OpNode | None = None
        self.name = name
        self.static = False
        recorder = _TRACE.recorder
        if recorder is not None:
            # A tensor born inside a traced call is a trace-local constant
            # (its data cannot change between replays of that trace), so
            # the generated kernel may bake it in.
            recorder.note_transient(self)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make_custom(data, parents: tuple["Tensor", ...], backward_fn,
                     force_grad: bool = False) -> "Tensor":
        """Build a tensor with a caller-supplied backward closure.

        The escape hatch for nodes whose backward is not a data-only IR
        rule (the adjoint method's integrate-backwards node).  The node is
        recorded under the ``"custom"`` opcode, which poisons traces, so
        such nodes only ever execute eagerly.
        """
        out = Tensor(data)
        if is_grad_enabled() and (force_grad
                                  or any(p.requires_grad for p in parents)):
            out.requires_grad = True
            out._node = OpNode(next_node_id(), "custom", parents,
                               {"fn": backward_fn}, out.data)
        if _PROFILER is not None:
            _PROFILER._record_node("custom", out.data.nbytes)
        recorder = active_recorder()
        if recorder is not None:
            recorder.record("custom", parents, None, out)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        head = f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}"
        if self.name:
            head += f", name={self.name!r}"
        return head + ")"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing this tensor's data.

        The ``name`` survives detaching so profiler output and IR dumps
        keep their human-readable labels across detach boundaries.
        """
        return Tensor(self.data, name=self.name)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            1.0, which requires the tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        profiler = _PROFILER
        if profiler is not None:
            profiler._record_backward_pass()
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        if self._node is None:
            self.grad = grad if self.grad is None else self.grad + grad
            return

        # Collect the reachable graph.  Interior tensors are sorted by
        # decreasing node id -- parents always carry smaller ids than their
        # children, so creation order doubles as a topological order.
        interior: list[Tensor] = []
        leaves: list[Tensor] = []
        seen: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t._node is not None:
                interior.append(t)
                for parent in t._node.parents:
                    if parent.requires_grad and id(parent) not in seen:
                        stack.append(parent)
            else:
                leaves.append(t)
        interior.sort(key=lambda t: t._node.id, reverse=True)

        # A parent's first contribution is stored as is; it may alias a
        # rule's input or another parent's gradient.  The second allocates
        # ``a + b``, which this pass then owns and adds later contributions
        # into in place, so no array the pass did not allocate is written.
        # An entry gets no contributions after it is popped for its rule
        # (its consumers all have larger node ids) or handed to a leaf.
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: set[int] = set()

        for t in interior:
            node_grad = grads.pop(id(t), None)
            if node_grad is None:
                continue
            node = t._node
            spec = OPS[node.opcode]
            needs = tuple(p.requires_grad for p in node.parents)
            inputs = tuple(p.data for p in node.parents)
            if profiler is not None:
                parent_grads = profiler._timed_backward(
                    spec.backward, node.opcode, node_grad, inputs, node.out,
                    node.attrs, needs)
            else:
                parent_grads = spec.backward(node_grad, inputs, node.out,
                                             node.attrs, needs)
            for parent, pgrad in zip(node.parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                acc = grads.get(key)
                if acc is None:
                    grads[key] = pgrad
                elif key in owned and acc.shape == np.shape(pgrad):
                    np.add(acc, pgrad, out=acc)
                else:
                    acc = acc + pgrad
                    grads[key] = acc
                    if type(acc) is np.ndarray:
                        owned.add(key)
        # Anything left belongs to leaves encountered exactly once.
        for t in leaves:
            remaining = grads.pop(id(t), None)
            if remaining is not None:
                t.grad = remaining if t.grad is None else t.grad + remaining

    # ------------------------------------------------------------------
    # arithmetic primitives
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return apply("add", (self, as_tensor(other)))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return apply("sub", (self, as_tensor(other)))

    def __rsub__(self, other) -> "Tensor":
        return apply("sub", (as_tensor(other), self))

    def __mul__(self, other) -> "Tensor":
        return apply("mul", (self, as_tensor(other)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return apply("div", (self, as_tensor(other)))

    def __rtruediv__(self, other) -> "Tensor":
        return apply("div", (as_tensor(other), self))

    def __neg__(self) -> "Tensor":
        return apply("neg", (self,))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return apply("pow", (self,), {"exponent": exponent})

    def __matmul__(self, other) -> "Tensor":
        return apply("matmul", (self, as_tensor(other)))

    def __rmatmul__(self, other) -> "Tensor":
        return apply("matmul", (as_tensor(other), self))

    # comparisons produce constant (non-differentiable) tensors; routing
    # them through the IR keeps data-dependent masks replayable
    def __gt__(self, other):
        return apply("greater", (self, as_tensor(other)))

    def __lt__(self, other):
        return apply("less", (self, as_tensor(other)))

    def __ge__(self, other):
        return apply("greater_equal", (self, as_tensor(other)))

    def __le__(self, other):
        return apply("less_equal", (self, as_tensor(other)))

    # ------------------------------------------------------------------
    # shape primitives
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", (self,), {"shape": shape})

    def transpose(self, axis0: int | None = None, axis1: int | None = None) -> "Tensor":
        """Swap two axes (defaults to the last two; identity for 0-D/1-D).

        Always returns a fresh tape node, never ``self``: callers treat the
        result as a distinct tensor (renaming it, accumulating into its
        ``.grad``), which must not alias the source.
        """
        if axis0 is None and axis1 is None and self.ndim >= 2:
            axis0, axis1 = -2, -1
        return apply("transpose", (self,), {"axis0": axis0, "axis1": axis1})

    def permute(self, *axes: int) -> "Tensor":
        return apply("permute", (self,),
                     {"axes": axes, "inverse": np.argsort(axes)})

    def __getitem__(self, index) -> "Tensor":
        return apply("getitem", (self,), {"index": index})

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        return apply("broadcast_to", (self,), {"shape": shape})

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("max", (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # elementwise primitives
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply("exp", (self,))

    def log(self) -> "Tensor":
        return apply("log", (self,))

    def sqrt(self) -> "Tensor":
        return apply("sqrt", (self,))

    def tanh(self) -> "Tensor":
        return apply("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        return apply("sigmoid", (self,))

    def relu(self) -> "Tensor":
        return apply("relu", (self,))

    def softplus(self) -> "Tensor":
        return apply("softplus", (self,))

    def abs(self) -> "Tensor":
        return apply("abs", (self,))

    def clip(self, lo: float, hi: float) -> "Tensor":
        return apply("clip", (self,), {"lo": lo, "hi": hi})

    def sin(self) -> "Tensor":
        return apply("sin", (self,))

    def cos(self) -> "Tensor":
        return apply("cos", (self,))

    # ------------------------------------------------------------------
    # linear algebra primitives
    # ------------------------------------------------------------------
    def inv(self) -> "Tensor":
        """Batched matrix inverse with analytic gradient."""
        return apply("inv", (self,))

    def pinv(self, rcond: float = 1e-15) -> "Tensor":
        """Batched Moore-Penrose pseudo-inverse with analytic gradient.

        Uses the classical differential (Golub & Pereyra 1973):

        ``dA+ = -A+ dA A+ + A+ A+^T dA^T (I - A A+) + (I - A+ A) dA^T A+^T A+``

        ``rcond`` truncates singular values below ``rcond * sigma_max``,
        which matters for structurally rank-deficient matrices perturbed by
        round-off (e.g. ``J p - I`` in Eq. 34).
        """
        return apply("pinv", (self,), {"rcond": rcond})


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a (constant) :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def mark_static(tensor: Tensor) -> Tensor:
    """Declare ``tensor``'s data constant for the current graph epoch.

    A static tensor promises that its ``.data`` array will not change (nor
    be rebound) until the next :func:`~repro.autodiff.ir.bump_graph_epoch`
    call -- the contract bind-time constants such as the DHS attention
    contexts already satisfy, since ``DHSDynamics.bind`` bumps the epoch
    when it installs new ones.  The generated ``no_grad`` kernel of a
    compiled trace relies on the promise: it bakes a static tensor's array
    in as a constant instead of re-reading ``.data`` per call.  Never mark
    trainable parameters that an optimizer updates in place.

    Returns the tensor for chaining.
    """
    tensor.static = True
    return tensor


def time_tensor(t: float, shape: tuple[int, ...]) -> Tensor:
    """Constant tensor filled with scalar time ``t``.

    ODE right-hand sides must build their time features through this helper
    rather than ``Tensor(np.full(shape, t))``: when a trace is being
    recorded the fill is declared as a replay *input slot*, so the compiled
    graph re-fills it with the current ``t`` on every replay instead of
    baking the traced call's time in as a constant.
    """
    out = Tensor(np.full(shape, float(t)))
    recorder = active_recorder()
    if recorder is not None:
        recorder.mark_input(out, "t")
    return out


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = tuple(as_tensor(t) for t in tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return apply("concat", tensors, {"axis": axis, "splits": splits})


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = tuple(as_tensor(t) for t in tensors)
    return apply("stack", tensors, {"axis": axis})


def where(condition, a, b) -> Tensor:
    """Elementwise select: gradient flows to the chosen branch only.

    The condition is recorded as a (non-differentiable) parent, so a
    data-dependent mask -- e.g. ``where(x > 0, ...)`` with the comparison
    done in Tensor space -- is recomputed from live inputs on replay.
    """
    return apply("where", (as_tensor(condition), as_tensor(a), as_tensor(b)))


def maximum(a, b) -> Tensor:
    """Elementwise maximum (ties send gradient to the first argument)."""
    return apply("maximum", (as_tensor(a), as_tensor(b)))


def minimum(a, b) -> Tensor:
    """Elementwise minimum (ties send gradient to the first argument)."""
    return apply("minimum", (as_tensor(a), as_tensor(b)))
