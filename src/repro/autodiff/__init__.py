"""Reverse-mode autodiff substrate (numpy-backed), the stand-in for PyTorch.

The package is organised around an explicit op-graph IR:

* :mod:`~repro.autodiff.ir` -- the opcode dispatch table (forward +
  backward rule per primitive), typed tape nodes and trace recording;
* :mod:`~repro.autodiff.tensor` -- the :class:`Tensor` handle and the
  eager executor (``apply``);
* :mod:`~repro.autodiff.executors` -- the trace-and-replay executor for
  ``no_grad`` ODE right-hand sides (``REPRO_EXECUTOR=replay`` /
  :func:`set_executor`); gradients always come from the eager tape;
* :mod:`~repro.autodiff.codegen` -- the codegen backend lowering every
  validated no_grad trace to one flat generated Python/numpy kernel.
"""

from .ir import (
    OPS,
    OpNode,
    OpSpec,
    bump_graph_epoch,
    graph_epoch,
)
from .tensor import (
    Tensor,
    apply,
    as_tensor,
    concat,
    is_grad_enabled,
    mark_static,
    maximum,
    minimum,
    no_grad,
    stack,
    time_tensor,
    where,
)
from .executors import (
    CompiledFunction,
    CompiledGraph,
    get_executor,
    maybe_compile,
    set_executor,
)
from .codegen import (
    CodegenError,
    get_codegen,
    recent_sources,
)
from .functional import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    dropout,
    log_softmax,
    masked_mse_loss,
    masked_softmax,
    mse_loss,
    one_hot,
    softmax,
)
from .einsum import einsum
from .gradcheck import gradcheck, numeric_grad
from .profiler import OpRecord, TapeProfiler, active_profiler, tape_profile

__all__ = [
    "Tensor",
    "apply",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "no_grad",
    "is_grad_enabled",
    "time_tensor",
    "OPS",
    "OpSpec",
    "OpNode",
    "graph_epoch",
    "bump_graph_epoch",
    "get_executor",
    "set_executor",
    "maybe_compile",
    "CompiledFunction",
    "CompiledGraph",
    "mark_static",
    "CodegenError",
    "get_codegen",
    "recent_sources",
    "softmax",
    "log_softmax",
    "masked_softmax",
    "cross_entropy",
    "mse_loss",
    "masked_mse_loss",
    "binary_cross_entropy_with_logits",
    "one_hot",
    "dropout",
    "einsum",
    "gradcheck",
    "numeric_grad",
    "OpRecord",
    "TapeProfiler",
    "tape_profile",
    "active_profiler",
]
