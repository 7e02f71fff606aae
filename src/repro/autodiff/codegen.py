"""Codegen backend: lower recorded RHS traces to flat Python/numpy source.

Executing a trace op by op pays per-op Python dispatch -- a tuple unpack,
ref decoding and a closure call for each of the ~dozen ops of a DHS
right-hand side, hundreds of times per dopri5 solve.  Following the
tinygrad/drjit trace->kernel model, this module takes a graph's recorded
ops, in trace order, and emits one flat, shape-specialized Python
function per trace:

* fused elementwise chains collapse into single numpy expressions
  (single-use float64-closed producers are inlined into their consumer);
* ops with an ``emit_out`` render rule write into preallocated ``out=``
  buffers bound as closure locals;
* static externals are baked in as closure constants -- safe because
  anything that swaps them out-of-band bumps the graph epoch, which
  rebuilds the graph and its kernel;
* non-static externals are re-read through their live ``.data`` on every
  call, preserving the replay contract for in-place parameter updates;
* ``time_tensor`` slots become in-place ``fill`` statements on persistent
  time buffers.

The source is compiled once with ``compile()``/``exec``.  Under the replay
executor every validated ``no_grad`` trace runs as such a kernel (trace ->
validate -> codegen): validation bit-compares the kernel's output against
the replayed trace, so the bit-identity contract with eager execution
is enforced per trace, not assumed, and a trace that cannot be lowered or
whose kernel differs stays eager.  Calls with gradients enabled run
eager.  Generated sources are kept in a ring buffer surfaced by
``python -m repro.cli profile``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .ir import OPS

__all__ = [
    "CodegenError",
    "build_codegen",
    "get_codegen",
    "recent_sources",
]


def get_codegen() -> str:
    """``"on"`` when the replay executor is selected, else ``"off"``.

    There is no separate switch: under the replay executor every
    validated ``no_grad`` replay runs its generated kernel.  This read-only
    report exists for tools that record the execution modes beside a
    measurement, such as the environment line of ``perfbench/run.py``.
    """
    from .executors import get_executor

    return "on" if get_executor() == "replay" else "off"


class CodegenError(Exception):
    """A trace that cannot be lowered; the executor pins its key to eager."""


def _asf(a):
    return np.asarray(a, dtype=np.float64)


#: Names every generated kernel may reference.  ``emit``/``emit_out``
#: render rules in :mod:`repro.autodiff.ir` are written against these.
_BASE_NS = {
    "_np": np,
    "_asf": _asf,
    "_add": np.add,
    "_sub": np.subtract,
    "_mul": np.multiply,
    "_div": np.divide,
    "_neg": np.negative,
    "_pw": np.power,
    "_mm": np.matmul,
    "_exp": np.exp,
    "_log": np.log,
    "_log1p": np.log1p,
    "_sqrt": np.sqrt,
    "_tanh": np.tanh,
    "_abs": np.abs,
    "_sin": np.sin,
    "_cos": np.cos,
    "_maxu": np.maximum,
    "_clip": np.clip,
    "_sw": np.swapaxes,
    "_tr": np.transpose,
    "_bt": np.broadcast_to,
    "_ac": np.ascontiguousarray,
    "_inv": np.linalg.inv,
    "_pinv": np.linalg.pinv,
    "_cat": np.concatenate,
    "_stk": np.stack,
    "_whr": np.where,
}

#: Producers safe to inline into a consumer expression: elementwise,
#: float64-closed (float64 operands always yield float64, so skipping the
#: statement-level ``_asf`` changes nothing), and side-effect free.
_INLINABLE = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt",
    "tanh", "relu", "abs", "clip", "sin", "cos",
})

#: Ops whose rendered expression always yields a *fresh* float64 ndarray
#: given float64 ndarray operands -- the output statement can skip the
#: ``_asf`` coercion (which would be an identity call) for these.
_F64_FRESH = _INLINABLE | {"matmul"}

#: Consumers whose render rule repeats an argument (``softplus`` expands
#: to two reads of its input, ``maximum``/``minimum`` to three): only
#: plain names may flow in, never inlined sub-expressions, or the
#: duplicated text would evaluate the producer twice.
_MULTI_USE_ARGS = frozenset({"softplus", "maximum", "minimum"})

#: Ring buffer of recently generated kernels (CLI profile report).
_SOURCE_LOG: deque = deque(maxlen=8)


def recent_sources() -> list[dict]:
    """Recently generated kernel sources, oldest first."""
    return list(_SOURCE_LOG)


def build_codegen(graph, tag: str = "") -> tuple:
    """Lower ``graph``'s no_grad trace to one flat function.

    Returns ``(kernel, source)``; ``kernel(t, y_data)`` evaluates the
    trace on raw ndarrays and returns a fresh output ndarray, copied
    when it may view persistent storage (the graph's ``_copy_output``).
    Raises :class:`CodegenError` when the trace cannot be lowered.
    """
    ops = graph.ops
    out_buf = graph.out_buf

    ns = dict(_BASE_NS)
    const_names: dict[int, str] = {}

    def const(obj) -> str:
        name = const_names.get(id(obj))
        if name is None:
            name = f"c{len(const_names)}"
            const_names[id(obj)] = name
            ns[name] = obj
        return name

    # Sole-consumer analysis for inlining: an op folds into its consumer's
    # expression when it is used exactly once, by an op whose render rule
    # reads each argument once.
    n = len(ops)
    uses = [0] * n
    consumer = [-1] * n
    for i, op in enumerate(ops):
        for kind, j in op.refs:
            if kind == "buf":
                uses[j] += 1
                consumer[j] = i
    inline = set()
    for i in range(n):
        if (i != out_buf and uses[i] == 1
                and ops[i].opcode in _INLINABLE
                and ops[consumer[i]].opcode not in _MULTI_USE_ARGS):
            inline.add(i)

    buffered = set()

    def name_of(i: int) -> str:
        return f"b{i}" if i in buffered else f"v{i}"

    def ref_expr(kind: str, j: int) -> str:
        if kind == "buf":
            return render(j) if j in inline else name_of(j)
        if kind == "in":
            return "y" if graph.inputs[j][0] == "y" else f"t{j}"
        if graph.ext_static[j]:
            return const(graph.externals[j].data)
        return f"x{j}.data"                       # live per-call re-read

    def render(i: int) -> str:
        op = ops[i]
        spec = OPS[op.opcode]
        args = [ref_expr(kind, j) for kind, j in op.refs]
        if spec.emit is not None:
            return spec.emit(args, op.attrs, const)
        if spec.forward is None:
            raise CodegenError(f"op {op.opcode!r} has no forward rule")
        # No render rule: bake the forward closure itself and call it with
        # the same (ins, attrs) signature the interpreter uses.
        fname = const(spec.forward)
        aname = "None" if op.attrs is None else const(op.attrs)
        comma = "," if len(args) == 1 else ""
        return f"{fname}(({', '.join(args)}{comma}), {aname})"

    lines = []
    for j, shape in graph._t_slots:
        ns[f"t{j}"] = np.empty(shape)
        lines.append(f"t{j}.fill(t)")
    for j, static in enumerate(graph.ext_static):
        if not static:
            ns[f"x{j}"] = graph.externals[j]

    for i, op in enumerate(ops):
        if i in inline:
            continue
        spec = OPS[op.opcode]
        if i == out_buf:
            # The output is always materialised fresh (never a persistent
            # buffer) and copied when it may view persistent storage.  Ops
            # that are guaranteed to build a fresh float64 ndarray skip the
            # identity coercion.  It is bound in trace order because later
            # ops may still read it.
            expr = render(i)
            if op.opcode not in _F64_FRESH:
                expr = f"_asf({expr})"
            if graph._copy_output:
                expr = f"_np.array({expr})"
            lines.append(f"v{i} = {expr}")
        elif spec.emit_out is not None:
            buffered.add(i)
            ns[f"b{i}"] = np.empty(op.shape)
            args = [ref_expr(kind, j) for kind, j in op.refs]
            lines.append(spec.emit_out(args, op.attrs, const, f"b{i}"))
        else:
            lines.append(f"v{i} = _asf({render(i)})")
    lines.append(f"return v{out_buf}")

    names = sorted(ns)
    unpack = ", ".join(names)
    loads = ", ".join(f"ns[{name!r}]" for name in names)
    src_lines = [
        "def _build(ns):",
        f"    ({unpack},) = ({loads},)",
        "    def _kernel(t, y):",
    ]
    src_lines += [f"        {line}" for line in lines]
    src_lines.append("    return _kernel")
    source = "\n".join(src_lines)

    try:
        code = compile(source, f"<codegen:{tag or 'trace'}>", "exec")
    except SyntaxError as exc:               # pragma: no cover - render bug
        raise CodegenError(
            f"generated source failed to compile: {exc}") from exc
    module_ns: dict = {}
    exec(code, module_ns)
    kernel = module_ns["_build"](ns)

    _SOURCE_LOG.append({
        "tag": tag or "trace",
        "ops": n,
        "inlined": len(inline),
        "buffers": len(buffered),
        "source": source,
    })
    return kernel, source
