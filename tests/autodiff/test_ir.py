"""Op-graph IR: registry invariants, trace recording, epoch invalidation."""

import numpy as np
import pytest

from repro.autodiff import (
    OPS,
    CompiledFunction,
    OpSpec,
    Tensor,
    bump_graph_epoch,
    get_executor,
    gradcheck,
    graph_epoch,
    set_executor,
    time_tensor,
)
from repro.autodiff import codegen
from repro.autodiff.ir import (
    UNREPLAYABLE,
    TraceRecorder,
    active_recorder,
    next_node_id,
    register_op,
    set_recorder,
)


class TestOpRegistry:
    def test_every_spec_is_keyed_by_its_opcode(self):
        for opcode, spec in OPS.items():
            assert isinstance(spec, OpSpec)
            assert spec.opcode == opcode

    def test_differentiable_ops_have_backward_rules(self):
        for spec in OPS.values():
            if spec.differentiable:
                assert spec.backward is not None, spec.opcode

    def test_nondifferentiable_ops_have_no_backward(self):
        for spec in OPS.values():
            if not spec.differentiable:
                assert spec.backward is None, spec.opcode

    def test_escape_hatches_are_unreplayable(self):
        assert "custom" in UNREPLAYABLE
        assert "replay" in UNREPLAYABLE
        for opcode in UNREPLAYABLE:
            assert opcode in OPS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_op("add", lambda ins, at: ins[0], None)

    @pytest.mark.parametrize("opcode", sorted(
        op for op, spec in OPS.items() if spec.emit is not None))
    def test_render_rules_match_forward(self, opcode):
        """Each codegen render rule repeats its forward rule bit for bit.

        A drifted rule would fail the kernel's validation bit-compare and
        silently pin every trace using the op to eager; this names it."""
        spec = OPS[opcode]
        for ins, attrs in _render_cases()[opcode]:
            with np.errstate(all="ignore"):
                want = np.asarray(spec.forward(ins, attrs))
                got = _eval_render(spec, ins, attrs)
                assert _bits(got) == _bits(want), (opcode, attrs)
                if spec.emit_out is not None:
                    buf = _eval_render(spec, ins, attrs, into=want.shape)
                    assert _bits(buf) == _bits(want.astype(np.float64)), \
                        (opcode, attrs)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _eval_render(spec, ins, attrs, into=None):
    """Render ``spec.emit`` (or ``emit_out`` into a fresh buffer of shape
    ``into``) over named arguments and evaluate it as a kernel would."""
    ns = dict(codegen._BASE_NS)
    args = []
    for k, arr in enumerate(ins):
        ns[f"a{k}"] = arr
        args.append(f"a{k}")

    def const(obj):
        name = f"c{len(ns)}"
        ns[name] = obj
        return name

    if into is None:
        return eval(spec.emit(args, attrs, const), ns)
    ns["out"] = np.empty(into)
    exec(spec.emit_out(args, attrs, const, "out"), ns)
    return ns["out"]


def _render_cases() -> dict:
    """Inputs and attrs per opcode: broadcast shapes, signed zeros (ties
    of ``0.0`` against ``-0.0`` tell ``>=`` from ``>``) and values past
    the sigmoid clip."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    a[0, :3] = (-0.0, 0.0, -0.0)
    b = rng.standard_normal((3, 4))
    b[0, :3] = (0.0, -0.0, -0.0)
    row = rng.standard_normal(4)
    col = rng.standard_normal((3, 1))
    tie = a.copy()
    tie[1] = b[1]
    big = np.array([-80.0, -60.5, -0.0, 0.0, 0.5, 60.5, 80.0])
    cube = rng.standard_normal((2, 3, 4))
    square = a @ a.T + 3.0 * np.eye(3)

    binary = [((a, b), None), ((a, row), None), ((col, a), None),
              ((a, tie), None), ((big, big[::-1]), None)]
    unary = [((a,), None), ((big,), None)]
    cases = {op: binary for op in (
        "add", "sub", "mul", "div", "greater", "less", "greater_equal",
        "less_equal", "maximum", "minimum")}
    cases.update({op: unary for op in (
        "neg", "exp", "log", "sqrt", "tanh", "sigmoid", "relu",
        "softplus", "abs", "sin", "cos")})
    reductions = [((cube,), {"axis": axis, "keepdims": keepdims})
                  for axis in (None, 0, -1, (0, 2))
                  for keepdims in (False, True)]
    cases.update({
        "pow": [((x,), {"exponent": e}) for x in (a, big)
                for e in (2, 0.5, -1, 3)],
        "clip": [((a,), {"lo": -0.5, "hi": 0.5}),
                 ((big,), {"lo": -60.0, "hi": 60.0})],
        "matmul": [((a, b.T), None), ((cube, b.T), None),
                   ((row, b.T), None), ((a, row), None)],
        "amax_const": [((cube,), {"axis": -1}), ((cube,), {"axis": 0})],
        "reshape": [((a,), {"shape": (4, 3)}), ((cube,), {"shape": (-1,)})],
        "transpose": [((cube,), {"axis0": 0, "axis1": 2}),
                      ((row,), {"axis0": None, "axis1": None})],
        "permute": [((cube,), {"axes": (2, 0, 1), "inverse": (1, 2, 0)})],
        "getitem": [((a,), {"index": (slice(None), 1)}),
                    ((cube,), {"index": (Ellipsis, None, slice(0, 4, 2))}),
                    ((a,), {"index": ([0, 2, 2],)}),
                    ((a,), {"index": a > 0}),
                    ((cube,), {"index": (np.array([1, 0]), slice(1, 3))})],
        "broadcast_to": [((row,), {"shape": (3, 4)}),
                         ((col,), {"shape": (2, 3, 4)})],
        "sum": reductions,
        "max": reductions,
        "inv": [((square,), None), ((np.stack([square, 2.0 * square]),),
                                    None)],
        "pinv": [((a,), {"rcond": 1e-15}), ((cube,), {"rcond": 1e-10})],
        "concat": [((a, b, a), {"axis": 0, "splits": [3, 6]}),
                   ((a, col), {"axis": 1, "splits": [4]})],
        "stack": [((a, b), {"axis": 0}), ((a, b, tie), {"axis": -1})],
        "where": [((a > 0, a, b), None), ((a > b, row, col), None)],
    })
    return cases


class TestNodeIds:
    def test_ids_are_monotonic(self):
        a = next_node_id()
        b = next_node_id()
        assert b > a

    def test_tensor_ops_get_increasing_ids(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        z = y + 1.0
        assert z._node.id > y._node.id


@pytest.fixture
def replay_mode():
    prev = get_executor()
    set_executor("replay")
    yield
    set_executor(prev)


class TestGraphEpoch:
    def test_bump_increments(self):
        before = graph_epoch()
        assert bump_graph_epoch() == before + 1

    def test_bump_clears_compiled_cache(self, replay_mode):
        cf = CompiledFunction(lambda t, y: y * 2.0)
        cf.entries[(1,)] = ("ready", object())
        bump_graph_epoch()
        cf(0.0, Tensor(np.zeros(1)))   # Tensor input notices the epoch
        # the stale key is gone; only the freshly traced key remains
        assert (1,) not in cf.entries
        assert cf.entries


class TestTraceRecorder:
    def _trace(self, fn, y):
        rec = TraceRecorder()
        rec.mark_input(y, "y")
        set_recorder(rec)
        try:
            out = fn(y)
        finally:
            set_recorder(None)
        return rec, out

    def test_refs_classify_inputs_buffers_and_externals(self):
        w = Tensor(np.full((1, 3), 2.0), name="w")
        y = Tensor(np.ones((1, 3)))
        rec, out = self._trace(lambda y: (y * w) + 1.0, y)
        assert rec.failed is None
        assert [op.opcode for op in rec.ops] == ["mul", "add"]
        mul, add = rec.ops
        assert mul.refs[0] == ("in", 0)          # the marked y slot
        assert mul.refs[1] == ("ext", 0)         # captured parameter
        assert rec.externals[0] is w
        assert add.refs[0] == ("buf", 0)         # the mul's output
        assert rec.output_ref(out) == ("buf", 1)

    def test_time_tensor_marks_an_input_slot(self):
        rec = TraceRecorder()
        set_recorder(rec)
        try:
            time_tensor(0.25, (2, 1))
        finally:
            set_recorder(None)
        assert rec.inputs == [("t", (2, 1), False)]

    def test_custom_op_fails_the_trace(self):
        y = Tensor(np.ones(2))
        def fn(y):
            doubled = y * 2.0
            return Tensor._make_custom(doubled.data, (doubled,),
                                       lambda g: (g,), force_grad=True)
        rec, _ = self._trace(fn, y)
        assert rec.failed is not None
        assert "custom" in rec.failed

    def test_recorder_not_left_installed(self):
        assert active_recorder() is None


class TestPowBoundaryGradients:
    """x**0 and x**1 must not manufacture inf/nan gradients at x == 0."""

    def test_pow_zero_gradient_is_zero_at_zero(self):
        x = Tensor(np.array([0.0, -1.0, 2.0]), requires_grad=True)
        (x ** 0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_pow_one_gradient_is_one_at_zero(self):
        x = Tensor(np.array([0.0, -3.0, 0.5]), requires_grad=True)
        (x ** 1).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_pow_boundary_gradchecks(self):
        pts = np.array([0.0, 1e-3, -2.0, 4.0])
        assert gradcheck(lambda x: (x ** 1).sum(), [pts])
        assert gradcheck(lambda x: (x ** 0).sum(), [pts])

    def test_generic_exponent_untouched(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (x ** 3).sum().backward()
        np.testing.assert_allclose(x.grad, 3.0 * np.array([2.0, 3.0]) ** 2)


class TestDetach:
    def test_detach_preserves_name(self):
        t = Tensor(np.ones(2), requires_grad=True, name="weights")
        d = t.detach()
        assert d.name == "weights"
        assert d.requires_grad is False
        assert d._node is None
