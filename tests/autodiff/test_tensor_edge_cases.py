"""Edge-case coverage for the autodiff engine."""

import dataclasses

import numpy as np
import pytest

from repro.autodiff import (OPS, CompiledFunction, Tensor, concat, einsum,
                            get_executor, gradcheck, no_grad, set_executor,
                            stack)


class TestScalarAndEmpty:
    def test_scalar_tensor_arithmetic(self):
        t = Tensor(3.0, requires_grad=True)
        (t * t + 1.0).backward()
        np.testing.assert_allclose(t.grad, 6.0)

    def test_zero_size_axis_sum(self):
        t = Tensor(np.zeros((0, 3)))
        assert t.sum().item() == 0.0

    def test_single_element_softmax(self):
        from repro.autodiff import softmax
        p = softmax(Tensor(np.array([[5.0]]))).data
        np.testing.assert_allclose(p, [[1.0]])


class TestDeepGraphs:
    def test_long_chain_no_recursion_error(self):
        """backward() is iterative: a 5000-op chain must not blow the
        Python recursion limit."""
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert np.isfinite(x.grad[0])

    def test_wide_fanout(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        total = x * 0.0
        for _ in range(200):
            total = total + x * 0.01
        total.backward()
        np.testing.assert_allclose(x.grad, [2.0], atol=1e-12)


class TestDtypeCoercion:
    def test_integer_input_becomes_float64(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype == np.float64

    def test_list_input(self):
        t = Tensor([[1.0, 2.0]])
        assert t.shape == (1, 2)

    def test_tensor_of_tensor_shares_nothing_bad(self):
        a = Tensor(np.ones(3))
        b = Tensor(a)
        np.testing.assert_array_equal(a.data, b.data)


class TestMixedGradRequirements:
    def test_constant_branch_gets_no_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)))  # constant
        (a * b).sum().backward()
        assert a.grad is not None and b.grad is None

    def test_concat_mixed_requirements(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)))
        concat([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        assert b.grad is None

    def test_stack_inside_no_grad_is_constant(self, rng):
        a = Tensor(rng.normal(size=(2,)), requires_grad=True)
        with no_grad():
            out = stack([a, a], axis=0)
        assert not out.requires_grad


class TestNumericalCorners:
    def test_log_of_tiny_positive(self):
        t = Tensor(np.array([1e-300]), requires_grad=True)
        out = t.log()
        assert np.isfinite(out.data[0])

    def test_division_gradient_near_zero_denominator(self):
        # not at zero, but small: gradients must still be exact
        gradcheck(lambda a, b: (a / b).sum(),
                  [np.array([1.0]), np.array([0.05])])

    def test_einsum_zero_result_gradients(self, rng):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)))
        einsum("ij,jk->ik", a, b).sum().backward()
        # gradient of sum(AB) wrt A is ones @ B^T regardless of A's value
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.data.T)

    def test_repr_contains_shape(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True, name="weights")
        text = repr(t)
        assert "(2, 3)" in text and "weights" in text


def _out_of_place_fold(root, grad, leaves):
    """Reference backward: ``Tensor.backward``'s walk with every sum
    allocating ``a + b``.  Returns each leaf's gradient."""
    interior, seen, stack_ = [], set(), [root]
    while stack_:
        t = stack_.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._node is not None:
            interior.append(t)
            stack_.extend(p for p in t._node.parents if p.requires_grad)
    interior.sort(key=lambda t: t._node.id, reverse=True)
    grads = {id(root): grad}
    for t in interior:
        g = grads.pop(id(t), None)
        if g is None:
            continue
        node = t._node
        parts = OPS[node.opcode].backward(
            g, tuple(p.data for p in node.parents), node.out, node.attrs,
            tuple(p.requires_grad for p in node.parents))
        for parent, pgrad in zip(node.parents, parts):
            if pgrad is None or not parent.requires_grad:
                continue
            for part in pgrad if type(pgrad) is list else [pgrad]:
                key = id(parent)
                grads[key] = grads[key] + part if key in grads else part
    return [grads.get(id(leaf)) for leaf in leaves]


def _forward_arrays(root):
    """Every array the forward pass produced or read, reachable from
    ``root``: node outputs and parent data."""
    arrays, seen, stack_ = [], set(), [root]
    while stack_:
        t = stack_.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        arrays.append(t.data)
        if t._node is not None:
            arrays.append(t._node.out)
            stack_.extend(t._node.parents)
    return arrays


@pytest.fixture
def returned_grads(monkeypatch):
    """Record every gradient a backward rule returns, with a copy."""
    seen = []
    for opcode, spec in list(OPS.items()):
        if spec.backward is None:
            continue

        def rule(g, ins, out, at, needs, _rule=spec.backward):
            result = _rule(g, ins, out, at, needs)
            for pgrad in result:
                for part in pgrad if type(pgrad) is list else [pgrad]:
                    if part is not None:
                        seen.append((part, np.array(part)))
            return result

        monkeypatch.setitem(OPS, opcode,
                            dataclasses.replace(spec, backward=rule))
    return seen


class TestInPlaceAccumulation:
    """``Tensor.backward`` adds a parent's third and later gradient
    contributions in place into the buffer it allocated for the second.
    Gradients must stay bitwise those of the allocating fold, and no
    forward array or rule-returned gradient may change."""

    def _check(self, root, leaves, returned_grads, reference=None):
        rng = np.random.default_rng(0)
        g = rng.normal(size=root.shape)
        forward = [(a, a.copy()) for a in _forward_arrays(root)]
        if reference is None:
            reference = _out_of_place_fold(root, g, leaves)
        del returned_grads[:]
        root.backward(g)
        for leaf, ref in zip(leaves, reference):
            np.testing.assert_array_equal(leaf.grad, ref)
        for array, copy in forward + returned_grads:
            np.testing.assert_array_equal(array, copy)

    def test_same_operand_twice(self, rng, returned_grads):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = (x + x) * x + x * x
        self._check(out, [x], returned_grads)

    def test_shared_sum_feeds_both_operands(self, rng, returned_grads):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        s = x + y
        out = s * s + s - s / (y * y + 1.0)
        self._check(out, [x, y], returned_grads)

    def test_views_fed_back_in(self, rng, returned_grads):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = x.transpose().transpose()
        c = x.reshape(-1).reshape(3, 4)
        out = (b + c + x) * (x + b) + x[:, 1:2] * c
        self._check(out, [x], returned_grads)

    def test_scalar_leaf(self, returned_grads):
        x = Tensor(2.0, requires_grad=True)
        out = x * x * x + x
        self._check(out, [x], returned_grads)

    def test_replay_fat_node_parts(self, rng, returned_grads):
        """Two chained replayed calls, each reading ``w`` and ``y`` twice:
        the fat nodes' list parts accumulate in place, and the result is
        bitwise the allocating fold over the same eager graph."""
        y_np = rng.normal(size=(4, 6))
        w_np = rng.normal(size=(4, 6))

        def build(mode):
            prev = get_executor()
            set_executor(mode)
            try:
                w = Tensor(w_np.copy(), requires_grad=True)

                def f(t, y):
                    return (y * w).tanh() * w + y * 0.3

                fn = CompiledFunction(f) if mode == "replay" else f
                warm = Tensor(y_np.copy(), requires_grad=True)
                fn(0.0, warm)                   # trace
                fn(0.1, warm)                   # validate
                y0 = Tensor(y_np.copy(), requires_grad=True)
                y1 = fn(0.2, y0)
                y2 = fn(0.3, y1)
                return y2 + y1 * y1 + w, [w, y0], y2
            finally:
                set_executor(prev)

        eager_root, eager_leaves, _ = build("eager")
        g = np.random.default_rng(0).normal(size=eager_root.shape)
        reference = _out_of_place_fold(eager_root, g, eager_leaves)
        root, leaves, y2 = build("replay")
        assert y2._node.opcode == "replay"
        self._check(root, leaves, returned_grads, reference)
