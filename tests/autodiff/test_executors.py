"""Trace-and-replay executor: lifecycle, bit-identity with eager, fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autodiff import (
    CompiledFunction,
    Tensor,
    get_executor,
    mark_static,
    maximum,
    maybe_compile,
    no_grad,
    set_executor,
    time_tensor,
    where,
)
from repro.telemetry import get_registry

_floats = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)


def _arr(shape):
    return arrays(np.float64, shape, elements=_floats)


@pytest.fixture
def replay_mode():
    prev = get_executor()
    set_executor("replay")
    yield
    set_executor(prev)


class TestLifecycle:
    def test_trace_validate_then_replay(self, replay_mode):
        calls = []

        def f(t, y):
            calls.append(t)
            return y * 2.0 + 1.0

        cf = CompiledFunction(f)
        y = Tensor(np.ones((2, 3)))
        outs = [cf(t, y) for t in (0.0, 0.1, 0.2, 0.3)]
        # trace + validate enter the Python function; replays do not
        assert calls == [0.0, 0.1]
        for out in outs:
            np.testing.assert_array_equal(out.data, np.full((2, 3), 3.0))

    def test_maybe_compile_is_identity_under_eager(self):
        prev = get_executor()
        set_executor("eager")
        try:
            f = lambda t, y: y
            assert maybe_compile(f) is f
        finally:
            set_executor(prev)

    def test_maybe_compile_caches_wrapper(self, replay_mode):
        def f(t, y):
            return y

        w1 = maybe_compile(f)
        w2 = maybe_compile(f)
        assert isinstance(w1, CompiledFunction)
        assert w1 is w2
        assert maybe_compile(w1) is w1

    def test_validation_mismatch_pins_key_to_eager(self, replay_mode):
        calls = []

        def f(t, y):
            # time baked in as a python float: invisible to the recorder
            calls.append(t)
            return y + Tensor(np.full(y.data.shape, float(t)))

        cf = CompiledFunction(f)
        y = Tensor(np.ones((1, 2)))
        for t in (0.0, 0.5, 1.0, 2.0):
            out = cf(t, y)
            np.testing.assert_array_equal(out.data, 1.0 + np.full((1, 2), t))
        # every call re-entered the function: the key is pinned to eager
        assert calls == [0.0, 0.5, 1.0, 2.0]
        (state, reason), = [v for v in cf.entries.values()]
        assert state == "eager"

    def test_custom_node_pins_key_to_eager(self, replay_mode):
        def f(t, y):
            z = y * 2.0
            return Tensor._make_custom(z.data, (z,), lambda g: (g,),
                                       force_grad=True)

        cf = CompiledFunction(f)
        y = Tensor(np.ones(3))
        for _ in range(3):
            np.testing.assert_array_equal(cf(0.0, y).data, np.full(3, 2.0))
        (state, reason), = [v for v in cf.entries.values()]
        assert state == "eager"

    def test_counters(self, replay_mode):
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            cf = CompiledFunction(lambda t, y: y * 3.0)
            y = Tensor(np.ones((2, 2)))
            for t in (0.0, 0.1, 0.2, 0.3, 0.4):
                cf(t, y)
            assert reg.counter("ir.trace_builds").value == 1
            assert reg.counter("ir.replay_misses").value == 2
            assert reg.counter("ir.replay_hits").value == 3
        finally:
            reg.disable()
            reg.reset()

    def test_shape_change_builds_second_trace(self, replay_mode):
        calls = []

        def f(t, y):
            calls.append(y.data.shape)
            return y * 2.0

        cf = CompiledFunction(f)
        for _ in range(3):
            cf(0.0, Tensor(np.ones((2, 2))))
        for _ in range(3):
            cf(0.0, Tensor(np.ones((4, 2))))
        assert calls == [(2, 2), (2, 2), (4, 2), (4, 2)]
        assert len(cf.entries) == 2


class TestNoGradReplay:
    def test_buffered_replay_matches_eager(self, replay_mode):
        w = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3))

        def f(t, y):
            tt = time_tensor(t, y.data.shape)
            return ((y * w + tt).tanh() * y).exp().log() - y

        y_np = np.arange(6.0).reshape(2, 3) / 7.0
        with no_grad():
            cf = CompiledFunction(f)
            outs = [cf(t, Tensor(y_np)) for t in (0.0, 0.3, 0.7, 0.9)]
            set_executor("eager")
            expected = [f(t, Tensor(y_np)) for t in (0.0, 0.3, 0.7, 0.9)]
        for got, want in zip(outs, expected):
            np.testing.assert_array_equal(got.data, want.data)

    def test_escaping_outputs_survive_later_replays(self, replay_mode):
        def f(t, y):
            return (y * 2.0).reshape(-1)   # view op terminates the trace

        cf = CompiledFunction(f)
        with no_grad():
            outs = [cf(float(t), Tensor(np.full((2, 2), t + 1.0)))
                    for t in range(5)]
        for t, out in enumerate(outs):
            np.testing.assert_array_equal(out.data, np.full(4, 2.0 * (t + 1)))


class TestBitIdentity:
    """Eager and replay must agree bit for bit: values and leaf grads."""

    def _run(self, mode, f, y_np, params, times):
        prev = get_executor()
        set_executor(mode)
        try:
            for p in params:
                p.grad = None
            fn = CompiledFunction(f) if mode == "replay" else f
            records = []
            for t in times:
                y = Tensor(y_np.copy(), requires_grad=True)
                out = fn(t, y)
                out.sum().backward()
                records.append((out.data.copy(), y.grad.copy()))
            return records, [p.grad.copy() for p in params]
        finally:
            set_executor(prev)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_replay_matches_eager_bitwise(self, data):
        rows = data.draw(st.integers(1, 4), label="rows")
        cols = data.draw(st.integers(1, 4), label="cols")
        y_np = data.draw(_arr((rows, cols)), label="y")
        # broadcastable parameter shapes
        w_shape = data.draw(st.sampled_from(
            [(rows, cols), (1, cols), (rows, 1), (1, 1)]), label="w_shape")
        w_np = data.draw(_arr(w_shape), label="w")
        if data.draw(st.booleans(), label="tie"):
            b_np = y_np.copy()          # force maximum/where ties
        else:
            b_np = data.draw(_arr((rows, cols)), label="b")

        w = Tensor(w_np, requires_grad=True, name="w")
        b = Tensor(b_np, requires_grad=True, name="b")

        def f(t, y):
            tt = time_tensor(t, (rows, cols))
            z = y * w + tt
            m = maximum(y, b)
            s = where(y > b, z, m * 0.5)
            return (s + z.tanh()).sum(axis=1, keepdims=True) + y * 0.0

        times = (0.0, 0.5, 0.5, 0.25)
        eager, eager_p = self._run("eager", f, y_np, (w, b), times)
        replay, replay_p = self._run("replay", f, y_np, (w, b), times)
        for (eo, eg), (ro, rg) in zip(eager, replay):
            np.testing.assert_array_equal(eo, ro)
            np.testing.assert_array_equal(eg, rg)
        for ep, rp in zip(eager_p, replay_p):
            np.testing.assert_array_equal(ep, rp)

    def test_shared_backward_sums_like_eager(self):
        """Two replayed calls backpropagated together, each reading the
        external ``w`` and its input twice: every tensor's gradient must
        add its contributions one at a time in eager's order, not summed
        per call first."""
        rng = np.random.default_rng(5)
        y_np = rng.normal(size=(4, 6))
        w_np = rng.normal(size=(4, 6))

        def run(mode):
            prev = get_executor()
            set_executor(mode)
            try:
                w = Tensor(w_np.copy(), requires_grad=True, name="w")

                def f(t, y):
                    return (y * w).tanh() * w + y * 0.3

                fn = CompiledFunction(f) if mode == "replay" else f
                warm = Tensor(y_np.copy(), requires_grad=True)
                fn(0.0, warm)                   # trace
                fn(0.1, warm)                   # validate
                y0 = Tensor(y_np.copy(), requires_grad=True)
                y1 = fn(0.2, y0)
                y2 = fn(0.3, y1)
                (y2 + y1 * y1).sum().backward()
                return w.grad.copy(), y0.grad.copy()
            finally:
                set_executor(prev)

        eager_w, eager_y = run("eager")
        replay_w, replay_y = run("replay")
        np.testing.assert_array_equal(eager_w, replay_w)
        np.testing.assert_array_equal(eager_y, replay_y)


class TestGradReplayAliasing:
    """Regressions for the grad-path view-alias fix: ``replay_grad`` must
    never hand out a view of live storage (an external's ``.data``, the
    caller's ``y`` array, or a memoized prefix array)."""

    def test_grad_output_never_views_external(self, replay_mode):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)

        def f(t, y):
            return w.transpose(0, 1)

        cf = CompiledFunction(f)
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        expected = np.arange(6.0).reshape(2, 3).T
        for t in (0.0, 0.1, 0.2):
            out = cf(t, y)                   # third call: fat-node replay
        assert not np.shares_memory(out.data, w.data)
        out.data[...] = -99.0                # must not corrupt the param
        np.testing.assert_array_equal(w.data,
                                      np.arange(6.0).reshape(2, 3))
        later = cf(0.3, y)
        np.testing.assert_array_equal(later.data, expected)
        np.testing.assert_array_equal(f(0.3, y).data, expected)

    def test_grad_output_never_views_input(self, replay_mode):
        def f(t, y):
            return y.transpose(0, 1)

        cf = CompiledFunction(f)
        y = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        for t in (0.0, 0.1, 0.2):
            out = cf(t, y)
        assert not np.shares_memory(out.data, y.data)
        out.data[...] = -1.0
        np.testing.assert_array_equal(y.data,
                                      np.arange(6.0).reshape(2, 3))

    def test_mutating_grad_output_keeps_later_replays_eager(
            self, replay_mode):
        """A trace ending in a view of a hoisted (memoized-prefix) op must
        return a copy: mutating it in place must leave later replays
        bit-identical to eager."""
        A = Tensor(np.arange(6.0).reshape(2, 3))
        mark_static(A)

        def f(t, y):
            return (A * 2.0).transpose(0, 1)

        cf = CompiledFunction(f)
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        expected = (np.arange(6.0).reshape(2, 3) * 2.0).T
        for t in (0.0, 0.1, 0.2):
            out = cf(t, y)
        np.testing.assert_array_equal(out.data, expected)
        out.data[...] = 7.0                  # caller scribbles on it
        later = cf(0.3, y)
        np.testing.assert_array_equal(later.data, expected)
        np.testing.assert_array_equal(f(0.3, y).data, expected)
