"""Trace-and-replay executor: lifecycle, bit-identity with eager, fallback,
the LRU trace cache, and the generated kernels that serve every validated
no_grad replay."""

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
    recent_sources,
    set_executor,
    time_tensor,
    where,
)
from repro.autodiff import executors as executors_mod
from repro.autodiff.codegen import CodegenError
from repro.core import P_SOLVERS, ContextState, DHSDynamics
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


@pytest.fixture
def counters():
    reg = get_registry()
    reg.reset()
    reg.enable()
    yield reg
    reg.disable()
    reg.reset()


def _mlp_rhs(seed=0):
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.normal(size=(6, 12)))
    b1 = Tensor(rng.normal(size=(12,)))
    w2 = Tensor(rng.normal(size=(12, 6)))

    def f(t, y):
        return (y @ w1 + b1).tanh() @ w2 - y * 0.1

    return f, w1


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

    def test_validate_installs_codegen_state(self, replay_mode):
        calls = []

        def f(t, y):
            calls.append(t)
            return y * 2.0 + 1.0

        cf = CompiledFunction(f)
        y = Tensor(np.ones((2, 3)))
        with no_grad():
            outs = [cf(t, y) for t in (0.0, 0.1, 0.2, 0.3)]
        # trace + validate enter the function; kernel replays do not
        assert calls == [0.0, 0.1]
        (state, _), = cf.entries.values()
        assert state == "codegen"
        for out in outs:
            np.testing.assert_array_equal(out.data, np.full((2, 3), 3.0))

    def test_grad_keys_stay_on_fat_node_replay(self, replay_mode):
        f, w1 = _mlp_rhs()
        w1.requires_grad = True
        cf = CompiledFunction(f)
        y = Tensor(np.ones((2, 6)), requires_grad=True)
        for t in (0.0, 0.1, 0.2):
            out = cf(t, y)
        (state, graph), = cf.entries.values()
        assert state == "ready"
        assert graph.grad_mode
        out.backward(np.ones_like(out.data))
        assert w1.grad is not None and y.grad is not None

    def test_counters_and_source_log(self, replay_mode, counters):
        f, _ = _mlp_rhs()
        cf = CompiledFunction(f)
        y = Tensor(np.ones((2, 6)))
        with no_grad():
            for t in (0.0, 0.1, 0.2, 0.3, 0.4):
                cf(t, y)
        assert counters.counter("ir.codegen_builds").value == 1
        assert counters.counter("ir.codegen_calls").value == 3
        assert counters.counter("ir.codegen_fallbacks").value == 0
        entry = recent_sources()[-1]
        assert "def _kernel(t, y):" in entry["source"]
        assert entry["ops"] > 0

    def test_lowering_failure_pins_key_to_eager(self, replay_mode,
                                                counters, monkeypatch):
        def broken(graph, tag=""):
            raise CodegenError("forced")

        monkeypatch.setattr(executors_mod, "build_codegen", broken)
        calls = []

        def f(t, y):
            calls.append(t)
            return y * 3.0

        cf = CompiledFunction(f)
        y = Tensor(np.ones(3))
        with no_grad():
            outs = [cf(t, y) for t in (0.0, 0.1, 0.2)]
        (state, _), = cf.entries.values()
        assert state == "eager"
        assert calls == [0.0, 0.1, 0.2]     # every call re-enters f
        assert counters.counter("ir.codegen_fallbacks").value == 1
        for out in outs:
            np.testing.assert_array_equal(out.data, np.full(3, 3.0))

    def test_kernel_mismatch_pins_key_to_eager(self, replay_mode,
                                               counters, monkeypatch):
        def wrong(graph, tag=""):
            return (lambda t, y: np.full(y.shape, 42.0)), "bogus"

        monkeypatch.setattr(executors_mod, "build_codegen", wrong)
        calls = []

        def f(t, y):
            calls.append(t)
            return y * 3.0

        cf = CompiledFunction(f)
        y = Tensor(np.ones(3))
        with no_grad():
            outs = [cf(t, y) for t in (0.0, 0.1, 0.2)]
        # the bit-compare at validation rejects the kernel and pins eager
        (state, _), = cf.entries.values()
        assert state == "eager"
        assert calls == [0.0, 0.1, 0.2]
        assert counters.counter("ir.codegen_builds").value == 1
        assert counters.counter("ir.codegen_fallbacks").value == 1
        for out in outs:
            np.testing.assert_array_equal(out.data, np.full(3, 3.0))


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
        w = Tensor(2.0 * np.eye(2))

        def f(t, y):
            # a view of the kernel's persistent matmul buffer
            return (y @ w).reshape(-1)

        cf = CompiledFunction(f)
        with no_grad():
            outs = [cf(float(t), Tensor(np.full((2, 2), t + 1.0)))
                    for t in range(5)]
        for t, out in enumerate(outs):
            np.testing.assert_array_equal(out.data, np.full(4, 2.0 * (t + 1)))

    def test_mixed_op_workload_matches_eager(self, replay_mode):
        rng = np.random.default_rng(3)
        W = Tensor(rng.normal(size=(5, 5)))
        gate = Tensor(rng.normal(size=(4, 5)))
        A = Tensor(rng.normal(size=(5, 5)) + 4.0 * np.eye(5))
        mark_static(A)

        def f(t, y):
            tt = time_tensor(t, (4, 5))
            h = (y @ W + tt).tanh()
            h = where(gate > 0.0, h, h.exp().log())
            inv = Tensor(np.linalg.inv(A.data))   # rebuilt eagerly per call
            return maximum(h @ inv, y * -0.5) - y.sigmoid()

        cf = CompiledFunction(f)
        y = Tensor(rng.normal(size=(4, 5)))
        with no_grad():
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                out = cf(t, y)
                expected = f(t, y)
                np.testing.assert_array_equal(out.data, expected.data)
        (state, _), = cf.entries.values()
        assert state == "codegen"

    def test_inplace_param_update_is_visible(self, replay_mode):
        """Non-static externals are re-read through live ``.data`` per
        call, so an in-place parameter update must show up immediately."""
        f, w1 = _mlp_rhs(seed=7)
        cf = CompiledFunction(f)
        y = Tensor(np.ones((2, 6)))
        with no_grad():
            for t in (0.0, 0.1, 0.2):
                cf(t, y)
            (state, _), = cf.entries.values()
            assert state == "codegen"
            w1.data[...] += 0.25            # optimizer-style in-place step
            out = cf(0.3, y)
            expected = f(0.3, y)
        np.testing.assert_array_equal(out.data, expected.data)

    def test_output_is_writable_and_detached(self, replay_mode):
        cf = CompiledFunction(lambda t, y: y.reshape(6))
        y = Tensor(np.arange(6.0).reshape(2, 3))
        with no_grad():
            for t in (0.0, 0.1, 0.2):
                out = cf(t, y)
        assert not np.shares_memory(out.data, y.data)
        out.data[0] = 99.0                  # solver-style in-place use
        with no_grad():
            again = cf(0.3, y)
        np.testing.assert_array_equal(again.data, np.arange(6.0))


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


def _dead_dup_readback(w):
    def f(t, y):
        a = (y * w).tanh()
        b = (y * w).tanh()                   # duplicate subexpression
        (a @ w.transpose()).exp()            # dead: never reaches the output
        out = a * b + y
        out * 2.0                            # reads the output, then dropped
        return out

    return f


class TestTracesRunAsRecorded:
    """A compiled trace runs every recorded op in trace order: a dead op,
    a duplicate subexpression and an op that reads the output all execute
    in the generated kernel and in the gradient replay, and both must
    still equal eager bit for bit."""

    def test_nograd_kernel_matches_eager(self, replay_mode):
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(3, 4)))
        f = _dead_dup_readback(w)
        cf = CompiledFunction(f)
        ys = [Tensor(rng.normal(size=(3, 4))) for _ in range(4)]
        with no_grad():
            outs = [cf(0.1 * k, y).data.copy() for k, y in enumerate(ys)]
            expected = [f(0.1 * k, y).data for k, y in enumerate(ys)]
        (state, graph), = cf.entries.values()
        assert state == "codegen"
        assert len(graph.ops) == 10          # nothing dropped or merged
        assert graph.out_buf == 8            # op 9 reads the output
        for got, want in zip(outs, expected):
            np.testing.assert_array_equal(got, want)

    def test_grad_replay_matches_eager(self):
        rng = np.random.default_rng(12)
        ys = [rng.normal(size=(3, 4)) for _ in range(4)]
        w_np = rng.normal(size=(3, 4))

        def run(mode):
            prev = get_executor()
            set_executor(mode)
            try:
                w = Tensor(w_np.copy(), requires_grad=True, name="w")
                f = _dead_dup_readback(w)
                fn = CompiledFunction(f) if mode == "replay" else f
                records = []
                for k, y_np in enumerate(ys):
                    y = Tensor(y_np.copy(), requires_grad=True)
                    out = fn(0.1 * k, y)
                    out.sum().backward()
                    records.append((out.data.copy(), y.grad.copy()))
                if mode == "replay":
                    (state, _), = fn.entries.values()
                    assert state == "ready"
                return records, w.grad.copy()
            finally:
                set_executor(prev)

        eager, eager_w = run("eager")
        replay, replay_w = run("replay")
        for (eo, eg), (ro, rg) in zip(eager, replay):
            np.testing.assert_array_equal(eo, ro)
            np.testing.assert_array_equal(eg, rg)
        np.testing.assert_array_equal(eager_w, replay_w)


class TestGradReplayAliasing:
    """Regressions for the grad-path view-alias fix: ``replay_grad`` must
    never hand out a view of live storage (an external's ``.data`` or the
    caller's ``y`` array)."""

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
        """A trace ending in a view of an op that reads only a static
        external: mutating the returned output in place must leave later
        replays bit-identical to eager."""
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


def test_trace_cache_evicts_lru(replay_mode, counters, monkeypatch):
    """The per-function cache keeps the most recently used keys and
    counts each eviction."""
    monkeypatch.setattr(executors_mod, "_CACHE_CAP", 2)
    calls = []

    def f(t, y):
        calls.append(y.data.size)
        return y * 2.0 + 1.0

    cf = CompiledFunction(f)
    with no_grad():
        for size in (2, 3, 4, 5):            # four distinct trace keys
            for t in (0.0, 0.1, 0.2):
                out = cf(t, Tensor(np.ones(size)))
                np.testing.assert_array_equal(out.data, np.full(size, 3.0))
        assert len(cf.entries) == 2
        assert counters.counter("ir.cache_evictions").value == 2
        # the two most recently used keys (sizes 4, 5) survive, so
        # replaying them does not re-enter the traced function
        n_calls = len(calls)
        cf(0.3, Tensor(np.ones(4)))
        cf(0.3, Tensor(np.ones(5)))
    assert len(calls) == n_calls


@settings(max_examples=15, deadline=None)
@given(num_heads=st.sampled_from([1, 2]),
       batch=st.integers(min_value=1, max_value=5),
       p_solver=st.sampled_from(sorted(P_SOLVERS)),
       data=st.data())
def test_replay_matches_eager_forward_and_backward(num_heads, batch,
                                                   p_solver, data):
    """Replay must reproduce eager forward values and gradients bit for
    bit for the DHS dynamics, for 1- and 2-head models, every p-solver,
    across batch sizes (gradients go through the fat-node replay, the
    no_grad forward through the generated kernel)."""
    head_dim, n = 4, 6
    latent = head_dim * num_heads
    rng = np.random.default_rng(17)
    dyn = DHSDynamics(latent, 8, rng, p_solver=p_solver,
                      num_heads=num_heads, max_len=16)
    contexts = [
        ContextState.build(Tensor(data.draw(_arr((batch, n, head_dim)),
                                            label=f"z{h}")),
                           None, ridge=1e-6)
        for h in range(num_heads)
    ]
    s0 = data.draw(_arr((batch, latent)), label="s0")
    out_grad = np.ones((batch, latent))
    params = list(dyn.parameters())

    def run(executor):
        dyn.bind(contexts)                   # fresh epoch per run
        s = Tensor(s0.copy(), requires_grad=True)
        for p in params:
            p.zero_grad()
        if executor == "eager":
            out = dyn(0.3, s)
        else:
            cf = CompiledFunction(dyn)
            cf(0.3, s)                       # trace
            cf(0.3, s)                       # validate
            out = cf(0.3, s)                 # replay -> fat node
        out.backward(out_grad)
        grads = [None if p.grad is None else p.grad.copy()
                 for p in (s, *params)]
        return out.data.copy(), grads

    def run_nograd(executor):
        dyn.bind(contexts)
        s = Tensor(s0.copy())
        with no_grad():
            if executor == "eager":
                return dyn(0.3, s).data.copy()
            cf = CompiledFunction(dyn)
            for _ in range(3):          # trace, validate, kernel
                out = cf(0.3, s)
            return out.data.copy()

    prev_exec = get_executor()
    try:
        set_executor("eager")
        out_eager, grads_eager = run("eager")
        ng_eager = run_nograd("eager")
        set_executor("replay")
        out_replay, grads_replay = run("replay")
        ng_replay = run_nograd("replay")
    finally:
        set_executor(prev_exec)

    np.testing.assert_array_equal(out_eager, out_replay)
    np.testing.assert_array_equal(ng_eager, ng_replay)
    assert len(grads_eager) == len(grads_replay)
    for ge, gr in zip(grads_eager, grads_replay):
        assert (ge is None) == (gr is None)
        if ge is not None:
            np.testing.assert_array_equal(ge, gr)
