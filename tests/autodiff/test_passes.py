"""Optimizing pass pipeline: plan_trace unit tests, bit-identity with
eager under both pass modes, prefix memoization, and the LRU trace cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autodiff import (
    CompiledFunction,
    Tensor,
    get_codegen,
    get_executor,
    get_ir_passes,
    get_trace_cache_cap,
    mark_static,
    no_grad,
    plan_trace,
    set_codegen,
    set_executor,
    set_ir_passes,
    set_trace_cache_cap,
)
from repro.autodiff.passes import UNHASHABLE, canonical_attrs
from repro.core import P_SOLVERS, ContextState, DHSDynamics
from repro.telemetry import get_registry

_floats = st.floats(min_value=-2.0, max_value=2.0,
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
def default_passes():
    """Pin the pass pipeline on: the ir test lane also runs this suite
    with REPRO_IR_PASSES=none, where hoisting is legitimately absent."""
    prev = get_ir_passes()
    set_ir_passes("default")
    yield
    set_ir_passes(prev)


@pytest.fixture
def counters():
    reg = get_registry()
    reg.reset()
    reg.enable()
    yield reg
    reg.disable()
    reg.reset()


# ---------------------------------------------------------------------------
# plan_trace unit tests (duck-typed ops: plan_trace reads opcode/refs/attrs)
# ---------------------------------------------------------------------------

class FakeOp:
    def __init__(self, opcode, refs, attrs=None):
        self.opcode = opcode
        self.refs = tuple(refs)
        self.attrs = attrs


class FakeExt:
    def __init__(self, data):
        self.data = data


class TestPlanTrace:
    def _graph(self):
        """%0 = mul(e0, e0)   invariant (e0 static)
        %1 = mul(e0, e0)      CSE dup of %0
        %2 = add(%0, in0)     body
        %3 = add(%1, in0)     CSE dup of %2 after remap
        %4 = add(%2, %3)      output; refs remap to (%2, %2)
        %5 = neg(%0)          dead
        """
        ops = [
            FakeOp("mul", [("ext", 0), ("ext", 0)]),
            FakeOp("mul", [("ext", 0), ("ext", 0)]),
            FakeOp("add", [("buf", 0), ("in", 0)]),
            FakeOp("add", [("buf", 1), ("in", 0)]),
            FakeOp("add", [("buf", 2), ("buf", 3)]),
            FakeOp("neg", [("buf", 0)]),
        ]
        exts = [FakeExt(np.ones(2))]
        return ops, exts

    def test_dce_cse_hoist(self):
        ops, exts = self._graph()
        plan = plan_trace(ops, exts, [True], out_buf=4, mode="default")
        assert plan.stats.dce_removed == 1
        assert plan.stats.cse_merged == 2
        assert plan.prefix == [0]
        assert plan.body == [2, 4]
        assert plan.alias_fills == [(1, 0), (3, 2)]
        assert plan.out_slot == 4
        assert plan.refs[4] == (("buf", 2), ("buf", 2))
        assert plan.refs[5] is None          # dead: never executes
        assert plan.refs[1] is None          # merged: never executes

    def test_non_static_ext_stays_in_body(self):
        ops, exts = self._graph()
        plan = plan_trace(ops, exts, [False], out_buf=4, mode="default")
        assert plan.prefix == []
        assert 0 in plan.body
        # CSE still fires: ext numbering falls back to the ext slot.
        assert plan.stats.cse_merged == 2

    def test_static_handles_on_same_data_merge(self):
        data = np.ones(3)
        ops = [
            FakeOp("neg", [("ext", 0)]),
            FakeOp("neg", [("ext", 1)]),
            FakeOp("add", [("buf", 0), ("buf", 1)]),
        ]
        exts = [FakeExt(data), FakeExt(data)]
        plan = plan_trace(ops, exts, [True, True], out_buf=2, mode="default")
        assert plan.stats.cse_merged == 1
        assert plan.refs[2] == (("buf", 0), ("buf", 0))

    def test_differing_attrs_do_not_merge(self):
        ops = [
            FakeOp("getitem", [("ext", 0)], {"index": 0}),
            FakeOp("getitem", [("ext", 0)], {"index": 1}),
            FakeOp("add", [("buf", 0), ("buf", 1)]),
        ]
        plan = plan_trace(ops, [FakeExt(np.ones(4))], [True], out_buf=2,
                          mode="default")
        assert plan.stats.cse_merged == 0

    def test_unhashable_attrs_skip_cse_but_still_hoist(self):
        idx = object()
        ops = [
            FakeOp("getitem", [("ext", 0)], {"index": idx}),
            FakeOp("getitem", [("ext", 0)], {"index": idx}),
            FakeOp("add", [("buf", 0), ("buf", 1)]),
        ]
        plan = plan_trace(ops, [FakeExt(np.ones(4))], [True], out_buf=2,
                          mode="default")
        assert plan.stats.cse_merged == 0
        assert plan.prefix == [0, 1, 2]      # whole graph is invariant

    def test_invariance_is_transitive_through_in_slots(self):
        ops = [
            FakeOp("neg", [("in", 0)]),
            FakeOp("add", [("buf", 0), ("ext", 0)]),
            FakeOp("neg", [("buf", 1)]),
        ]
        plan = plan_trace(ops, [FakeExt(np.ones(2))], [True], out_buf=2,
                          mode="default")
        assert plan.prefix == []             # tainted by the "in" slot

    def test_mode_none_is_identity(self):
        ops, exts = self._graph()
        plan = plan_trace(ops, exts, [True], out_buf=4, mode="none")
        assert not plan.stats.enabled
        assert plan.prefix == []
        assert plan.body == list(range(6))
        assert plan.alias_fills == []
        assert plan.out_slot == 4

    def test_empty_trace(self):
        plan = plan_trace([], [], [], out_buf=0, mode="default")
        assert plan.body == []


class TestCanonicalAttrs:
    def test_none_passthrough(self):
        assert canonical_attrs(None) is None

    def test_ndarray_and_slice_are_stable(self):
        a = {"index": slice(0, 3), "w": np.arange(4.0)}
        b = {"w": np.arange(4.0), "index": slice(0, 3)}
        assert canonical_attrs(a) == canonical_attrs(b)

    def test_distinct_arrays_differ(self):
        assert (canonical_attrs({"w": np.arange(4.0)})
                != canonical_attrs({"w": np.arange(4.0) + 1}))

    def test_unhashable_sentinel(self):
        assert canonical_attrs({"index": object()}) is UNHASHABLE


def test_set_ir_passes_rejects_unknown_mode():
    with pytest.raises(ValueError):
        set_ir_passes("aggressive")


# ---------------------------------------------------------------------------
# prefix memoization
# ---------------------------------------------------------------------------

def test_prefix_executes_exactly_once_across_replays(replay_mode,
                                                     default_passes,
                                                     counters):
    """>= 50 replays of a trace with an invariant prefix must evaluate the
    prefix exactly once (the memoized frontier is reused)."""
    a = mark_static(Tensor(np.eye(4) + 0.1, name="a"))

    def f(t, y):
        ainv = (a @ a + a).inv()             # invariant: static ext only
        return y @ ainv + y * 2.0

    cf = CompiledFunction(f)
    y = Tensor(np.ones((3, 4)))
    with no_grad():
        outs = [cf(0.01 * i, y).data.copy() for i in range(52)]
    assert counters.counter("ir.hoisted_ops").value >= 3
    assert counters.counter("ir.hoist_prefix_evals").value == 1
    assert counters.counter("ir.replay_hits").value == 50
    for out in outs[1:]:
        np.testing.assert_array_equal(out, outs[0])


def test_mode_switch_rebuilds_traces(replay_mode, default_passes):
    calls = []
    a = mark_static(Tensor(np.ones((2, 2)), name="a"))

    def f(t, y):
        calls.append(t)
        return y @ a + 1.0

    cf = CompiledFunction(f)
    y = Tensor(np.ones((2, 2)))
    with no_grad():
        for t in (0.0, 0.1, 0.2):
            cf(t, y)
        assert calls == [0.0, 0.1]           # traced + validated, then replay
        set_ir_passes("none")                # bumps the graph epoch
        cf(0.3, y)
        assert calls == [0.0, 0.1, 0.3]      # re-traced under the new mode


# ---------------------------------------------------------------------------
# LRU trace cache
# ---------------------------------------------------------------------------

def test_trace_cache_evicts_lru(replay_mode, counters):
    prev = get_trace_cache_cap()
    set_trace_cache_cap(2)
    # Shrinking the cap also trims any still-alive CompiledFunction caches
    # from earlier tests, so count evictions relative to this baseline.
    base = counters.counter("ir.cache_evictions").value
    try:
        cf = CompiledFunction(lambda t, y: y * 2.0 + 1.0)
        with no_grad():
            for size in (2, 3, 4, 5):        # four distinct trace keys
                for t in (0.0, 0.1, 0.2):
                    out = cf(t, Tensor(np.ones(size)))
                    np.testing.assert_array_equal(out.data,
                                                  np.full(size, 3.0))
        assert len(cf.entries) == 2
        assert counters.counter("ir.cache_evictions").value - base == 2
    finally:
        set_trace_cache_cap(prev)


def test_trace_cache_cap_validation():
    with pytest.raises(ValueError):
        set_trace_cache_cap(0)


def test_lowering_cap_trims_populated_caches_immediately(replay_mode,
                                                         counters):
    """Regression: shrinking the cap must evict from already-populated
    caches at once (counted in ``ir.cache_evictions``), not lazily on the
    next store, and must keep the most recently used entries."""
    prev = get_trace_cache_cap()
    try:
        set_trace_cache_cap(8)
        calls = []

        def f(t, y):
            calls.append(y.data.size)
            return y * 2.0 + 1.0

        cf = CompiledFunction(f)
        with no_grad():
            for size in (2, 3, 4, 5):        # four distinct trace keys
                for t in (0.0, 0.1, 0.2):
                    cf(t, Tensor(np.ones(size)))
        assert len(cf.entries) == 4
        before = counters.counter("ir.cache_evictions").value
        set_trace_cache_cap(2)               # shrink below the population
        assert len(cf.entries) == 2          # trimmed immediately
        assert counters.counter("ir.cache_evictions").value == before + 2
        # LRU order: the two most recently used keys (sizes 4, 5) survive,
        # so replaying them does not re-enter the traced function.
        n_calls = len(calls)
        with no_grad():
            cf(0.3, Tensor(np.ones(4)))
            cf(0.3, Tensor(np.ones(5)))
        assert len(calls) == n_calls
    finally:
        set_trace_cache_cap(prev)


# ---------------------------------------------------------------------------
# bit-identity with eager: DHS dynamics forward + backward, both modes
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(num_heads=st.sampled_from([1, 2]),
       batch=st.integers(min_value=1, max_value=5),
       mode=st.sampled_from(["default", "none"]),
       codegen=st.sampled_from(["on", "off"]),
       p_solver=st.sampled_from(sorted(P_SOLVERS)),
       data=st.data())
def test_replay_matches_eager_forward_and_backward(num_heads, batch, mode,
                                                   codegen, p_solver, data):
    """Optimized replay must reproduce eager forward values and gradients
    bit-for-bit for the DHS dynamics, for 1- and 2-head models, every
    p-solver, across batch sizes, with the pass pipeline on and off, and
    with the codegen backend swept on and off (gradients stay on the
    fat-node replay; the no_grad forward goes through the generated
    kernel when it is on)."""
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
            out = cf(0.3, s)                 # optimized replay -> fat node
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
            for _ in range(3):          # trace, validate, replay/codegen
                out = cf(0.3, s)
            return out.data.copy()

    prev_exec = get_executor()
    prev_mode, prev_cg = get_ir_passes(), get_codegen()
    try:
        set_executor("eager")
        set_ir_passes(mode)
        set_codegen(codegen)
        out_eager, grads_eager = run("eager")
        ng_eager = run_nograd("eager")
        set_executor("replay")
        out_replay, grads_replay = run("replay")
        ng_replay = run_nograd("replay")
    finally:
        set_executor(prev_exec)
        set_ir_passes(prev_mode)
        set_codegen(prev_cg)

    np.testing.assert_array_equal(out_eager, out_replay)
    np.testing.assert_array_equal(ng_eager, ng_replay)
    assert len(grads_eager) == len(grads_replay)
    for ge, gr in zip(grads_eager, grads_replay):
        assert (ge is None) == (gr is None)
        if ge is not None:
            np.testing.assert_array_equal(ge, gr)
