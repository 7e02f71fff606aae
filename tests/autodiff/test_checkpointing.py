"""Trace-checkpointed backprop (REPRO_CHECKPOINT_GRADS=on).

Checkpointed frames store only the step input; the backward pass re-runs
the forward schedule to rebuild intermediates.  Because the recompute
follows the exact optimized schedule the forward took, gradients must be
**bit-identical** to the uncheckpointed replay — and therefore to eager.
Tolerances are banned in this file.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autodiff import (
    CompiledFunction,
    Tensor,
    get_checkpoint_grads,
    get_codegen,
    get_executor,
    reset_tape_stats,
    set_checkpoint_grads,
    set_codegen,
    set_executor,
    tape_stats,
)
from repro.nn import Linear, Module
from repro.odeint import SolverOptions, solve
from repro.telemetry import get_registry

_floats = st.floats(min_value=-2.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False)


@pytest.fixture
def replay_mode():
    prev = get_executor()
    set_executor("replay")
    yield
    set_executor(prev)


@pytest.fixture
def ckpt_on(replay_mode):
    prev = get_checkpoint_grads()
    set_checkpoint_grads("on")
    yield
    set_checkpoint_grads(prev)


# The executors module caches the process-wide registry object, so tests
# enable/reset it in place rather than swapping it out.
@pytest.fixture
def registry():
    reg = get_registry()
    reg.reset()
    reg.enable()
    yield reg
    reg.disable()
    reg.reset()


class Field(Module):
    def __init__(self, rng, dim):
        super().__init__()
        self.lin = Linear(dim, dim, rng)

    def forward(self, t, y):
        return self.lin(y).tanh() * 0.9


def _chain_grads(dim, batch, steps, *, ckpt, codegen="off", seed=0):
    """Euler-like chain of compiled RHS steps; returns (loss, gy, gparams)."""
    rng = np.random.default_rng(seed)
    field = Field(rng, dim)
    y0 = Tensor(rng.normal(size=(batch, dim)), requires_grad=True)
    prev_exec, prev_ckpt, prev_cg = (get_executor(), get_checkpoint_grads(),
                                     get_codegen())
    set_executor("replay")
    set_checkpoint_grads(ckpt)
    set_codegen(codegen)
    try:
        cf = CompiledFunction(field)
        y = y0
        for i in range(steps):
            y = y + 0.1 * cf(0.1 * i, y)
        loss = (y ** 2).mean()
        loss.backward()
    finally:
        set_executor(prev_exec)
        set_checkpoint_grads(prev_ckpt)
        set_codegen(prev_cg)
    return (loss.item(), y0.grad.copy(),
            [p.grad.copy() for p in field.parameters()])


def _eager_grads(dim, batch, steps, seed=0):
    rng = np.random.default_rng(seed)
    field = Field(rng, dim)
    y0 = Tensor(rng.normal(size=(batch, dim)), requires_grad=True)
    y = y0
    for i in range(steps):
        y = y + 0.1 * field(0.1 * i, y)
    loss = (y ** 2).mean()
    loss.backward()
    return (loss.item(), y0.grad.copy(),
            [p.grad.copy() for p in field.parameters()])


class TestBitIdentity:
    @pytest.mark.parametrize("codegen", ["off", "on"])
    def test_matches_eager_exactly(self, codegen):
        ref = _eager_grads(4, 3, 6)
        got = _chain_grads(4, 3, 6, ckpt="on", codegen=codegen)
        assert got[0] == ref[0]
        np.testing.assert_array_equal(got[1], ref[1])
        for a, b in zip(got[2], ref[2]):
            np.testing.assert_array_equal(a, b)

    def test_matches_uncheckpointed_replay_exactly(self):
        off = _chain_grads(5, 2, 8, ckpt="off")
        on = _chain_grads(5, 2, 8, ckpt="on")
        assert on[0] == off[0]
        np.testing.assert_array_equal(on[1], off[1])
        for a, b in zip(on[2], off[2]):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(1, 6), batch=st.integers(1, 4),
           steps=st.integers(1, 7), seed=st.integers(0, 2**16))
    def test_sweep_shapes_and_depths(self, dim, batch, steps, seed):
        ref = _eager_grads(dim, batch, steps, seed=seed)
        got = _chain_grads(dim, batch, steps, ckpt="on", seed=seed)
        assert got[0] == ref[0]
        np.testing.assert_array_equal(got[1], ref[1])
        for a, b in zip(got[2], ref[2]):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=10, deadline=None)
    @given(y0=arrays(np.float64, (2, 3), elements=_floats))
    def test_sweep_inputs(self, y0):
        prev_exec, prev_ckpt = get_executor(), get_checkpoint_grads()
        set_executor("replay")
        set_checkpoint_grads("on")
        try:
            rng = np.random.default_rng(7)
            field = Field(rng, 3)
            cf = CompiledFunction(field)

            ya = Tensor(y0.copy(), requires_grad=True)
            y = ya
            for i in range(4):
                y = y + 0.1 * cf(0.1 * i, y)
            (y ** 2).mean().backward()
            ga = ya.grad.copy()
            field.zero_grad()

            yb = Tensor(y0.copy(), requires_grad=True)
            y = yb
            for i in range(4):
                y = y + 0.1 * field(0.1 * i, y)
            (y ** 2).mean().backward()
            np.testing.assert_array_equal(ga, yb.grad)
        finally:
            set_executor(prev_exec)
            set_checkpoint_grads(prev_ckpt)


class TestPaperModel:
    """The paper model's parameter gradients under replay, with and
    without checkpointing, equal eager's bit for bit.  Every RHS call
    reads the contexts built from ``Z`` through several ops, and one
    backward spans every call of the solve."""

    @staticmethod
    def _grads(method, executor, ckpt="off"):
        from repro.core import DiffODE, DiffODEConfig

        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.0, 1.0, size=(4, 24)), axis=1)
        values = rng.normal(size=(4, 24, 3))
        mask = np.ones((4, 24))
        prev_exec, prev_ckpt = get_executor(), get_checkpoint_grads()
        set_executor(executor)
        set_checkpoint_grads(ckpt)
        try:
            model = DiffODE(DiffODEConfig(input_dim=3, num_classes=3,
                                          out_dim=None, method=method,
                                          seed=3))
            model.forward_classification(values, times,
                                         mask).sum().backward()
        finally:
            set_executor(prev_exec)
            set_checkpoint_grads(prev_ckpt)
        return {name: p.grad for name, p in model.named_parameters()}

    @pytest.mark.parametrize("method", ["implicit_adams", "rk4", "dopri5"])
    def test_parameter_grads_match_eager(self, method):
        ref = self._grads(method, "eager")
        for ckpt in ("off", "on"):
            got = self._grads(method, "replay", ckpt)
            assert got.keys() == ref.keys()
            for name, grad in ref.items():
                np.testing.assert_array_equal(
                    got[name], grad, err_msg=f"{name}, checkpointing {ckpt}")


class TestModeSwitch:
    def test_rejects_invalid_mode(self):
        with pytest.raises(ValueError, match="checkpoint"):
            set_checkpoint_grads("sometimes")

    def test_default_is_off(self):
        assert get_checkpoint_grads() in ("on", "off")


class TestRebindDetection:
    def test_rebound_parameter_raises(self, ckpt_on):
        rng = np.random.default_rng(3)
        field = Field(rng, 3)
        cf = CompiledFunction(field)
        y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = y
        for i in range(4):
            out = out + 0.1 * cf(0.1 * i, out)
        loss = (out ** 2).mean()
        # Rebinding a parameter's storage between forward and backward
        # would make the recompute diverge from the recorded forward.
        p = next(iter(field.parameters()))
        p.data = p.data.copy()
        with pytest.raises(RuntimeError, match="rebound"):
            loss.backward()

    def test_in_place_update_is_fine_after_backward(self, ckpt_on):
        rng = np.random.default_rng(3)
        field = Field(rng, 3)
        cf = CompiledFunction(field)
        y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = y + 0.1 * cf(0.0, y + 0.1 * cf(0.0, y + 0.1 * cf(0.0, y)))
        (out ** 2).mean().backward()
        assert y.grad is not None


class TestTapeAccounting:
    def test_peak_bytes_drop_under_checkpointing(self, replay_mode):
        reset_tape_stats()
        _chain_grads(6, 4, 12, ckpt="off")
        peak_full = tape_stats()["peak_bytes"]
        reset_tape_stats()
        _chain_grads(6, 4, 12, ckpt="on")
        peak_ckpt = tape_stats()["peak_bytes"]
        assert peak_full > 0 and peak_ckpt > 0
        # Checkpointed frames keep only the (batch, dim) step input; the
        # full frames also hold every non-view intermediate of the trace.
        assert peak_ckpt * 4 <= peak_full

    def test_live_returns_to_zero_after_backward(self, ckpt_on):
        reset_tape_stats()
        _chain_grads(3, 2, 5, ckpt="on")
        stats = tape_stats()
        assert stats["live_bytes"] == 0
        assert stats["peak_bytes"] > 0

    def test_gauges_mirror_tape_stats(self, ckpt_on, registry):
        reset_tape_stats()
        _chain_grads(3, 2, 5, ckpt="on")
        assert (registry.gauge("ir.tape_peak_bytes").value
                == tape_stats()["peak_bytes"])
        assert registry.gauge("ir.tape_live_bytes").value == 0


class TestRecomputeCounters:
    def test_recomputes_match_frames_exactly(self, ckpt_on, registry):
        """rk4 via solve(): every grad-mode replay after trace+validate
        creates one checkpointed frame, and backward recomputes each
        exactly once — 4 RHS calls per accepted step, minus the two
        lifecycle calls that ran eagerly."""
        rng = np.random.default_rng(1)
        field = Field(rng, 3)
        y0 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        sol = solve(field, y0, np.linspace(0.0, 1.0, 6), method="rk4",
                    options=SolverOptions(step_size=0.1))
        (sol.ys ** 2).mean().backward()
        frames = registry.counter("ir.ckpt_frames").value
        assert frames == 4 * sol.stats.steps - 2
        assert registry.counter("ir.ckpt_recomputes").value == frames

    def test_long_series_memory_sublinear(self, ckpt_on, registry):
        """2000-obs synthetic series: checkpointed peak tape bytes stay
        O(steps x step-input), far below the full-frame tape."""
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, 2000)

        def run(ckpt):
            set_checkpoint_grads(ckpt)
            reset_tape_stats()
            field = Field(np.random.default_rng(5), 4)
            y0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
            sol = solve(field, y0, times, method="euler",
                        options=SolverOptions(step_size=1.0))
            (sol.ys ** 2).mean().backward()
            return tape_stats()["peak_bytes"], sol.stats.steps

        peak_full, steps = run("off")
        peak_ckpt, _ = run("on")
        assert steps >= 1999
        # Sub-linear in intermediates: the checkpointed tape is exactly
        # one (2, 4) float64 step input per frame...
        assert peak_ckpt == (steps - 2) * 2 * 4 * 8
        # ...which is at least 4x below the full-frame tape.
        assert peak_ckpt * 4 <= peak_full
        assert registry.counter("ir.ckpt_recomputes").value == steps - 2
