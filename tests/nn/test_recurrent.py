"""GRU / LSTM cell semantics and gradient flow."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, apply, gradcheck, stack, tape_profile
from repro.nn import GRU, GRUCell, LSTMCell


class TestGRUCell:
    def test_output_shape(self, rng):
        cell = GRUCell(3, 5, rng)
        h = cell(Tensor(rng.normal(size=(4, 3))), cell.initial_state(4))
        assert h.shape == (4, 5)

    def test_state_bounded_when_started_at_zero(self, rng):
        cell = GRUCell(3, 5, rng)
        h = cell.initial_state(2)
        for _ in range(20):
            h = cell(Tensor(rng.normal(size=(2, 3))), h)
        assert np.all(np.abs(h.data) <= 1.0 + 1e-9)

    def test_gradcheck_through_two_steps(self, rng):
        cell = GRUCell(2, 3, rng)

        def fn(x):
            h = cell.initial_state(1)
            h = cell(x, h)
            h = cell(x, h)
            return (h ** 2).sum()

        gradcheck(fn, [rng.normal(size=(1, 2))])

    def test_gradients_reach_all_parameters(self, rng):
        cell = GRUCell(2, 3, rng)
        h = cell(Tensor(rng.normal(size=(4, 2))), cell.initial_state(4))
        (h ** 2).sum().backward()
        assert all(p.grad is not None for p in cell.parameters())


class TestLSTMCell:
    def test_output_shapes(self, rng):
        cell = LSTMCell(3, 5, rng)
        h, c = cell(Tensor(rng.normal(size=(4, 3))), cell.initial_state(4))
        assert h.shape == (4, 5) and c.shape == (4, 5)

    def test_hidden_bounded(self, rng):
        cell = LSTMCell(3, 4, rng)
        state = cell.initial_state(2)
        for _ in range(10):
            state = cell(Tensor(rng.normal(size=(2, 3))), state)
        assert np.all(np.abs(state[0].data) <= 1.0 + 1e-9)

    def test_grad_flow(self, rng):
        cell = LSTMCell(2, 3, rng)
        h, c = cell(Tensor(rng.normal(size=(2, 2))), cell.initial_state(2))
        (h.sum() + c.sum()).backward()
        assert all(p.grad is not None for p in cell.parameters())


class TestGRUEncoder:
    def test_sequence_shape(self, rng):
        enc = GRU(3, 6, rng)
        out = enc(Tensor(rng.normal(size=(2, 7, 3))))
        assert out.shape == (2, 7, 6)

    def test_causality(self, rng):
        """State at step t must not depend on inputs after t."""
        enc = GRU(2, 4, rng)
        x = rng.normal(size=(1, 6, 2))
        out1 = enc(Tensor(x)).data
        x2 = x.copy()
        x2[0, 4:] += 10.0  # perturb the future
        out2 = enc(Tensor(x2)).data
        np.testing.assert_allclose(out1[0, :4], out2[0, :4])
        assert not np.allclose(out1[0, 4:], out2[0, 4:])

    def test_initial_state_override(self, rng):
        enc = GRU(2, 4, rng)
        h0 = Tensor(np.ones((1, 4)))
        out = enc(Tensor(np.zeros((1, 3, 2))), h0=h0)
        assert not np.allclose(out.data[0, 0], 0.0)


def _cell_loop(cell, x, h0):
    """The per-step composite ``GRU.forward``'s scan must reproduce."""
    h = h0 if h0 is not None else cell.initial_state(x.shape[0])
    states = []
    for t in range(x.shape[1]):
        h = cell(x[:, t, :], h)
        states.append(h)
    return stack(states, axis=1)


def _values_and_grads(enc, fn, x, h0, g):
    """Run ``fn(x, h0)``, backpropagate ``g``; values, then the gradients
    of x, h0 and the four cell parameters."""
    for p in enc.parameters():
        p.grad = None
    xt = Tensor(x, requires_grad=True)
    ht = None if h0 is None else Tensor(h0, requires_grad=True)
    out = fn(xt, ht)
    out.backward(g)
    grads = [xt.grad] + ([] if ht is None else [ht.grad])
    return out.data, grads + [p.grad for p in enc.parameters()]


class TestGRUScan:
    """``GRU.forward`` is one ``gru_scan`` op held to the GRUCell loop."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 5),
           st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 31 - 1))
    def test_matches_cell_loop(self, batch, steps, features, hidden,
                               with_h0, seed):
        rng = np.random.default_rng(seed)
        enc = GRU(features, hidden, rng)
        for p in enc.parameters():      # nonzero biases exercise b_ih/b_hh
            p.data = p.data + 0.3 * rng.normal(size=p.shape)
        x = rng.normal(size=(batch, steps, features))
        h0 = rng.normal(size=(batch, hidden)) if with_h0 else None
        g = rng.normal(size=(batch, steps, hidden))
        out, grads = _values_and_grads(
            enc, lambda xt, ht: enc(xt, h0=ht), x, h0, g)
        ref_out, ref_grads = _values_and_grads(
            enc, lambda xt, ht: _cell_loop(enc.cell, xt, ht), x, h0, g)
        np.testing.assert_array_equal(out, ref_out)
        assert len(grads) == len(ref_grads) == (6 if with_h0 else 5)
        for got, ref in zip(grads, ref_grads):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    def test_chunked_encoding_is_bitwise_one_call(self, rng):
        enc = GRU(4, 5, rng)
        for batch in (1, 3):
            x = rng.normal(size=(batch, 9, 4))
            whole = enc(Tensor(x)).data
            head = enc(Tensor(x[:, :4]))
            tail = enc(Tensor(x[:, 4:]), h0=Tensor(head.data[:, -1]))
            np.testing.assert_array_equal(
                np.concatenate([head.data, tail.data], axis=1), whole)

    def test_gradcheck(self, rng):
        cell = GRUCell(2, 3, rng)

        def fn(x, h0, w_ih, w_hh, b_ih, b_hh):
            out = apply("gru_scan", (x, h0, w_ih, w_hh, b_ih, b_hh))
            return (out * Tensor(weights)).sum()

        weights = rng.normal(size=(2, 4, 3))
        gradcheck(fn, [rng.normal(size=(2, 4, 2)), rng.normal(size=(2, 3)),
                       cell.w_ih.data, cell.w_hh.data,
                       rng.normal(size=9), rng.normal(size=9)])

    def test_one_tape_node_at_any_length(self, rng):
        enc = GRU(3, 4, rng)
        for steps in (1, 2, 17):
            with tape_profile() as prof:
                enc(Tensor(rng.normal(size=(2, steps, 3))))
            assert prof.nodes == 1
            assert {op: rec.count for op, rec in prof.ops.items()} \
                == {"gru_scan": 1}
