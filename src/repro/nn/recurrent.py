"""Recurrent cells and sequence encoders (GRU / LSTM).

The paper uses a one-layer GRU as the input mapping psi (Eq. 4) that turns
observations ``(x_t, t)`` and their history into latent representations
``z_t``; several baselines (GRU, GRU-D, ODE-RNN, GRU-ODE-Bayes) also build on
these cells.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, apply
from . import init
from .module import Module, Parameter

__all__ = ["GRUCell", "LSTMCell", "GRU"]


class GRUCell(Module):
    """Gated recurrent unit cell (Cho et al. 2014)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.w_ih = Parameter(init.xavier_uniform(rng, input_size, 3 * h,
                                                  (input_size, 3 * h)))
        self.w_hh = Parameter(init.orthogonal(rng, h, 3 * h))
        self.b_ih = Parameter(init.zeros((3 * h,)))
        self.b_hh = Parameter(init.zeros((3 * h,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One step: inputs ``x`` (B, input) and state ``h`` (B, hidden)."""
        hs = self.hidden_size
        gi = x @ self.w_ih + self.b_ih
        gh = h @ self.w_hh + self.b_hh
        i_r, i_z, i_n = gi[:, :hs], gi[:, hs:2 * hs], gi[:, 2 * hs:]
        h_r, h_z, h_n = gh[:, :hs], gh[:, hs:2 * hs], gh[:, 2 * hs:]
        reset = (i_r + h_r).sigmoid()
        update = (i_z + h_z).sigmoid()
        candidate = (i_n + reset * h_n).tanh()
        return update * h + (1.0 - update) * candidate

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size)))


class LSTMCell(Module):
    """Long short-term memory cell."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.w_ih = Parameter(init.xavier_uniform(rng, input_size, 4 * h,
                                                  (input_size, 4 * h)))
        self.w_hh = Parameter(init.orthogonal(rng, h, 4 * h))
        self.b = Parameter(init.zeros((4 * h,)))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        hs = self.hidden_size
        gates = x @ self.w_ih + h @ self.w_hh + self.b
        i = gates[:, :hs].sigmoid()
        f = gates[:, hs:2 * hs].sigmoid()
        g = gates[:, 2 * hs:3 * hs].tanh()
        o = gates[:, 3 * hs:].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zero = np.zeros((batch, self.hidden_size))
        return Tensor(zero.copy()), Tensor(zero.copy())


class GRU(Module):
    """Run a GRUCell over a (B, T, F) sequence; returns all hidden states.

    The whole sequence is one ``gru_scan`` op (one tape node at any T)
    whose values are bitwise those of stepping ``self.cell``.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng)

    def forward(self, x: Tensor, h0: Tensor | None = None) -> Tensor:
        """Encode sequence ``x`` (B, T, F) from state ``h0`` (B, H; zeros
        by default); returns (B, T, H)."""
        cell = self.cell
        h = h0 if h0 is not None else cell.initial_state(x.shape[0])
        return apply("gru_scan", (x, h, cell.w_ih, cell.w_hh, cell.b_ih,
                                  cell.b_hh))
