"""Graph-structured DIFFODE (extension).

The paper's related work covers extending neural ODEs to graphs (GNODE,
TGNN4I); this module carries the DHS construction to that setting for
sensor networks like LargeST's road graph:

* every graph node runs its own DHS over its *own* irregular observations
  (node series are flattened into the batch dimension, so all the Eq. 5/12
  machinery is reused unchanged);
* the joint latent dynamics add one round of graph message passing on top
  of the per-node DHS derivative:

      ``dS_v/dt = F_s(S_v) + W_g * sum_{u in N(v)} A_hat[v,u] S_u``

  with ``A_hat`` the symmetrically normalized adjacency (GCN convention)
  and ``W_g`` a learned mixing matrix.  Setting ``W_g = 0`` recovers V
  independent DIFFODEs, which is the ablation the tests check.
"""

from __future__ import annotations

import numpy as np

try:  # networkx is an optional convenience for adjacency construction
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None

from ..autodiff import Tensor, concat
from ..nn import GRU, Linear, MLP, Module, Parameter
from ..odeint import SolverOptions, solve
from .dhs import ContextState, dhs_attention
from .dynamics import DHSDynamics
from .model import interpolate_grid_states

__all__ = ["normalized_adjacency", "GraphDiffODE"]


def normalized_adjacency(graph_or_matrix) -> np.ndarray:
    """``A_hat = D^{-1/2} (A + I) D^{-1/2}`` from a networkx graph or a
    dense adjacency matrix."""
    if nx is not None and isinstance(graph_or_matrix, nx.Graph):
        a = nx.to_numpy_array(graph_or_matrix)
    else:
        a = np.asarray(graph_or_matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    a = a + np.eye(len(a))
    deg = a.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


class _GraphCoupledDynamics(Module):
    """Per-node DHS dynamics plus GCN-style state mixing."""

    def __init__(self, node_dynamics: DHSDynamics, latent_dim: int,
                 adjacency: np.ndarray, num_nodes: int,
                 rng: np.random.Generator):
        super().__init__()
        self.node_dynamics = node_dynamics
        self.num_nodes = num_nodes
        self.latent_dim = latent_dim
        self._a_hat = adjacency
        self.mix = Linear(latent_dim, latent_dim, rng, bias=False)
        # start near zero so training decides how much coupling to use
        self.mix.weight.data *= 0.1

    def bind(self, contexts) -> None:
        self.node_dynamics.bind(contexts)

    def forward(self, t: float, s: Tensor) -> Tensor:
        ds_local = self.node_dynamics(t, s)        # (B*V, d)
        bv, d = s.shape
        batch = bv // self.num_nodes
        s_nodes = s.reshape(batch, self.num_nodes, d)
        neighbor = Tensor(self._a_hat) @ s_nodes   # (B, V, d)
        # tanh bounds the coupling term: a purely linear + A S feedback has
        # positive Lyapunov exponents and blows the integration up
        coupling = self.mix(neighbor).tanh().reshape(bv, d)
        return ds_local + coupling


class GraphDiffODE(Module):
    """DIFFODE over a sensor graph: one scalar irregular series per node.

    Inputs follow a node-major convention: ``values`` (B, V, n, 1),
    ``times``/``mask`` (B, V, n) - each node has its own observation times.
    Predictions are per-node values at shared query times.
    """

    def __init__(self, adjacency, latent_dim: int = 8, hidden_dim: int = 32,
                 step_size: float = 0.1, p_solver: str = "max_hoyer",
                 max_len: int = 512, seed: int = 0):
        super().__init__()
        self.a_hat = normalized_adjacency(adjacency)
        self.num_nodes = len(self.a_hat)
        self.latent_dim = latent_dim
        self.step_size = step_size
        rng = np.random.default_rng(seed)
        self.encoder = GRU(1 + 2, hidden_dim, rng)
        self.enc_proj = Linear(hidden_dim, latent_dim, rng)
        # per-node learnable embedding lets identical dynamics specialize
        self.node_embed = Parameter(
            rng.normal(scale=0.1, size=(self.num_nodes, latent_dim)))
        node_dyn = DHSDynamics(latent_dim, hidden_dim, rng,
                               p_solver=p_solver, max_len=max_len)
        self.dynamics = _GraphCoupledDynamics(node_dyn, latent_dim,
                                              self.a_hat, self.num_nodes,
                                              rng)
        self.head = MLP(latent_dim, [hidden_dim], 1, rng)

    # ------------------------------------------------------------------
    def _flatten(self, values, times, mask):
        values = np.asarray(values, dtype=np.float64)
        times = np.asarray(times, dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        b, v, n, f = values.shape
        if v != self.num_nodes:
            raise ValueError(f"expected {self.num_nodes} nodes, got {v}")
        return (values.reshape(b * v, n, f), times.reshape(b * v, n),
                mask.reshape(b * v, n), b)

    def forward_regression(self, values, times, mask,
                           query_times) -> Tensor:
        """Predict (B, V, nq, 1) at per-batch query times (B, nq)."""
        flat_v, flat_t, flat_m, batch = self._flatten(values, times, mask)
        dt = np.diff(flat_t, axis=1, prepend=flat_t[:, :1])
        feats = np.concatenate([flat_v, dt[..., None], flat_t[..., None]],
                               axis=-1)
        z = self.enc_proj(self.encoder(Tensor(feats)))     # (B*V, n, d)
        embed = self.node_embed.reshape(1, self.num_nodes, 1,
                                        self.latent_dim)
        bv, n, d = z.shape
        z = z + embed.broadcast_to(
            (batch, self.num_nodes, n, d)).reshape(bv, n, d)

        ctx = ContextState.build(z, flat_m)
        self.dynamics.bind([ctx])
        s0, _ = dhs_attention(z[:, 0, :], ctx.z, ctx.mask)
        grid = np.linspace(0.0, 1.0,
                           max(2, int(round(1.0 / self.step_size)) + 1))
        states = solve(self.dynamics, s0, grid, method="rk4",
                       options=SolverOptions(step_size=self.step_size)).ys
        # states: (L, B*V, d)
        q = np.repeat(np.asarray(query_times), self.num_nodes, axis=0)
        at_q = interpolate_grid_states(states, grid, q)    # (B*V, nq, d)
        out = self.head(at_q)
        nq = q.shape[1]
        return out.reshape(batch, self.num_nodes, nq, 1)

    def forward(self, batch) -> Tensor:  # Trainer-compatible entry point
        return self.forward_regression(batch.values, batch.times,
                                       batch.mask, batch.target_times)
