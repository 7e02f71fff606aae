"""Ablation: exact KKT (Theorem 1) vs the relaxed closed form (Theorem 2).

The paper replaces the exact O(2^n) active-set enumeration with the O(n)
Lagrange solution to make integration tractable.  This experiment makes the
trade-off concrete on random DHS systems:

* wall-clock of both solvers as ``n`` grows (exact explodes, relaxed flat);
* the Hoyer sparsity (Eq. 14) each attains;
* how often the relaxed stationary point is even feasible for the original
  problem (``p >= 0``).
"""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import Tensor, no_grad
from ..core import ContextState, dhs_attention, solve_p_exact_kkt, \
    solve_p_max_hoyer
from ..linalg import hoyer_np
from .reporting import Cell, TableResult

__all__ = ["run_kkt_ablation"]


def _random_problem(n: int, d: int, rng: np.random.Generator):
    z = Tensor(rng.normal(size=(1, n, d)))
    ctx = ContextState.build(z, None, ridge=0.0)
    s, _ = dhs_attention(Tensor(rng.normal(size=(1, d))), ctx.z, None)
    return ctx, s


def run_kkt_ablation(sizes=(6, 8, 10, 12), d: int = 3, trials: int = 5,
                     seed: int = 0) -> TableResult:
    """Compare the two Theorem solvers across problem sizes.

    Accepts a :class:`~repro.experiments.scale.Scale` in place of ``sizes``
    (the CLI passes one); the problem sizes are then the defaults, since
    this ablation is independent of dataset scale.
    """
    from .scale import Scale
    if isinstance(sizes, Scale):
        sizes = (6, 8, 10, 12)
    result = TableResult(
        title="Ablation - exact KKT (Thm 1) vs relaxed (Thm 2, Eq. 32)",
        columns=["exact ms", "relaxed ms", "exact Hoyer", "relaxed Hoyer",
                 "relaxed feasible %"],
        notes=["exact maximizes Hoyer over the true constraint set "
               "(p >= 0) and lands on sparse vertices; the relaxed closed "
               "form is the solver DIFFODE can afford at every ODE step"])
    rng = np.random.default_rng(seed)
    for n in sizes:
        t_exact, t_relax = [], []
        h_exact, h_relax = [], []
        feasible = 0
        for _ in range(trials):
            ctx, s = _random_problem(n, d, rng)
            b = ctx.least_norm_p(s).data[0]
            a = ctx.a_null.data[0]
            with no_grad():
                start = time.perf_counter()
                p_ex = solve_p_exact_kkt(b, a)
                t_exact.append(time.perf_counter() - start)
                start = time.perf_counter()
                p_rx = solve_p_max_hoyer(ctx, s).data[0]
                t_relax.append(time.perf_counter() - start)
            h_exact.append(float(hoyer_np(p_ex, use_abs=False)))
            h_relax.append(float(hoyer_np(p_rx, use_abs=False)))
            if p_rx.min() >= -1e-9:
                feasible += 1
        result.add_row(f"n={n}", [
            Cell(float(np.mean(t_exact) * 1e3)),
            Cell(float(np.mean(t_relax) * 1e3)),
            Cell(float(np.mean(h_exact))),
            Cell(float(np.mean(h_relax))),
            Cell(100.0 * feasible / trials),
        ])
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run_kkt_ablation().render())
