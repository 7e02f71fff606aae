"""SolverStats instrumentation across solvers, the model, and baselines."""

import numpy as np

from repro.autodiff import Tensor, get_executor, no_grad
from repro.baselines import LatentODEBaseline
from repro.core import DiffODE, DiffODEConfig
from repro.odeint import (
    STEP_NFEV,
    SolverOptions,
    SolverStats,
    solve,
)


def decay(t, y):
    return -y


class TestFixedGridStats:
    def test_rk4_counts(self):
        sol = solve(decay, Tensor(np.ones((1, 1))),
                    np.linspace(0, 1, 5), method="rk4",
                    options=SolverOptions(step_size=0.05))
        stats = sol.stats
        assert stats.method == "rk4"
        assert stats.steps == 20          # 4 intervals x 5 sub-steps
        assert stats.rejects == 0
        assert stats.nfev == 20 * STEP_NFEV["rk4"]

    def test_euler_default_one_step_per_interval(self):
        stats = solve(decay, Tensor(np.ones((1, 1))), [0.0, 0.5, 1.0],
                      method="euler").stats
        assert stats.steps == 2
        assert stats.nfev == 2

    def test_implicit_adams_counts_actual_evals(self):
        calls = []

        def f(t, y):
            calls.append(t)
            return -y

        stats = solve(f, Tensor(np.ones((1, 1))),
                      np.linspace(0, 1, 11), method="implicit_adams",
                      options=SolverOptions(step_size=0.1)).stats
        # RK4 warm-up for the multistep history adds a couple of steps.
        assert stats.steps >= 10
        if get_executor() == "replay":
            # The replay executor re-runs the recorded trace without
            # re-entering the Python RHS; only the trace + validation
            # calls are visible to the closure.  nfev still counts every
            # logical evaluation.
            assert 2 <= len(calls) < stats.nfev
        else:
            assert stats.nfev == len(calls)


class TestDopri5Stats:
    def test_stats_fields_populated(self):
        stats = solve(decay, Tensor(np.ones((2, 3))),
                      np.linspace(0, 1, 4), method="dopri5").stats
        assert stats.method == "dopri5"
        assert stats.steps > 0
        assert stats.nfev == 2 + 6 * stats.trial_steps
        assert stats.first_step is not None and stats.first_step > 0
        assert stats.freeze_counts is not None
        assert stats.freeze_counts.shape == (2,)

    def test_as_dict_is_json_friendly(self):
        import json

        stats = solve(decay, Tensor(np.ones((2, 3))), [0.0, 1.0],
                      method="dopri5").stats
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["method"] == "dopri5"
        assert payload["nfev"] == stats.nfev
        assert payload["batch_size"] == 2

    def test_merge_accumulates(self):
        a = SolverStats(method="dopri5", steps=3, rejects=1, nfev=26,
                        freeze_counts=np.array([1, 0]))
        b = SolverStats(method="dopri5", steps=2, rejects=0, nfev=13,
                        freeze_counts=np.array([0, 2]))
        a.merge(b)
        assert (a.steps, a.rejects, a.nfev) == (5, 1, 39)
        np.testing.assert_array_equal(a.freeze_counts, [1, 2])


class TestAdjointStats:
    def test_forward_and_backward_counted(self):
        from repro.nn import Linear, Module

        rng = np.random.default_rng(0)

        class Field(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(3, 3, rng)

            def forward(self, t, y):
                return self.lin(y).tanh()

        fmod = Field()
        sol = solve(fmod, Tensor(np.ones((1, 3))), [0.0, 1.0],
                    method="rk4",
                    options=SolverOptions(step_size=0.25, adjoint=True))
        out, stats = sol.ys, sol.stats
        assert stats.steps == 4
        forward_nfev = stats.nfev
        assert forward_nfev == 4 * STEP_NFEV["rk4"]
        (out ** 2).mean().backward()
        # Backward sweep adds augmented-dynamics evaluations on top.
        assert stats.nfev > forward_nfev


class TestModelStats:
    def test_diffode_records_last_solver_stats(self):
        model = DiffODE(DiffODEConfig(
            input_dim=2, latent_dim=4, hidden_dim=8, hippo_dim=4,
            info_dim=4, num_classes=2, step_size=0.25))
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 5, 2))
        times = np.sort(rng.random((3, 5)), axis=1)
        mask = np.ones((3, 5))
        assert model.last_solver_stats is None
        with no_grad():
            model.forward_classification(values, times, mask)
        stats = model.last_solver_stats
        assert stats is not None
        assert stats.method == "implicit_adams"
        assert stats.nfev > 0

    def test_diffode_dopri5_uses_adaptive_path(self):
        model = DiffODE(DiffODEConfig(
            input_dim=2, latent_dim=4, hidden_dim=8, hippo_dim=4,
            info_dim=4, num_classes=2, step_size=0.25, method="dopri5",
            rtol=1e-4, atol=1e-6))
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 5, 2))
        times = np.sort(rng.random((3, 5)), axis=1)
        mask = np.ones((3, 5))
        with no_grad():
            logits = model.forward_classification(values, times, mask)
        assert np.all(np.isfinite(logits.data))
        stats = model.last_solver_stats
        assert stats.method == "dopri5"
        assert stats.freeze_counts is not None
        assert stats.freeze_counts.shape == (3,)


class TestBaselineStats:
    def test_latent_ode_adaptive_method(self):
        rng = np.random.default_rng(0)
        model = LatentODEBaseline(input_dim=2, hidden_dim=8, latent_dim=4,
                                  rng=rng, grid_size=12, num_classes=2,
                                  method="dopri5")
        values = rng.normal(size=(2, 6, 2))
        times = np.sort(rng.random((2, 6)), axis=1)
        mask = np.ones((2, 6))
        with no_grad():
            logits = model.forward_classification(values, times, mask)
        assert logits.shape == (2, 2)
        stats = model.last_solver_stats
        assert stats.method == "dopri5"
        # Dense output: 12 grid points should not need 12x the evals.
        assert stats.nfev == 2 + 6 * stats.trial_steps

    def test_latent_ode_fixed_method_still_works(self):
        rng = np.random.default_rng(0)
        model = LatentODEBaseline(input_dim=2, hidden_dim=8, latent_dim=4,
                                  rng=rng, grid_size=12, num_classes=2)
        values = rng.normal(size=(2, 6, 2))
        times = np.sort(rng.random((2, 6)), axis=1)
        mask = np.ones((2, 6))
        with no_grad():
            model.forward_classification(values, times, mask)
        assert model.last_solver_stats.method == "rk4"
        assert model.last_solver_stats.nfev > 0
