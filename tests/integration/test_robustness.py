"""Failure-injection and degenerate-input robustness tests."""

import numpy as np
import pytest

from repro.autodiff import Tensor, cross_entropy
from repro.core import ContextState, DiffODE, DiffODEConfig, dhs_attention, \
    solve_p_max_hoyer
from repro.data import Dataset, Sample, collate
from repro.training import Adam, TrainConfig, Trainer, clip_grad_norm


class TestDegenerateLatents:
    def test_collinear_z_survives_with_ridge(self, rng):
        """Early in training Z rows can be nearly identical; the ridge in
        the Gram inverse must keep everything finite."""
        base = rng.normal(size=(1, 1, 4))
        z = Tensor(np.repeat(base, 12, axis=1) + 1e-10 * rng.normal(
            size=(1, 12, 4)))
        ctx = ContextState.build(z, None, ridge=1e-6)
        s, _ = dhs_attention(Tensor(rng.normal(size=(1, 4))), ctx.z, None)
        p = solve_p_max_hoyer(ctx, s)
        assert np.all(np.isfinite(p.data))

    def test_zero_z_rows_do_not_nan(self, rng):
        z = Tensor(np.zeros((1, 10, 3)))
        ctx = ContextState.build(z, None, ridge=1e-6)
        s = Tensor(np.zeros((1, 3)))
        p = solve_p_max_hoyer(ctx, s)
        assert np.all(np.isfinite(p.data))

    def test_single_valid_observation_masked_batch(self, rng):
        """A sequence with mask leaving only a handful of valid rows."""
        z = Tensor(rng.normal(size=(2, 10, 3)))
        mask = np.ones((2, 10))
        mask[1, 4:] = 0  # only 4 valid rows (> d = 3)
        ctx = ContextState.build(z, mask, ridge=1e-6)
        s, _ = dhs_attention(Tensor(rng.normal(size=(2, 3))), ctx.z, mask)
        p = solve_p_max_hoyer(ctx, s)
        assert np.all(np.isfinite(p.data))
        np.testing.assert_allclose(p.data[1, 4:], 0.0, atol=1e-8)


class TestModelRobustness:
    def _batch(self, rng, extreme=False):
        scalefac = 1e3 if extreme else 1.0
        values = scalefac * rng.normal(size=(3, 18, 1))
        times = np.sort(rng.random((3, 18)), axis=1)
        return values, times, np.ones((3, 18))

    def _model(self):
        return DiffODE(DiffODEConfig(
            input_dim=1, latent_dim=6, hidden_dim=8, hippo_dim=6,
            info_dim=6, num_classes=2, step_size=0.25))

    def test_extreme_input_values_finite(self, rng):
        model = self._model()
        values, times, mask = self._batch(rng, extreme=True)
        out = model.forward_classification(values, times, mask)
        assert np.all(np.isfinite(out.data))

    def test_duplicate_timestamps_tolerated(self, rng):
        model = self._model()
        values, times, mask = self._batch(rng)
        times[:, 5] = times[:, 4]  # exact duplicates
        out = model.forward_classification(values, times, mask)
        assert np.all(np.isfinite(out.data))

    def test_all_observations_at_time_zero_window(self, rng):
        """Cluster of observations at the start, long unobserved tail."""
        model = self._model()
        values = rng.normal(size=(2, 15, 1))
        times = np.sort(rng.random((2, 15)) * 0.05, axis=1)
        out = model.forward_classification(values, times,
                                           np.ones((2, 15)))
        assert np.all(np.isfinite(out.data))

    def test_gradients_finite_after_extreme_batch(self, rng):
        model = self._model()
        values, times, mask = self._batch(rng, extreme=True)
        logits = model.forward_classification(values, times, mask)
        cross_entropy(logits, np.array([0, 1, 0])).backward()
        for p in model.parameters():
            if p.grad is not None:
                assert np.all(np.isfinite(p.grad))


class TestTrainingRobustness:
    def test_huge_lr_does_not_crash(self, rng):
        samples = [Sample(times=np.sort(rng.random(10)),
                          values=rng.normal(size=(10, 1)),
                          label=int(i % 2)) for i in range(12)]
        ds = Dataset("tiny", samples, num_features=1, num_classes=2)
        model = DiffODE(DiffODEConfig(
            input_dim=1, latent_dim=4, hidden_dim=8, hippo_dim=4,
            info_dim=4, num_classes=2, step_size=0.25))
        trainer = Trainer(model, "classification", TrainConfig(
            epochs=2, batch_size=6, lr=10.0, clip_norm=1.0))
        # a pathological lr may diverge numerically, but must not raise
        history = trainer.fit(ds, None)
        assert len(history.train_loss) == 2

    def test_clip_norm_caps_update_magnitude(self, rng):
        from repro.nn import Parameter
        p = Parameter(np.zeros(4))
        p.grad = 1e8 * rng.normal(size=4)
        clip_grad_norm([p], 1.0)
        assert np.linalg.norm(p.grad) <= 1.0 + 1e-9

    def test_batch_of_one(self, rng):
        samples = [Sample(times=np.sort(rng.random(10)),
                          values=rng.normal(size=(10, 1)), label=0)]
        batch = collate(samples)
        model = DiffODE(DiffODEConfig(
            input_dim=1, latent_dim=4, hidden_dim=8, hippo_dim=4,
            info_dim=4, num_classes=2, step_size=0.25))
        out = model.forward(batch)
        assert out.shape == (1, 2)
