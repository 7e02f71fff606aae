"""End-to-end DiffODE model tests."""

import numpy as np
import pytest

from repro.autodiff import cross_entropy, masked_mse_loss
from repro.core import DiffODE, DiffODEConfig, interpolate_grid_states
from repro.autodiff import Tensor


@pytest.fixture
def cls_batch(rng):
    B, n, F = 4, 20, 2
    values = rng.normal(size=(B, n, F))
    times = np.sort(rng.random((B, n)), axis=1)
    mask = np.ones((B, n))
    mask[1, 16:] = 0
    labels = rng.integers(0, 2, size=B)
    return values, times, mask, labels


def small_config(**kw):
    base = dict(input_dim=2, latent_dim=6, hidden_dim=8, hippo_dim=6,
                info_dim=6, step_size=0.2, num_classes=2)
    base.update(kw)
    return DiffODEConfig(**base)


class TestConfig:
    def test_requires_task(self):
        with pytest.raises(ValueError):
            DiffODEConfig(input_dim=1)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            DiffODEConfig(input_dim=1, num_classes=2, latent_dim=7,
                          num_heads=2)

    def test_unknown_encoder(self, cls_batch):
        with pytest.raises(ValueError):
            DiffODE(small_config(encoder="cnn"))


class TestClassification:
    def test_logit_shape(self, rng, cls_batch):
        model = DiffODE(small_config())
        values, times, mask, _ = cls_batch
        assert model.forward_classification(values, times, mask).shape == (4, 2)

    def test_deterministic_given_seed(self, cls_batch):
        values, times, mask, _ = cls_batch
        out1 = DiffODE(small_config(seed=7)).forward_classification(
            values, times, mask).data
        out2 = DiffODE(small_config(seed=7)).forward_classification(
            values, times, mask).data
        np.testing.assert_array_equal(out1, out2)

    def test_different_seeds_differ(self, cls_batch):
        values, times, mask, _ = cls_batch
        out1 = DiffODE(small_config(seed=1)).forward_classification(
            values, times, mask).data
        out2 = DiffODE(small_config(seed=2)).forward_classification(
            values, times, mask).data
        assert not np.allclose(out1, out2)

    def test_backward_reaches_encoder(self, cls_batch):
        model = DiffODE(small_config())
        values, times, mask, labels = cls_batch
        loss = cross_entropy(model.forward_classification(values, times, mask),
                             labels)
        loss.backward()
        enc_params = list(model.encoder.parameters())
        assert any(p.grad is not None and np.abs(p.grad).sum() > 0
                   for p in enc_params)

    def test_wrong_task_raises(self, cls_batch):
        model = DiffODE(small_config(num_classes=None, out_dim=2))
        values, times, mask, _ = cls_batch
        with pytest.raises(RuntimeError):
            model.forward_classification(values, times, mask)

    @pytest.mark.parametrize("overrides", [
        {"use_hippo": False},
        {"use_attention": False},
        {"encoder": "mlp"},
        {"num_heads": 2},
        {"p_solver": "min_norm"},
        {"p_solver": "ada_h"},
        {"method": "rk4"},
        {"method": "euler"},
    ])
    def test_variants_run_and_train(self, cls_batch, overrides):
        model = DiffODE(small_config(**overrides))
        values, times, mask, labels = cls_batch
        logits = model.forward_classification(values, times, mask)
        cross_entropy(logits, labels).backward()
        assert np.all(np.isfinite(logits.data))


class TestRegression:
    def test_prediction_shape(self, rng, cls_batch):
        model = DiffODE(small_config(num_classes=None, out_dim=2))
        values, times, mask, _ = cls_batch
        q = np.sort(rng.random((4, 6)), axis=1)
        pred = model.forward_regression(values, times, mask, q)
        assert pred.shape == (4, 6, 2)

    def test_regression_backward(self, rng, cls_batch):
        model = DiffODE(small_config(num_classes=None, out_dim=2))
        values, times, mask, _ = cls_batch
        q = np.sort(rng.random((4, 6)), axis=1)
        target = rng.normal(size=(4, 6, 2))
        loss = masked_mse_loss(model.forward_regression(values, times, mask, q),
                               target, np.ones((4, 6, 2)))
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())

    def test_wrong_task_raises(self, rng, cls_batch):
        model = DiffODE(small_config())
        values, times, mask, _ = cls_batch
        with pytest.raises(RuntimeError):
            model.forward_regression(values, times, mask,
                                     np.zeros((4, 2)))


class TestGridInterpolation:
    def test_exact_at_grid_points(self, rng):
        grid = np.linspace(0, 1, 6)
        states = Tensor(rng.normal(size=(6, 2, 3)))
        out = interpolate_grid_states(states, grid, np.tile(grid, (2, 1)))
        np.testing.assert_allclose(out.data,
                                   states.data.transpose(1, 0, 2), atol=1e-12)

    def test_midpoint_is_average(self, rng):
        grid = np.array([0.0, 1.0])
        states = Tensor(rng.normal(size=(2, 1, 3)))
        out = interpolate_grid_states(states, grid, np.array([[0.5]]))
        np.testing.assert_allclose(out.data[0, 0],
                                   states.data.mean(axis=0)[0], atol=1e-12)

    def test_clips_out_of_range_queries(self, rng):
        grid = np.linspace(0, 1, 4)
        states = Tensor(rng.normal(size=(4, 1, 2)))
        out = interpolate_grid_states(states, grid, np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out.data[0, 0], states.data[0, 0])
        np.testing.assert_allclose(out.data[0, 1], states.data[-1, 0])

    def test_gradient_flows_to_states(self, rng):
        grid = np.linspace(0, 1, 4)
        states = Tensor(rng.normal(size=(4, 2, 2)), requires_grad=True)
        out = interpolate_grid_states(states, grid,
                                      np.array([[0.2, 0.9], [0.4, 0.6]]))
        (out ** 2).sum().backward()
        assert states.grad is not None


class TestStatePersistence:
    def test_state_dict_roundtrip_preserves_output(self, cls_batch):
        values, times, mask, _ = cls_batch
        m1 = DiffODE(small_config(seed=3))
        out1 = m1.forward_classification(values, times, mask).data
        m2 = DiffODE(small_config(seed=4))
        m2.load_state_dict(m1.state_dict())
        out2 = m2.forward_classification(values, times, mask).data
        np.testing.assert_allclose(out1, out2, atol=1e-12)


class TestContexts:
    def test_extend_contexts_follows_each_heads_slice(self, rng):
        """Extending every head by one latent row tracks the per-head
        contexts built over all rows."""
        model = DiffODE(small_config(num_heads=2))
        z = rng.normal(size=(1, 9, 6))
        ext = model.extend_contexts(model.build_contexts(Tensor(z[:, :8])),
                                    z[:, 8])
        full = model.build_contexts(Tensor(z))
        assert len(ext) == len(full) == 2
        for a, b in zip(ext, full):
            np.testing.assert_array_equal(a.z.data, b.z.data)
            np.testing.assert_allclose(a.zt_pinv.data, b.zt_pinv.data,
                                       atol=1e-8)

    def test_no_contexts_without_attention(self, rng):
        model = DiffODE(small_config(use_attention=False))
        z = rng.normal(size=(1, 4, 6))
        assert model.build_contexts(Tensor(z)) == []
        assert model.extend_contexts([], z[:, 0]) == []
        assert model.min_context == 1
