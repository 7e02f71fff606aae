"""Checkpoint save/load round trips."""

import numpy as np
import pytest

from repro.core import DiffODE, DiffODEConfig
from repro.nn import MLP, Module
from repro.training import (
    load_checkpoint,
    load_diffode,
    save_checkpoint,
    save_diffode,
)


class Small(Module):
    def __init__(self, rng):
        super().__init__()
        self.net = MLP(3, [4], 2, rng)

    def forward(self, x):
        return self.net(x)


class TestGenericCheckpoint:
    def test_roundtrip(self, rng, rng2, tmp_path):
        m1, m2 = Small(rng), Small(rng2)
        path = tmp_path / "model.npz"
        save_checkpoint(m1, path)
        cfg = load_checkpoint(m2, path)
        assert cfg is None
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(),
                                      m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_config_rides_along(self, rng, tmp_path):
        m = Small(rng)
        path = tmp_path / "with_cfg.npz"
        save_checkpoint(m, path, config={"lr": 0.001, "note": "hi"})
        cfg = load_checkpoint(Small(np.random.default_rng(1)), path)
        assert cfg == {"lr": 0.001, "note": "hi"}

    def test_load_mismatched_model_fails(self, rng, tmp_path):
        m = Small(rng)
        path = tmp_path / "m.npz"
        save_checkpoint(m, path)

        class Other(Module):
            def __init__(self):
                super().__init__()
                self.net = MLP(5, [4], 2, np.random.default_rng(0))

        # same parameter names but different shapes -> ValueError
        with pytest.raises(ValueError):
            load_checkpoint(Other(), path)


class TestDiffODECheckpoint:
    def _config(self):
        return DiffODEConfig(input_dim=2, latent_dim=6, hidden_dim=8,
                             hippo_dim=6, info_dim=6, num_classes=2,
                             step_size=0.25, p_solver="min_norm", seed=3)

    def test_full_roundtrip_reproduces_outputs(self, rng, tmp_path):
        model = DiffODE(self._config())
        path = tmp_path / "diffode.npz"
        save_diffode(model, path)
        clone = load_diffode(path)

        assert clone.config == model.config
        values = rng.normal(size=(3, 16, 2))
        times = np.sort(rng.random((3, 16)), axis=1)
        mask = np.ones((3, 16))
        out1 = model.forward_classification(values, times, mask).data
        out2 = clone.forward_classification(values, times, mask).data
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_load_requires_config(self, rng, tmp_path):
        model = DiffODE(self._config())
        path = tmp_path / "bare.npz"
        save_checkpoint(model, path)  # no config stored
        with pytest.raises(KeyError):
            load_diffode(path)

    @pytest.mark.parametrize("executor", ["eager", "replay"])
    def test_roundtrip_bitwise_under_every_executor(self, rng, tmp_path,
                                                    executor):
        """Loaded weights must reproduce outputs *bit-identically* even
        when the RHS runs through the trace-replay executor, whose
        generated kernels (``no_grad`` calls) capture static tensors by
        reference."""
        from repro.autodiff import get_executor, no_grad, set_executor

        model = DiffODE(self._config())
        path = tmp_path / "diffode.npz"
        save_diffode(model, path)
        clone = load_diffode(path)
        values = rng.normal(size=(3, 16, 2))
        times = np.sort(rng.random((3, 16)), axis=1)
        mask = np.ones((3, 16))
        prev = get_executor()
        set_executor(executor)
        try:
            with no_grad():
                out1 = model.forward_classification(values, times,
                                                    mask).data
                out2 = clone.forward_classification(values, times,
                                                    mask).data
        finally:
            set_executor(prev)
        np.testing.assert_array_equal(out1, out2)

    def test_load_state_dict_bumps_graph_epoch(self, rng):
        """In-place weight swaps (hot reload) must invalidate anything
        keyed on the bind generation — stale compiled traces, streaming
        sessions' ``ensure_bound`` bookkeeping — so every consumer
        re-reads the new statics."""
        from repro.autodiff import graph_epoch

        model = DiffODE(self._config())
        state = model.state_dict()
        before = graph_epoch()
        model.load_state_dict(state)
        assert graph_epoch() > before

    def test_inplace_reload_changes_outputs_under_replay(self, rng,
                                                         tmp_path):
        """An in-place ``load_state_dict`` mid-lifetime must flow into
        subsequent forwards under the replay executor (the statics are
        views over the parameter buffers + the epoch bump retraces)."""
        from repro.autodiff import get_executor, no_grad, set_executor

        cfg = self._config()
        model = DiffODE(cfg)
        other = DiffODE(DiffODEConfig(**{**cfg.__dict__, "seed": 99}))
        values = rng.normal(size=(2, 16, 2))
        times = np.sort(rng.random((2, 16)), axis=1)
        mask = np.ones((2, 16))
        prev = get_executor()
        set_executor("replay")
        try:
            with no_grad():
                out_a = model.forward_classification(values, times,
                                                     mask).data.copy()
                model.load_state_dict(other.state_dict())
                out_b = model.forward_classification(values, times,
                                                     mask).data.copy()
                with no_grad():
                    ref = other.forward_classification(values, times,
                                                       mask).data
        finally:
            set_executor(prev)
        assert not np.array_equal(out_a, out_b)
        np.testing.assert_array_equal(out_b, ref)
