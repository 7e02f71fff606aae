"""Union-grid solve driver: equivalence with the padded baseline, NFE
accounting, telemetry, and executor coverage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, get_executor, no_grad, set_executor
from repro.data import plan_union_buckets
from repro.odeint import SolverStats
from repro.parallel import padded_shard_solve, union_solve
from repro.parallel import union as union_module
from repro.parallel.union import dopri5_dense_solve
from repro.telemetry import MetricsRegistry, set_registry

RTOL, ATOL = 1e-5, 1e-7
#: Both drivers hold a per-step local error of ``rtol*|y| + atol``; their
#: outputs may drift apart by a small multiple of that band globally.
BAND = 50 * (RTOL + ATOL)


def _decay_factory(rates, amps):
    """Per-sample forced decays; func_for slices the batch context."""
    def func_for(idx):
        neg_r = Tensor(-rates[idx])
        a = amps[idx]

        def rhs(t, y):
            return y * neg_r + Tensor(a * np.sin(2.0 * np.pi * float(t)))

        return rhs
    return func_for


def _random_problem(n, seed, dim=3, max_len=10):
    rng = np.random.default_rng(seed)
    grids = []
    for _ in range(n):
        length = int(rng.integers(2, max_len))
        grids.append(np.sort(rng.choice(np.linspace(0.0, 1.0, 201),
                                        size=length, replace=False)))
    rates = rng.uniform(0.2, 2.5, size=(n, dim))
    amps = rng.uniform(-1.0, 1.0, size=(n, dim))
    y0 = Tensor(rng.normal(size=(n, dim)))
    return _decay_factory(rates, amps), y0, grids


def _max_diff(a, b):
    return max((float(np.abs(x.data - y.data).max())
                for x, y in zip(a, b) if x.data.size), default=0.0)


class TestEquivalence:
    def test_union_matches_padded_baseline(self):
        func_for, y0, grids = _random_problem(12, seed=0)
        with no_grad():
            uni, _ = union_solve(func_for, y0, grids, rtol=RTOL, atol=ATOL)
            pad, _ = padded_shard_solve(func_for, y0, grids, shard_size=4,
                                        rtol=RTOL, atol=ATOL)
        assert _max_diff(uni, pad) < BAND

    def test_output_shapes_follow_sample_grids(self):
        func_for, y0, grids = _random_problem(7, seed=1)
        with no_grad():
            uni, _ = union_solve(func_for, y0, grids)
        for out, grid in zip(uni, grids):
            assert out.data.shape == (grid.size,) + y0.data.shape[1:]

    def test_single_sample_buckets(self):
        """min_overlap > 1 forces singleton buckets; results must agree
        with the merged solve."""
        func_for, y0, grids = _random_problem(6, seed=2)
        with no_grad():
            single, _ = union_solve(func_for, y0, grids, min_overlap=2.0)
            merged, _ = union_solve(func_for, y0, grids, min_overlap=0.0)
        assert _max_diff(single, merged) < BAND

    def test_fully_disjoint_grids(self):
        """Disjoint spans plan into separate buckets yet solve correctly
        (every bucket still starts at the common t0)."""
        rng = np.random.default_rng(3)
        grids = [np.linspace(0.0, 0.2, 5), np.linspace(0.4, 0.6, 4),
                 np.linspace(0.8, 1.0, 6)]
        n, dim = len(grids), 2
        rates = rng.uniform(0.2, 2.0, size=(n, dim))
        amps = rng.uniform(-1.0, 1.0, size=(n, dim))
        y0 = Tensor(rng.normal(size=(n, dim)))
        func_for = _decay_factory(rates, amps)
        assert len(plan_union_buckets(grids, min_overlap=0.05)) == 3
        with no_grad():
            uni, _ = union_solve(func_for, y0, grids, min_overlap=0.05)
            pad, _ = padded_shard_solve(func_for, y0, grids, shard_size=1)
        assert _max_diff(uni, pad) < BAND

    def test_empty_grid_rows_yield_empty_outputs(self):
        rng = np.random.default_rng(4)
        grids = [np.linspace(0.0, 1.0, 5), np.empty(0),
                 np.linspace(0.1, 0.9, 4)]
        rates = rng.uniform(0.5, 1.5, size=(3, 2))
        amps = np.zeros((3, 2))
        y0 = Tensor(rng.normal(size=(3, 2)))
        with no_grad():
            uni, _ = union_solve(_decay_factory(rates, amps), y0, grids)
        assert uni[1].data.shape[0] == 0
        assert uni[0].data.shape[0] == 5

    def test_padded_empty_grid_rows_yield_empty_outputs(self):
        rng = np.random.default_rng(4)
        grids = [np.linspace(0.0, 1.0, 5), np.empty(0), np.empty(0),
                 np.linspace(0.1, 0.9, 4)]
        rates = rng.uniform(0.5, 1.5, size=(4, 2))
        y0 = Tensor(rng.normal(size=(4, 2)))
        with no_grad():
            pad, _ = padded_shard_solve(
                _decay_factory(rates, np.zeros((4, 2))), y0, grids,
                shard_size=2)
        # The two empty rows sort into a shard of their own.
        assert [p.data.shape[0] for p in pad] == [5, 0, 0, 4]

    @pytest.mark.parametrize("driver,kwargs", [
        (union_solve, {"max_bucket": 3, "min_overlap": 0.0}),
        (padded_shard_solve, {"shard_size": 3}),
    ])
    def test_per_bucket_step_is_patchable(self, driver, kwargs, monkeypatch):
        """Both drivers reach the per-bucket step through the module
        global, so instrumentation that patches it sees every bucket."""
        rows = []
        real = union_module.dopri5_dense_solve

        def counting(func, y0, sample_times, **kw):
            rows.append(len(sample_times))
            return real(func, y0, sample_times, **kw)

        monkeypatch.setattr(union_module, "dopri5_dense_solve", counting)
        func_for, y0, grids = _random_problem(6, seed=9)
        with no_grad():
            driver(func_for, y0, grids, **kwargs)
        assert len(rows) >= 2 and sum(rows) == 6

    def test_all_empty_raises(self):
        y0 = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match="at least one observation"):
            union_solve(lambda idx: (lambda t, y: y), y0,
                        [np.empty(0), np.empty(0)])

    def test_matches_direct_dense_solve(self):
        """One merged bucket must equal a direct dopri5_dense_solve call
        bit-for-bit (the driver adds planning, not arithmetic)."""
        func_for, y0, grids = _random_problem(5, seed=5)
        with no_grad():
            uni, _ = union_solve(func_for, y0, grids, min_overlap=0.0,
                                 max_bucket=64)
            direct, _ = dopri5_dense_solve(
                func_for(np.arange(5)), y0, grids, t0=min(g[0] for g in grids))
        for u, d in zip(uni, direct):
            np.testing.assert_array_equal(u.data, d.data)


class TestNfeAccounting:
    def test_stats_sum_over_buckets(self):
        func_for, y0, grids = _random_problem(9, seed=6)
        with no_grad():
            _, total = union_solve(func_for, y0, grids, max_bucket=3,
                                   min_overlap=0.0)
            buckets = plan_union_buckets(grids, max_bucket=3,
                                         min_overlap=0.0)
            per_bucket = SolverStats(method="dopri5")
            for b in buckets:
                _, s = dopri5_dense_solve(
                    func_for(b.indices), y0[b.indices],
                    [grids[int(i)] for i in b.indices],
                    t0=min(g[0] for g in grids))
                per_bucket.merge(s)
        assert total.nfev == per_bucket.nfev
        assert total.steps == per_bucket.steps

    def test_union_cuts_nfe_vs_padded(self):
        func_for, y0, grids = _random_problem(24, seed=7)
        with no_grad():
            _, uni = union_solve(func_for, y0, grids, max_bucket=64,
                                 min_overlap=0.0)
            _, pad = padded_shard_solve(func_for, y0, grids, shard_size=4)
        assert uni.nfev < pad.nfev

    def test_registry_counters(self):
        func_for, y0, grids = _random_problem(10, seed=8)
        reg = MetricsRegistry(enabled=True)
        prev = set_registry(reg)
        try:
            with no_grad():
                _, stats = union_solve(func_for, y0, grids, max_bucket=4,
                                       min_overlap=0.0)
        finally:
            set_registry(prev)
        buckets = plan_union_buckets(grids, max_bucket=4, min_overlap=0.0)
        assert reg.counters["batching.buckets"].value == len(buckets)
        assert (reg.histograms["batching.bucket_size"].count
                == len(buckets))
        assert (reg.histograms["batching.union_grid_len"].count
                == len(buckets))
        nfe_hist = reg.histograms["batching.nfe_per_sample"]
        assert nfe_hist.count == 1
        assert nfe_hist.total == pytest.approx(stats.nfev / len(grids))

    def test_disabled_registry_records_nothing(self):
        func_for, y0, grids = _random_problem(4, seed=9)
        reg = MetricsRegistry(enabled=False)
        prev = set_registry(reg)
        try:
            with no_grad():
                union_solve(func_for, y0, grids)
        finally:
            set_registry(prev)
        assert not reg.counters and not reg.histograms


class TestExecutors:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["eager", "replay"]))
    def test_equivalence_sweep_over_bucket_sizes(self, max_bucket, seed,
                                                 executor):
        """union ~= padded for any bucket cap, under both executors."""
        func_for, y0, grids = _random_problem(10, seed=seed)
        prev = get_executor()
        set_executor(executor)
        try:
            with no_grad():
                uni, stats = union_solve(func_for, y0, grids,
                                         max_bucket=max_bucket)
                pad, _ = padded_shard_solve(func_for, y0, grids,
                                            shard_size=4)
        finally:
            set_executor(prev)
        assert _max_diff(uni, pad) < BAND
        assert stats.nfev > 0

    def test_replay_matches_eager_bitwise(self):
        func_for, y0, grids = _random_problem(8, seed=11)
        outs = {}
        prev = get_executor()
        try:
            for mode in ("eager", "replay"):
                set_executor(mode)
                with no_grad():
                    outs[mode], _ = union_solve(func_for, y0, grids)
        finally:
            set_executor(prev)
        for e, r in zip(outs["eager"], outs["replay"]):
            np.testing.assert_array_equal(e.data, r.data)


class TestGradients:
    def test_union_solve_is_differentiable(self):
        """The dense-readout gathers keep the graph connected to y0."""
        func_for, y0, grids = _random_problem(5, seed=12)
        y0 = Tensor(y0.data, requires_grad=True)
        outs, _ = union_solve(func_for, y0, grids)
        loss = sum((o * o).sum() for o in outs if o.data.size)
        loss.backward()
        assert y0.grad is not None
        assert np.isfinite(y0.grad).all()
        assert float(np.abs(y0.grad).max()) > 0.0
