"""Adaptive Dormand-Prince solver tests."""

import numpy as np
import pytest

from repro.autodiff import Tensor, get_executor
from repro.odeint import PIController, SolverOptions, solve
from repro.parallel.union import dopri5_dense_solve


def _final(func, y0, t0, t1, **tolerances):
    """y(t1) of one adaptive solve from (t0, y0)."""
    return solve(func, y0, [t0, t1], method="dopri5",
                 options=SolverOptions(**tolerances)).ys[-1]


class TestDopri5:
    def test_zero_span_returns_input(self):
        # Every observation at t0: the union readout integrates nothing.
        y0 = Tensor(np.ones((2, 2)))
        per, stats = dopri5_dense_solve(lambda t, y: -y, y0,
                                        [np.array([1.0])] * 2, t0=1.0)
        assert stats.nfev == 0
        for i, out in enumerate(per):
            np.testing.assert_array_equal(out.data, y0.data[i:i + 1])

    def test_tolerance_controls_error(self):
        def err(rtol):
            out = _final(lambda t, y: -y, Tensor(np.array([[1.0]])),
                         0.0, 3.0, rtol=rtol, atol=rtol * 1e-2)
            return abs(out.data[0, 0] - np.exp(-3.0))

        assert err(1e-8) < err(1e-3)
        assert err(1e-8) < 1e-7

    def test_stiffish_problem_adapts(self):
        # lambda = -50 forces small steps initially
        out = _final(lambda t, y: y * (-50.0), Tensor(np.array([[1.0]])),
                     0.0, 1.0, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(out.data[0, 0], np.exp(-50.0), atol=1e-7)

    def test_backward_integration(self):
        out = _final(lambda t, y: -y, Tensor(np.array([[np.exp(-1.0)]])),
                     1.0, 0.0)
        np.testing.assert_allclose(out.data[0, 0], 1.0, atol=1e-5)

    def test_max_steps_guard(self):
        with pytest.raises(RuntimeError):
            _final(lambda t, y: y * 1000.0, Tensor(np.array([[1.0]])),
                   0.0, 10.0, rtol=1e-12, atol=1e-14, max_steps=5)

    def test_time_dependent_rhs(self):
        # y' = 2t -> y(1) = y(0) + 1
        out = _final(lambda t, y: Tensor(np.full_like(y.data, 2.0 * t)),
                     Tensor(np.array([[0.5]])), 0.0, 1.0)
        np.testing.assert_allclose(out.data[0, 0], 1.5, atol=1e-6)


class TestFSALAccounting:
    """FSAL: every trial step after the first costs exactly 6 RHS evals."""

    def test_nfev_is_six_per_trial_step(self):
        calls = []

        def f(t, y):
            calls.append(t)
            return -y

        stats = solve(f, Tensor(np.ones((1, 2))),
                      np.linspace(0.0, 2.0, 9)).stats
        if get_executor() == "replay":
            # The replay executor re-runs the recorded trace without
            # re-entering the Python RHS; only the trace + validation
            # calls (per cache key) are visible to the closure.
            assert 2 <= len(calls) < stats.nfev
        else:
            assert stats.nfev == len(calls)
        # 1 initial eval + 1 for the starting-step heuristic + 6 per trial.
        assert stats.nfev == 2 + 6 * (stats.steps + stats.rejects)

    def test_rejections_are_counted(self):
        # The starting-step heuristic overshoots on this stiff decay.
        stats = solve(lambda t, y: y * (-80.0), Tensor(np.ones((1, 1))),
                      [0.0, 1.0],
                      options=SolverOptions(rtol=1e-8, atol=1e-10)).stats
        assert stats.rejects >= 1
        assert stats.nfev == 2 + 6 * (stats.steps + stats.rejects)


class TestDenseOutput:
    def test_interpolant_matches_tight_restart_solve(self):
        # y' = y cos(t)  ->  y = exp(sin t); 13 interior output times.
        def f(t, y):
            return y * np.cos(t)

        times = np.linspace(0.0, 3.0, 15)
        res = solve(f, Tensor(np.array([[1.0]])), times,
                    options=SolverOptions(rtol=1e-7, atol=1e-9))
        assert res.stats.dense_evals > 0
        for i, tq in enumerate(times[1:], start=1):
            ref = _final(f, Tensor(np.array([[1.0]])), 0.0, float(tq),
                         rtol=1e-11, atol=1e-13)
            assert abs(res.ys.data[i, 0, 0] - ref.data[0, 0]) <= 1e-6

    def test_nfev_independent_of_output_count(self):
        """50 irregular output times must not cost ~50x the RHS evals."""
        rng_times = np.sort(np.concatenate([
            [0.0, 2.0], 2.0 * (np.arange(1, 49) ** 1.3 % 1.0)]))
        rng_times = np.unique(rng_times)
        assert len(rng_times) >= 50 - 3

        few = solve(lambda t, y: -y, Tensor(np.ones((1, 1))),
                    np.linspace(0.0, 2.0, 5)).stats
        many = solve(lambda t, y: -y, Tensor(np.ones((1, 1))),
                     rng_times).stats
        # Identical dynamics and span: the step sequence is what costs.
        assert many.nfev <= few.nfev * 1.25
        assert many.dense_evals >= len(rng_times) - 10

    def test_dense_output_is_differentiable(self):
        y0 = Tensor(np.array([[1.0]]), requires_grad=True)
        res = solve(lambda t, y: -y, y0, np.linspace(0.0, 1.0, 11))
        assert res.stats.dense_evals > 0
        res.ys.sum().backward()
        expected = sum(np.exp(-t) for t in np.linspace(0.0, 1.0, 11))
        np.testing.assert_allclose(y0.grad, [[expected]], atol=1e-5)

    def test_backward_time_dense_output(self):
        times = np.linspace(1.0, 0.0, 7)
        sol = solve(lambda t, y: -y,
                    Tensor(np.array([[np.exp(-1.0)]])), times).ys
        np.testing.assert_allclose(sol.data[:, 0, 0], np.exp(-times),
                                   atol=1e-6)


class TestPerSampleControl:
    def test_batched_matches_single_sample_solves(self):
        """Batching must not change any sample's trajectory beyond tol."""
        rates = np.array([[0.5], [5.0], [40.0]])

        def batched(t, y):
            return y * Tensor(-rates)

        times = np.linspace(0.0, 1.0, 9)
        sol = solve(batched, Tensor(np.ones((3, 1))), times).ys

        for i, rate in enumerate(rates[:, 0]):
            single = solve(lambda t, y, r=rate: y * (-r),
                           Tensor(np.ones((1, 1))), times).ys
            np.testing.assert_allclose(sol.data[:, i, 0],
                                       single.data[:, 0, 0], atol=2e-5)
        np.testing.assert_allclose(sol.data[-1, :, 0],
                                   np.exp(-rates[:, 0]), atol=1e-5)

    def test_easy_samples_freeze(self):
        """A settled sample stops contributing to step-size control."""
        rates = np.array([[0.01], [30.0]])
        stats = solve(lambda t, y: y * Tensor(-rates),
                      Tensor(np.ones((2, 1))), [0.0, 1.0]).stats
        assert stats.freeze_counts is not None
        assert stats.freeze_counts.shape == (2,)
        # The near-constant sample froze; the stiff one kept control.
        assert stats.freeze_counts[0] > 0
        assert stats.freeze_counts[0] >= stats.freeze_counts[1]

    def test_frozen_sample_still_respects_tolerance(self):
        """Freezing must never trade away accuracy: a sample whose error
        later exceeds tolerance un-freezes and forces rejections."""
        # Sample 0 is dormant until t=1.5 and then turns stiff; sample 1 is
        # mildly active throughout so steps can grow while 0 is dormant.
        def f(t, y):
            gains = np.array([[-60.0 if t > 1.5 else -1e-4], [-1.0]])
            return y * Tensor(gains)

        times = [0.0, 3.0]
        opts = SolverOptions(rtol=1e-6, atol=1e-8)
        sol = solve(f, Tensor(np.ones((2, 1))), times, options=opts).ys
        # Reference: the same stiff sample solved alone.
        ref = solve(lambda t, y: y * (-60.0 if t > 1.5 else -1e-4),
                    Tensor(np.ones((1, 1))), times, options=opts).ys
        np.testing.assert_allclose(sol.data[-1, 0, 0], ref.data[-1, 0, 0],
                                   atol=1e-5)


class TestPIController:
    """Accept/reject and step-size updates on a hand-computed scenario."""

    def test_two_step_hand_computed_scenario(self):
        c = PIController()
        alpha, beta = 0.7 / 5.0, 0.4 / 5.0

        # Step 1: err = 1e-4, accepted. err_prev is 1.0, so the update is
        # pure I-control: factor = 0.9 * (1e-4)^-0.14 = 3.2677029...
        assert c.accept(1e-4)
        dt1 = c.next_dt(0.1, 1e-4, accepted=True)
        assert dt1 == pytest.approx(0.1 * 0.9 * 1e-4 ** -alpha)
        assert dt1 == pytest.approx(0.32677029, rel=1e-6)

        # Step 2: err = 4.0, rejected. Shrink with the plain I-factor
        # 0.9 * 4^-0.2 = 0.6820724...; err_prev stays 1e-4.
        assert not c.accept(4.0)
        dt2 = c.next_dt(dt1, 4.0, accepted=False)
        assert dt2 == pytest.approx(dt1 * 0.9 * 4.0 ** -0.2)
        assert dt2 == pytest.approx(0.22288099, rel=1e-6)

        # Step 3: err = 0.5, accepted. Full PI update with the memory of
        # err_prev = 1e-4: factor = 0.9 * 0.5^-0.14 * (1e-4)^0.08.
        dt3 = c.next_dt(dt2, 0.5, accepted=True)
        assert dt3 == pytest.approx(
            dt2 * 0.9 * 0.5 ** -alpha * 1e-4 ** beta)
        assert dt3 == pytest.approx(0.10579368, rel=1e-5)

    def test_growth_is_clamped(self):
        c = PIController()
        assert c.next_dt(1.0, 1e-12, accepted=True) == pytest.approx(5.0)

    def test_no_growth_right_after_rejection(self):
        c = PIController()
        c.next_dt(1.0, 4.0, accepted=False)
        # A tiny error would normally grow 5x; post-rejection it is capped.
        assert c.next_dt(1.0, 1e-12, accepted=True) == pytest.approx(1.0)

    def test_shrink_is_bounded_below(self):
        c = PIController()
        assert c.next_dt(1.0, 1e12, accepted=False) == pytest.approx(0.1)
