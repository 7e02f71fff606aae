"""Benchmark targets: ``python -m repro.benchmarks
[solver|parallel|ir|batching|memory|streaming|serving]``.

``solver`` (the default) runs a representative dopri5 workload (a batch of
decays whose rates span two orders of magnitude, read out on an irregular
grid) through the current adaptive solver and through an emulation of the
seed solver -- one restarted adaptive integration per output interval,
``dt`` reset to ``span/10`` each time, 7 RHS evaluations per trial step
(no FSAL), one global RMS error norm and plain I-control -- then reports
the saved RHS evaluations as ``BENCH_solver.json``.

``parallel`` times one training epoch of a GRU baseline on a long-tailed
synthetic dataset through the legacy full-batch path (``workers=0``) and
the data-parallel worker pool (``workers`` in 2, 4), reporting epoch
seconds and speedups as ``BENCH_parallel.json``.  An ``in-process
sharded`` transparency row separates the two sources of speedup: compact
per-shard re-collation (effective even on one core) vs process
parallelism (needs real cores); ``cpu_count`` records which regime the
numbers were taken in.

``ir`` times a neural-network right-hand side under the eager executor
and under trace-and-replay (``BENCH_ir.json``), whose ``no_grad`` calls
run the generated kernel: a direct RHS microbenchmark (per-call wall
time and speedup), plus a full dopri5 solve per executor with the
``ir.*`` trace-cache counters (builds, hits, misses, hit rate) and a
bit-compare of the two solutions.

``batching`` compares union-grid batched solves against the per-shard
padded baseline (``BENCH_batching.json``) on PhysioNet- and LargeST-like
observation grids with varied windows: NFE per sample under
:func:`repro.parallel.union_solve` (overlap-planned buckets, one dopri5
solve each, per-sample dense readout) vs
:func:`repro.parallel.padded_shard_solve`, plus a tolerance check that
the two drivers' outputs agree.

``streaming`` measures the incremental online-inference path
(``BENCH_streaming.json``): one long drifting series of 100 to 5000
observations consumed one at a time through ``DiffODE.open_stream``.  The
incremental session (rank-1 ``ContextState.extend`` + resumed solves)
reports per-observation latency at checkpoints along the stream; the
full-recompute cost at arrival ``k`` is the cumulative wall time of the
exact session through ``k`` -- exactly what a stateless server replaying
the prequential evolution from scratch would pay for that arrival.
Also checks that the two sessions' predictions agree within the solver
tolerance band and that a split resumable solve is bitwise-equal to the
monolithic one on the same grid.

``serving`` measures the async inference-serving stack end to end over
real sockets (``BENCH_serving.json``): 64 distinct cold series blasted
concurrently through a ``max_batch=16`` server vs a ``max_batch=1``
server (dynamic micro-batching routes co-arriving series into shared
union-grid solves — at least a 2x throughput gain), cold vs repeat-series
warm-cache request latency (per-series context cache: rank-1 extends +
resumed solves — warm p50 at most half of cold), a served-vs-offline
accuracy check (every prediction within ``50*(atol+rtol*|y|)`` of a
single-series ``solve()``), and an open-loop Poisson QPS sweep with
latency percentiles.

``memory`` measures long-horizon backward-pass storage
(``BENCH_memory.json``): one rk4 solve over 50 to 5000 uniform readouts
(one accepted step per interval) under plain backprop-through-the-solver
(replay executor, full frames), trace-checkpointed backprop
(``REPRO_CHECKPOINT_GRADS=on``, frames keep only the step input) and the
continuous adjoint (no tape at all; the retained output states are its
storage).  Reports peak backward-pass bytes and wall time per mode, the
reduction factors at each length, a bit-compare of the checkpointed
gradients against plain backprop (must be exactly 0) and the adjoint's
gradient error against its tolerance band.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import sys
import time

import numpy as np

from .autodiff import Tensor, no_grad
from .odeint import SolverOptions, solve

__all__ = ["solver_workload", "run_current_solver", "run_seed_emulation",
           "run", "parallel_workload", "run_parallel", "ir_workload",
           "run_ir", "batching_workloads",
           "run_batching", "run_memory", "run_streaming", "run_serving",
           "main"]

RTOL, ATOL = 1e-5, 1e-7

# Seed tableau (identical coefficients; only the driver logic differed).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


def solver_workload():
    """Batch-16 exponential decays, rates 0.5..40, 20 irregular readouts."""
    rates = np.geomspace(0.5, 40.0, 16)[:, None]
    rng = np.random.default_rng(7)
    times = np.concatenate([[0.0], np.sort(rng.random(18)), [1.0]])

    def rhs(t, y):
        return y * Tensor(-rates)

    return rhs, rates, times


def run_current_solver():
    rhs, rates, times = solver_workload()
    with no_grad():
        solution = solve(rhs, Tensor(np.ones_like(rates)), times,
                         method="dopri5",
                         options=SolverOptions(rtol=RTOL, atol=ATOL))
        sol, stats = solution.ys, solution.stats
    exact = np.exp(-rates[:, 0][None, :] * times[:, None])
    err = float(np.abs(sol.data[:, :, 0] - exact).max())
    return stats, err


def _seed_interval(f, y, t0, t1, rtol, atol):
    """The seed solver's per-interval loop on plain arrays; returns
    ``(y(t1), trial_steps)`` -- each trial step cost 7 RHS evals."""
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    dt = span / 10.0
    t, trials = t0, 0
    while (t1 - t) * direction > 1e-12:
        dt = min(dt, abs(t1 - t))
        h = direction * dt
        trials += 1
        k = []
        for stage in range(7):
            yi = y
            for j, a in enumerate(_A[stage]):
                if a != 0.0:
                    yi = yi + k[j] * (a * h)
            k.append(f(t + _C[stage] * h, yi))
        y5 = y
        y4 = y.copy()
        for j in range(7):
            if _B5[j] != 0.0:
                y5 = y5 + k[j] * (_B5[j] * h)
            if _B4[j] != 0.0:
                y4 = y4 + k[j] * (_B4[j] * h)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0 or dt <= 1e-10 * span:
            t, y = t + h, y5
            dt *= float(np.clip(0.9 * max(err, 1e-10) ** -0.2, 0.2, 5.0))
        else:
            dt *= float(np.clip(0.9 * err ** -0.25, 0.1, 0.9))
    return y, trials


def run_seed_emulation():
    _, rates, times = solver_workload()

    def f(t, y):
        return -rates * y

    y = np.ones_like(rates)
    trials = 0
    outputs = [y]
    for t0, t1 in zip(times[:-1], times[1:]):
        y, n = _seed_interval(f, y, float(t0), float(t1), RTOL, ATOL)
        trials += n
        outputs.append(y)
    exact = np.exp(-rates[:, 0][None, :] * times[:, None])
    err = float(np.abs(np.stack(outputs)[:, :, 0] - exact).max())
    return 7 * trials, err


def run(out_path: str | pathlib.Path = "BENCH_solver.json") -> dict:
    stats, err_new = run_current_solver()
    nfev_seed, err_seed = run_seed_emulation()
    payload = {
        "workload": "batch-16 decay, rates 0.5..40, 20 irregular readouts",
        "rtol": RTOL,
        "atol": ATOL,
        **stats.as_dict(),
        "max_abs_error": err_new,
        "seed_nfev": nfev_seed,
        "seed_max_abs_error": err_seed,
        "nfev_reduction": 1.0 - stats.nfev / nfev_seed,
    }
    path = pathlib.Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def parallel_workload(n: int = 96, seed: int = 0):
    """Long-tailed synthetic classification set: 85% short series (4-11
    observations), 15% long (110-159).  Full-batch collation pads every
    sample to the batch maximum, so this is the regime where the worker
    pool's length-sorted shard trimming pays off."""
    from .data import Dataset, Sample

    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        if rng.random() < 0.85:
            length = int(rng.integers(4, 12))
        else:
            length = int(rng.integers(110, 160))
        label = int(rng.random() > 0.5)
        samples.append(Sample(
            times=np.sort(rng.random(length)),
            values=rng.normal(loc=1.0 if label else -1.0, size=(length, 4)),
            label=label))
    return Dataset("bench-parallel", samples, num_features=4, num_classes=2)


def _time_epoch(data, workers: int, sharded: bool,
                repeats: int = 5) -> float:
    """Best-of-``repeats`` seconds per seeded epoch (after a one-batch
    warm-up that forks the workers and touches the arenas, so steady-state
    cost is measured; the min filters scheduler noise)."""
    from .baselines import GRUBaseline
    from .parallel import ParallelConfig
    from .training import TrainConfig, Trainer

    model = GRUBaseline(data.input_dim, 128, np.random.default_rng(0),
                        num_classes=2)
    parallel = (ParallelConfig(workers=workers, shard_size=16)
                if sharded else None)
    trainer = Trainer(model, "classification",
                      TrainConfig(batch_size=96, seed=0), parallel=parallel)
    try:
        trainer.train_epoch(data, np.random.default_rng(2), max_batches=1)
        best = float("inf")
        for rep in range(repeats):
            start = time.perf_counter()
            trainer.train_epoch(data, np.random.default_rng(3 + rep))
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        trainer.close()


def run_parallel(out_path: str | pathlib.Path = "BENCH_parallel.json",
                 workers: tuple[int, ...] = (0, 2, 4)) -> dict:
    data = parallel_workload()
    baseline = _time_epoch(data, 0, sharded=False)
    rows = [{"workers": 0, "mode": "full-batch (legacy)",
             "epoch_seconds": baseline, "speedup_vs_workers0": 1.0}]
    rows.append({
        "workers": 0, "mode": "in-process sharded",
        "epoch_seconds": (t := _time_epoch(data, 0, sharded=True)),
        "speedup_vs_workers0": baseline / t})
    for w in workers:
        if w == 0:
            continue
        rows.append({
            "workers": w, "mode": "worker pool",
            "epoch_seconds": (t := _time_epoch(data, w, sharded=True)),
            "speedup_vs_workers0": baseline / t})
    payload = {
        "workload": ("GRU baseline, 96 long-tailed samples "
                     "(85% len 4-11, 15% len 110-159), batch 96, shard 16"),
        "cpu_count": os.cpu_count(),
        "note": ("workers=0 rows isolate the shard-trimming gain; on a "
                 "single-core host the worker rows add only IPC overlap, "
                 "on multicore they add process parallelism"),
        "rows": rows,
    }
    path = pathlib.Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@contextlib.contextmanager
def _modes(executor: str, checkpoint_grads: str | None = None):
    """Run the block under the given execution modes, then restore the
    caller's: a benchmark leaves the process's settings as it found them."""
    from .autodiff import (get_checkpoint_grads, get_executor,
                           set_checkpoint_grads, set_executor)

    prev = get_executor(), get_checkpoint_grads()
    set_executor(executor)
    try:
        if checkpoint_grads is not None:
            set_checkpoint_grads(checkpoint_grads)
        yield
    finally:
        set_executor(prev[0])
        set_checkpoint_grads(prev[1])


def ir_workload(batch: int = 16, hidden: int = 16, seed: int = 3):
    """Two-hidden-layer MLP dynamics at DIFFODE-scale widths: the regime
    where per-op Python dispatch, not numpy compute, dominates the RHS --
    exactly the overhead trace-and-replay removes."""
    from .autodiff import time_tensor

    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.standard_normal((hidden, hidden)) * 0.2, name="w1")
    b1 = Tensor(rng.standard_normal((1, hidden)) * 0.1, name="b1")
    w2 = Tensor(rng.standard_normal((hidden, hidden)) * 0.2, name="w2")
    b2 = Tensor(rng.standard_normal((1, hidden)) * 0.1, name="b2")
    w3 = Tensor(rng.standard_normal((hidden, hidden)) * 0.2, name="w3")

    def rhs(t, y):
        tt = time_tensor(t, (batch, 1))
        h = (y @ w1 + b1 + tt).tanh()
        h = (h @ w2 + b2).tanh()
        return h @ w3 - y * 0.5

    y0 = rng.standard_normal((batch, hidden)) * 0.3
    return rhs, y0


def _time_rhs_calls(fn, y, calls: int, repeats: int = 9) -> float:
    """Best-of-``repeats`` seconds per call of ``fn(t, y)`` under no_grad."""
    best = float("inf")
    with no_grad():
        for _ in range(repeats):
            start = time.perf_counter()
            for i in range(calls):
                fn(0.5, y)
            best = min(best, time.perf_counter() - start)
    return best / calls


def _solve_ir(mode: str):
    """One no_grad dopri5 solve of the ir workload under ``mode``; returns
    (solution array, nfev, seconds, ir.* counter snapshot)."""
    from .telemetry import get_registry

    rhs, y0 = ir_workload()
    times = np.linspace(0.0, 2.0, 9)
    reg = get_registry()
    reg.reset()
    reg.enable()
    try:
        with _modes(mode), no_grad():
            start = time.perf_counter()
            solution = solve(rhs, Tensor(y0), times, method="dopri5",
                             options=SolverOptions(rtol=RTOL, atol=ATOL))
            sol, stats = solution.ys, solution.stats
            elapsed = time.perf_counter() - start
        counters = {name: c.value for name, c in reg.counters.items()
                    if name.startswith("ir.")}
    finally:
        reg.disable()
        reg.reset()
    return sol.data.copy(), stats.nfev, elapsed, counters


def run_ir(out_path: str | pathlib.Path = "BENCH_ir.json",
           calls: int = 300) -> dict:
    from .autodiff import CompiledFunction

    # -- RHS microbenchmark: eager vs warmed replay --------------------
    rhs, y0 = ir_workload()
    y = Tensor(y0)
    eager_s = _time_rhs_calls(rhs, y, calls)

    compiled = CompiledFunction(rhs)
    with _modes("replay"):
        with no_grad():
            compiled(0.5, y)        # trace
            compiled(0.5, y)        # validate, lower to the kernel
        replay_s = _time_rhs_calls(compiled, y, calls)

    # -- full dopri5 solve per executor with trace-cache counters ------
    sol_eager, nfev, eager_solve_s, _ = _solve_ir("eager")
    sol_replay, nfev_replay, replay_solve_s, counters = _solve_ir("replay")
    hits = counters.get("ir.replay_hits", 0.0)
    misses = counters.get("ir.replay_misses", 0.0)

    payload = {
        "workload": ("batch-16 hidden-16 two-layer MLP dynamics, "
                     "9 readouts over t in [0, 2]"),
        "rhs_calls": calls,
        "eager_rhs_us": eager_s * 1e6,
        "replay_rhs_us": replay_s * 1e6,
        "rhs_speedup": eager_s / replay_s,
        "solve": {
            "nfev": nfev,
            "nfev_replay": nfev_replay,
            "eager_seconds": eager_solve_s,
            "replay_seconds": replay_solve_s,
            "solve_speedup": eager_solve_s / replay_solve_s,
            "max_abs_diff_vs_eager": float(
                np.abs(sol_eager - sol_replay).max()),
        },
        "trace_cache": {
            "trace_builds": counters.get("ir.trace_builds", 0.0),
            "replay_hits": hits,
            "replay_misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        },
    }
    path = pathlib.Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _main_ir(out: str) -> int:
    payload = run_ir(out)
    cache = payload["trace_cache"]
    solve = payload["solve"]
    print(f"RHS microbenchmark ({payload['rhs_calls']} calls, no_grad)")
    print(f"  eager:  {payload['eager_rhs_us']:8.1f} us/call")
    print(f"  replay: {payload['replay_rhs_us']:8.1f} us/call  "
          f"({payload['rhs_speedup']:.2f}x)")
    print(f"dopri5 solve (nfev={solve['nfev']})")
    print(f"  eager:  {solve['eager_seconds']:.3f}s")
    print(f"  replay: {solve['replay_seconds']:.3f}s  "
          f"({solve['solve_speedup']:.2f}x)  "
          f"max|diff|={solve['max_abs_diff_vs_eager']:.1e}")
    print(f"  trace cache: {cache['trace_builds']:.0f} builds, "
          f"{cache['replay_hits']:.0f} hits / "
          f"{cache['replay_misses']:.0f} misses "
          f"(hit rate {cache['hit_rate']:.1%})")
    print(f"  wrote {out}")
    return 0


def batching_workloads(n: int = 96, seed: int = 0) -> list[dict]:
    """Two irregular-grid batched-solve workloads for the union-grid
    benchmark, built on the repo's dataset generators so the time-grid
    statistics match the experiments:

    * ``physionet-like`` — per-patient observation grids from
      :func:`repro.data.generate_patient` (Poisson event times rounded to
      6-minute bins, normalized to [0, 1] by the 48 h horizon), truncated
      at a random "discharge" fraction of the stay so spans vary and span
      clustering matters;
    * ``largest-like`` — hourly sensor grids from
      :func:`repro.data.generate_sensor` with half the points masked out
      and a random contiguous observation window per sensor.

    Each entry is ``{"name", "func_for", "y0", "sample_times"}`` ready for
    :func:`repro.parallel.union_solve` / ``padded_shard_solve``.  The
    dynamics are batched forced decays ``y' = -r y + a sin(2 pi t)`` with
    per-sample rates/amplitudes (drawn from the generator statistics where
    available), so the RHS must be sliced per bucket exactly like model
    dynamics closing over per-sample context.
    """
    from .data import generate_patient, generate_sensor

    dim = 6
    workloads = []

    # PhysioNet-like: 6-minute-bin grids, random discharge fraction.
    rng = np.random.default_rng(seed)
    loadings = rng.normal(size=37)
    grids = []
    for _ in range(n):
        times, _values, _fmask = generate_patient(rng, loadings)
        frac = rng.uniform(0.3, 1.0)
        times = times[times <= frac]
        if times.size > 32:  # bound the dense-readout cost, keep the span
            keep = np.sort(rng.choice(times.size, size=32, replace=False))
            times = times[keep]
        if times.size < 2:
            times = np.array([0.0, frac])
        grids.append(np.asarray(times, dtype=np.float64))
    rates = rng.uniform(0.3, 3.0, size=(n, dim))
    amps = rng.uniform(-1.0, 1.0, size=(n, dim))
    workloads.append({
        "name": "physionet-like",
        "func_for": _forced_decay_factory(rates, amps),
        "y0": Tensor(rng.normal(size=(n, dim))),
        "sample_times": grids,
    })

    # LargeST-like: masked hourly grids over random contiguous windows.
    rng = np.random.default_rng(seed + 1)
    grids, rates_rows, amps_rows = [], [], []
    length = 168  # one week of hours
    for _ in range(n):
        flow = generate_sensor(length, rng)
        start = int(rng.integers(0, length // 2))
        width = int(rng.integers(length // 4, length - length // 4))
        keep = rng.random(length) > 0.5
        hours = np.arange(length, dtype=np.float64)
        window = (hours >= start) & (hours < start + width)
        times = hours[keep & window] / float(length)
        if times.size > 28:
            sub = np.sort(rng.choice(times.size, size=28, replace=False))
            times = times[sub]
        if times.size < 2:
            times = np.array([start, start + 1.0]) / float(length)
        grids.append(times)
        # Tie the dynamics to the generator: stiffness from the flow's
        # variability, forcing from its level.
        scale = max(float(flow.std()), 1.0)
        rates_rows.append(rng.uniform(0.5, 2.0, size=dim)
                          * (1.0 + float(flow.std()) / scale))
        amps_rows.append(rng.normal(size=dim) * float(flow.mean()) / 500.0)
    workloads.append({
        "name": "largest-like",
        "func_for": _forced_decay_factory(np.array(rates_rows),
                                          np.array(amps_rows)),
        "y0": Tensor(np.random.default_rng(seed + 2).normal(size=(n, dim))),
        "sample_times": grids,
    })
    return workloads


def _forced_decay_factory(rates: np.ndarray, amps: np.ndarray):
    """``func_for(idx)`` building ``y' = -r y + a sin(2 pi t)`` restricted
    to the batch rows ``idx`` (the per-sample-context slicing contract of
    the union/padded drivers)."""
    def func_for(idx: np.ndarray):
        neg_r = Tensor(-rates[idx])
        a = amps[idx]

        def rhs(t, y):
            return y * neg_r + Tensor(a * np.sin(2.0 * np.pi * float(t)))

        return rhs
    return func_for


def _batching_row(name: str, func_for, y0: Tensor,
                  sample_times: list[np.ndarray], *,
                  shard_size: int, max_bucket: int) -> dict:
    """Solve one workload both ways and compare cost and outputs."""
    from .data import plan_union_buckets
    from .parallel import padded_shard_solve, union_solve

    with no_grad():
        start = time.perf_counter()
        pad_out, pad_stats = padded_shard_solve(
            func_for, y0, sample_times, shard_size=shard_size,
            rtol=RTOL, atol=ATOL)
        pad_s = time.perf_counter() - start
        start = time.perf_counter()
        uni_out, uni_stats = union_solve(
            func_for, y0, sample_times, max_bucket=max_bucket,
            rtol=RTOL, atol=ATOL)
        uni_s = time.perf_counter() - start

    n = len(sample_times)
    max_diff = scale = 0.0
    for u, p in zip(uni_out, pad_out):
        if u.data.size:
            max_diff = max(max_diff, float(np.abs(u.data - p.data).max()))
            scale = max(scale, float(np.abs(p.data).max()))
    # "Within solver tolerance": both drivers hold a local error budget of
    # rtol*|y|+atol per step, so their outputs may drift apart by a small
    # multiple of that band over the integration.
    tol_band = 50.0 * (ATOL + RTOL * scale)

    buckets = plan_union_buckets(sample_times, max_bucket=max_bucket)
    return {
        "workload": name,
        "n_samples": n,
        "nfev_padded": pad_stats.nfev,
        "nfev_union": uni_stats.nfev,
        "nfe_per_sample_padded": pad_stats.nfev / n,
        "nfe_per_sample_union": uni_stats.nfev / n,
        "nfe_reduction": 1.0 - uni_stats.nfev / max(pad_stats.nfev, 1),
        "max_abs_diff": max_diff,
        "tolerance_band": tol_band,
        "within_tolerance": bool(max_diff <= tol_band),
        "buckets": len(buckets),
        "mean_bucket_size": float(np.mean([b.size for b in buckets])),
        "mean_union_grid_len": float(np.mean([len(b.grid)
                                              for b in buckets])),
        "padded_seconds": pad_s,
        "union_seconds": uni_s,
    }


def run_batching(out_path: str | pathlib.Path = "BENCH_batching.json",
                 n: int = 96, seed: int = 0, *, shard_size: int = 8,
                 max_bucket: int = 64) -> dict:
    """Union-grid batching vs the per-shard padded baseline.

    For each workload of :func:`batching_workloads` the batch is solved
    once with :func:`repro.parallel.padded_shard_solve` (shards of
    ``shard_size`` length-sorted rows, each over its padded common grid —
    the pre-union training behaviour) and once with
    :func:`repro.parallel.union_solve` (overlap-planned buckets up to
    ``max_bucket`` rows, one dopri5 solve per bucket, per-sample dense
    readout).  Reports NFE per sample for both, the reduction, and the
    max output difference against the solver-tolerance band.
    """
    rows = [_batching_row(w["name"], w["func_for"], w["y0"],
                          w["sample_times"], shard_size=shard_size,
                          max_bucket=max_bucket)
            for w in batching_workloads(n=n, seed=seed)]
    payload = {
        "rtol": RTOL, "atol": ATOL,
        "shard_size": shard_size, "max_bucket": max_bucket,
        "note": ("nfe_per_sample_union < nfe_per_sample_padded because one "
                 "adaptive solve's RHS evaluations amortize over the whole "
                 "bucket; per-sample error norms keep the accuracy, the "
                 "dense interpolant reads each sample's own grid back out"),
        "rows": rows,
    }
    path = pathlib.Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# streaming: incremental online inference vs full prequential recompute
# ---------------------------------------------------------------------------


def _streaming_model(n_obs: int, seed: int):
    """Tiny dopri5 regression model sized for an ``n_obs`` stream."""
    from .core import DiffODE, DiffODEConfig

    return DiffODE(DiffODEConfig(
        input_dim=1, latent_dim=4, hidden_dim=8, num_heads=1,
        use_hippo=False, use_attention=True, method="dopri5",
        step_size=0.1, rtol=RTOL, atol=ATOL, out_dim=1, num_classes=None,
        max_len=n_obs + 8, seed=seed))


def _streaming_session_run(model, sample, *, incremental: bool):
    """Stream ``sample`` through one session; returns the predictions."""
    from .data import iter_stream

    session = model.open_stream(incremental=incremental)
    preds = [session.step(obs) for obs in iter_stream(sample)]
    return preds, session


def _resume_bitwise_check(model, sample) -> bool:
    """Split resumable solve == monolithic resumable solve, bitwise.

    Binds the model's dynamics to exact contexts over the stream prefix
    (a real DHS right-hand side, not a toy), solves a 9-point grid in one
    resumable call and again split at the middle output, and compares the
    trajectories exactly.
    """
    from .core.dhs import ContextState

    z = model.encode(np.asarray(sample.values)[None, :8],
                     np.asarray(sample.times)[None, :8], np.ones((1, 8)))
    ctx = ContextState.build(Tensor(z.data), ridge=model.config.ridge)
    model.latent_dynamics.bind([ctx])
    y0 = Tensor(z.data[:, 0, :])
    grid = np.linspace(0.0, 1.0, 9)
    opts = SolverOptions(rtol=RTOL, atol=ATOL, resumable=True)
    with no_grad():
        whole = solve(model.dynamics, y0, grid, method="dopri5",
                      options=opts)
        first = solve(model.dynamics, y0, grid[:5], method="dopri5",
                      options=opts)
        second = solve(model.dynamics, None, grid[4:], method="dopri5",
                       resume_from=first.resume_state)
    stitched = np.concatenate([first.ys.data, second.ys.data[1:]], axis=0)
    return bool(np.array_equal(whole.ys.data, stitched))


def run_streaming(out_path: str | pathlib.Path = "BENCH_streaming.json",
                  lengths: tuple[int, ...] = (100, 500, 1000, 5000),
                  seed: int = 0) -> dict:
    """Incremental streaming step() vs full prequential recompute.

    For each stream length, one drifting series is consumed observation by
    observation through both session modes of
    :meth:`repro.core.DiffODE.open_stream`.  At checkpoints ``k`` along
    the stream the row reports

    * ``incremental_ms``: the incremental session's per-observation
      latency near ``k`` (should stay flat - the step is a rank-1 context
      extend plus a solve resumed over one inter-arrival interval);
    * ``recompute_ms``: cumulative exact-session wall time through ``k``
      - the cost a stateless server pays to replay the prequential
      evolution from scratch for arrival ``k``;
    * ``speedup``: their ratio.

    Also reports the max prediction deviation between the two sessions
    against the solver tolerance band, and a bitwise split-vs-monolithic
    check of the resumable solver on the bound DHS dynamics.
    """
    from .data import load_synthetic_drifting

    rows = []
    for n_obs in lengths:
        dataset = load_synthetic_drifting(
            num_series=1, grid_points=n_obs, keep_rate=1.0, drift=1.5,
            seed=seed, min_obs=min(12, n_obs))
        sample = dataset.samples[0]
        model = _streaming_model(n_obs, seed)

        inc_preds, inc_session = _streaming_session_run(
            model, sample, incremental=True)
        ex_preds, _ = _streaming_session_run(
            model, sample, incremental=False)

        max_dev = y_scale = 0.0
        for a, b in zip(inc_preds, ex_preds):
            if a.warmup:
                continue
            max_dev = max(max_dev, float(np.abs(a.y_hat - b.y_hat).max()))
            y_scale = max(y_scale, float(np.abs(b.y_hat).max()))
        tol_band = 50.0 * (ATOL + RTOL * y_scale)

        ex_cumsum = np.cumsum([p.latency for p in ex_preds])
        n = len(inc_preds)
        checkpoints = sorted({max(n // 10, 1), n // 4, n // 2, n - 1})
        marks = []
        for k in checkpoints:
            window = [p.latency for p in inc_preds[max(0, k - 25):k + 1]]
            inc_ms = float(np.median(window)) * 1e3
            rec_ms = float(ex_cumsum[k]) * 1e3
            marks.append({
                "k": int(k),
                "incremental_ms": inc_ms,
                "recompute_ms": rec_ms,
                "speedup": rec_ms / max(inc_ms, 1e-9),
            })
        stats = inc_session.context_stats
        rows.append({
            "n_obs": int(n),
            "checkpoints": marks,
            "total_incremental_s": float(sum(p.latency
                                             for p in inc_preds)),
            "total_recompute_s": float(ex_cumsum[-1]),
            "mean_nfev_incremental": float(np.mean([p.nfev
                                                    for p in inc_preds])),
            "extends": stats["extends"],
            "rebuilds": stats["rebuilds"],
            "max_pred_deviation": max_dev,
            "tolerance_band": tol_band,
            "within_tolerance": bool(max_dev <= tol_band),
            "resume_bitwise_equal": _resume_bitwise_check(model, sample),
        })

    final_marks = rows[-1]["checkpoints"]
    payload = {
        "rtol": RTOL, "atol": ATOL,
        "model": "DIFFODE d=4 single-head, no HiPPO, dopri5",
        "note": ("recompute_ms at arrival k is the cumulative exact-session "
                 "wall time through k: the cost of statelessly replaying "
                 "the prequential evolution (per-arrival context rebuild + "
                 "fresh solves) that the incremental session's carried "
                 "state avoids"),
        "rows": rows,
        "speedup_at_max": final_marks[-1]["speedup"],
    }
    path = pathlib.Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _main_streaming(out: str) -> int:
    payload = run_streaming(out)
    print(f"incremental streaming vs prequential recompute "
          f"(rtol={payload['rtol']:g} atol={payload['atol']:g})")
    for row in payload["rows"]:
        last = row["checkpoints"][-1]
        print(f"  n={row['n_obs']:>5}  step {last['incremental_ms']:7.2f} ms"
              f"  recompute {last['recompute_ms']:10.1f} ms  "
              f"({last['speedup']:8.1f}x)  "
              f"extends={row['extends']} rebuilds={row['rebuilds']}  "
              f"max|dev|={row['max_pred_deviation']:.1e} "
              f"{'OK' if row['within_tolerance'] else 'OUT OF TOLERANCE'}  "
              f"resume {'bitwise' if row['resume_bitwise_equal'] else 'DIFFERS'}")
    print(f"  wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# memory: long-horizon backward-pass storage (backprop / checkpointed /
# adjoint)
# ---------------------------------------------------------------------------

#: gradient-error band for the continuous adjoint in the memory benchmark:
#: both sweeps are 4th order on the same grid, so the disagreement is a
#: small multiple of the forward truncation error, far below this.
ADJOINT_GRAD_BAND = 1e-5


def _memory_mode_run(mode: str, n_obs: int, dim: int, batch: int, seed: int):
    """One rk4 solve + backward over ``n_obs`` readouts under ``mode``.

    Returns ``(peak_backward_bytes, wall_seconds, steps, gy, gparams)``.
    Peak bytes count what the backward pass keeps alive: replay tape frames
    for the backprop modes, the retained per-readout output states (plus
    the one transient VJP frame) for the adjoint.
    """
    from .autodiff import reset_tape_stats, tape_stats
    from .nn import Linear, Module

    class _Field(Module):
        def __init__(self, rng):
            super().__init__()
            self.lin = Linear(dim, dim, rng)

        def forward(self, t, y):
            return self.lin(y).tanh() * 0.9

    rng = np.random.default_rng(seed)
    field = _Field(rng)
    y0 = Tensor(rng.normal(size=(batch, dim)), requires_grad=True)
    times = np.linspace(0.0, 1.0, n_obs)
    opts = SolverOptions(step_size=float(times[1] - times[0]),
                         adjoint=(mode == "adjoint"))

    with _modes("replay", checkpoint_grads=("on" if mode == "checkpointed"
                                            else "off")):
        reset_tape_stats()
        start = time.perf_counter()
        sol = solve(field, y0, times, method="rk4", options=opts)
        (sol.ys ** 2).mean().backward()
        wall = time.perf_counter() - start

    peak = tape_stats()["peak_bytes"]
    if mode == "adjoint":
        peak += sol.ys.data.nbytes
    return (peak, wall, sol.stats.steps, y0.grad.copy(),
            [p.grad.copy() for p in field.parameters()])


def run_memory(out_path: str | pathlib.Path = "BENCH_memory.json",
               lengths: tuple[int, ...] = (50, 500, 2000, 5000),
               dim: int = 8, batch: int = 4, seed: int = 0) -> dict:
    """Peak backward-pass bytes and wall time vs sequence length.

    Same workload per mode (identical seed, field and grid), so the
    checkpointed gradients must match plain backprop bitwise and the
    adjoint gradients must land within :data:`ADJOINT_GRAD_BAND`.
    """
    rows = []
    for n_obs in lengths:
        modes = {}
        grads = {}
        for mode in ("backprop", "checkpointed", "adjoint"):
            peak, wall, steps, gy, gp = _memory_mode_run(
                mode, n_obs, dim, batch, seed)
            modes[mode] = {"peak_backward_bytes": peak,
                           "wall_seconds": wall, "steps": steps}
            grads[mode] = (gy, gp)

        gy_bp, gp_bp = grads["backprop"]
        gy_ck, gp_ck = grads["checkpointed"]
        gy_adj, gp_adj = grads["adjoint"]
        ckpt_diff = max(float(np.abs(gy_ck - gy_bp).max()),
                        max(float(np.abs(a - b).max())
                            for a, b in zip(gp_ck, gp_bp)))
        ref = max(float(np.abs(gy_bp).max()),
                  max(float(np.abs(g).max()) for g in gp_bp), 1e-12)
        adj_err = max(float(np.abs(gy_adj - gy_bp).max()),
                      max(float(np.abs(a - b).max())
                          for a, b in zip(gp_adj, gp_bp))) / ref
        bp_peak = modes["backprop"]["peak_backward_bytes"]
        rows.append({
            "n_obs": n_obs,
            "modes": modes,
            "reduction_checkpointed": (
                bp_peak / modes["checkpointed"]["peak_backward_bytes"]),
            "reduction_adjoint": (
                bp_peak / modes["adjoint"]["peak_backward_bytes"]),
            "ckpt_max_abs_diff": ckpt_diff,
            "adjoint_rel_err": adj_err,
            "adjoint_band": ADJOINT_GRAD_BAND,
        })

    payload = {
        "workload": (f"batch-{batch} dim-{dim} linear+tanh field, rk4 with "
                     "one accepted step per readout interval over [0, 1]"),
        "method": "rk4",
        "note": ("peak_backward_bytes: replay tape frames for the backprop "
                 "modes; retained output states + one transient VJP frame "
                 "for the adjoint.  checkpointed gradients are bit-identical "
                 "to backprop; adjoint gradients are tolerance-bounded"),
        "rows": rows,
    }
    path = pathlib.Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _main_memory(out: str) -> int:
    payload = run_memory(out)
    print("long-horizon backward-pass storage (rk4, one step per interval)")
    for row in payload["rows"]:
        m = row["modes"]
        print(f"  n={row['n_obs']:>5}  "
              f"backprop {m['backprop']['peak_backward_bytes']:>12,} B  "
              f"ckpt {m['checkpointed']['peak_backward_bytes']:>10,} B "
              f"({row['reduction_checkpointed']:5.1f}x)  "
              f"adjoint {m['adjoint']['peak_backward_bytes']:>10,} B "
              f"({row['reduction_adjoint']:5.1f}x)  "
              f"ckpt|diff|={row['ckpt_max_abs_diff']:.1e}  "
              f"adj err={row['adjoint_rel_err']:.1e}")
    print(f"  wrote {out}")
    return 0


def _main_batching(out: str) -> int:
    payload = run_batching(out)
    print(f"union-grid batching vs padded shards "
          f"(shard={payload['shard_size']}, "
          f"max_bucket={payload['max_bucket']}, "
          f"rtol={payload['rtol']:g} atol={payload['atol']:g})")
    for row in payload["rows"]:
        print(f"  {row['workload']:<16} n={row['n_samples']}  "
              f"NFE/sample {row['nfe_per_sample_padded']:6.1f} -> "
              f"{row['nfe_per_sample_union']:6.1f}  "
              f"(-{row['nfe_reduction']:.1%})  "
              f"buckets={row['buckets']}  "
              f"max|diff|={row['max_abs_diff']:.1e} "
              f"{'OK' if row['within_tolerance'] else 'OUT OF TOLERANCE'}")
    print(f"  wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# serving: micro-batched async inference vs batch-size-1, warm-cache latency
# ---------------------------------------------------------------------------

def _serving_model(seed: int = 0):
    """The streaming benchmark's tiny dopri5 regression model."""
    return _streaming_model(64, seed)


def _serving_offline_reference(model, times, values,
                               query_times) -> np.ndarray:
    """Offline single-series ``solve()`` the served answers must match."""
    t = np.asarray(times, dtype=np.float64)[None]
    v = np.asarray(values, dtype=np.float64)[None]
    mask = np.ones_like(t)
    q = np.asarray(query_times, dtype=np.float64)
    with no_grad():
        z = model.encode(v, t, mask)
        contexts = model.build_contexts(z, mask)
        model.latent_dynamics.bind(contexts)
        y0 = model.initial_state(z, contexts)
        uniq, inv = np.unique(q, return_inverse=True)
        grid = (uniq if uniq[0] <= 1e-12
                else np.concatenate(([0.0], uniq)))
        offset = len(grid) - len(uniq)
        sol = solve(model.dynamics, y0, grid, method="dopri5",
                    options=model.solver_options())
        rows = [model.head(sol.ys[offset + k]).data[0] for k in inv]
    return np.stack(rows, axis=0)


def _serving_payloads(model, n: int, seed: int, n_queries: int = 4,
                      n_obs: int | None = None,
                      t_max: float = 0.6) -> list[dict]:
    from .serving import make_series

    rng = np.random.default_rng(seed)
    info = {"input_dim": model.config.input_dim,
            "min_context": model.min_context,
            "max_len": model.config.max_len}
    payloads = []
    for i in range(n):
        times, values = make_series(info, rng, n_obs=n_obs, t_max=t_max)
        query = np.sort(rng.uniform(0.05, 1.0, size=n_queries))
        payloads.append({"op": "predict", "series_id": f"bench-{seed}-{i}",
                         "times": times.tolist(),
                         "values": values.tolist(),
                         "query_times": query.tolist()})
    return payloads


async def _serving_request(host: str, port: int, payload: dict) -> dict:
    from .serving import read_frame, write_frame

    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(writer, payload)
        response = await read_frame(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return response


async def _serving_blast(host: str, port: int,
                         payloads: list[dict]) -> tuple[float, list[dict]]:
    """Saturating load: every request in flight at once; wall to drain."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    responses = await asyncio.gather(
        *(_serving_request(host, port, p) for p in payloads))
    return loop.time() - start, list(responses)


async def _run_serving_async(seed: int) -> dict:
    from .serving import ModelServer, run_loadgen

    # -- (a) batched vs batch-size-1 throughput under saturating load ----
    throughput = {}
    blast_payloads = _serving_payloads(_serving_model(seed), 64, seed + 10)
    for label, max_batch in (("batched", 16), ("single", 1)):
        server = ModelServer(model=_serving_model(seed), max_batch=max_batch,
                             max_wait_ms=5.0)
        await server.start()
        try:
            elapsed, responses = await _serving_blast(
                server.host, server.port, blast_payloads)
        finally:
            await server.stop()
        ok = sum(1 for r in responses if r and r.get("ok"))
        throughput[label] = {
            "max_batch": max_batch, "requests": len(blast_payloads),
            "completed": ok, "seconds": elapsed,
            "rps": ok / elapsed if elapsed > 0 else 0.0}
    throughput["speedup"] = (throughput["batched"]["rps"]
                             / max(throughput["single"]["rps"], 1e-12))

    # -- (b) + (c) warm-cache latency and served-vs-offline accuracy -----
    # Cold = first touch of a series (encode + context build + solve over
    # the full query span).  Warm = the natural follow-up poll: the same
    # observations re-queried just past the previous horizon, which the
    # cached session answers with a resumed solve from its frontier.
    # Measured as engine service time — the socket/batcher constant
    # (identical on both paths) is covered by the sweep below.
    from .serving import InferenceEngine

    model = _serving_model(seed)
    engine = InferenceEngine(model)
    cold_lat, warm_lat = [], []
    max_ratio, checked = 0.0, 0
    payloads = _serving_payloads(model, 24, seed + 20, n_queries=6,
                                 n_obs=56, t_max=0.5)
    rng = np.random.default_rng(seed + 30)
    for phase, lats in (("cold", cold_lat), ("warm", warm_lat)):
        for p in payloads:
            req = dict(p)
            if phase == "warm":
                lo = max(p["query_times"]) + 0.01
                req["query_times"] = np.sort(
                    rng.uniform(lo, lo + 0.1, size=6)).tolist()
            t0 = time.perf_counter()
            response = engine.execute([req])[0]
            lats.append(time.perf_counter() - t0)
            assert response.get("ok"), response
            assert response["cache"] == ("hit" if phase == "warm"
                                         else "miss"), response
            ref = _serving_offline_reference(
                model, req["times"], req["values"], req["query_times"])
            got = np.asarray(response["predictions"])
            band = 50.0 * (model.config.atol
                           + model.config.rtol * np.abs(ref))
            max_ratio = max(max_ratio,
                            float((np.abs(got - ref) / band).max()))
            checked += 1
    cache = {
        "repeat_requests": len(warm_lat),
        "cold_p50_ms": float(np.percentile(cold_lat, 50) * 1000.0),
        "warm_p50_ms": float(np.percentile(warm_lat, 50) * 1000.0),
    }
    cache["warm_over_cold"] = cache["warm_p50_ms"] / cache["cold_p50_ms"]
    accuracy = {
        "checked_requests": checked,
        "band": "50 * (atol + rtol * |offline|)",
        "max_band_ratio": max_ratio,
        "within_band": bool(max_ratio <= 1.0),
    }

    # -- QPS sweep through the open-loop Poisson load generator ----------
    sweep = []
    server = ModelServer(model=_serving_model(seed), max_batch=16,
                         max_wait_ms=5.0)
    await server.start()
    try:
        for qps in (10.0, 30.0, 60.0):
            sweep.append(await run_loadgen(
                server.host, server.port, qps=qps, duration_s=2.0,
                n_series=32, repeat_ratio=0.5, seed=seed))
    finally:
        await server.stop()

    return {"rtol": RTOL, "atol": ATOL, "throughput": throughput,
            "cache": cache, "accuracy": accuracy, "qps_sweep": sweep}


def run_serving(out_path: str | pathlib.Path = "BENCH_serving.json",
                seed: int = 0) -> dict:
    """Benchmark the async serving stack end to end (real sockets).

    Three measurements against :class:`repro.serving.ModelServer`:

    * **throughput** — 64 distinct cold series blasted concurrently
      (saturating load) through a ``max_batch=16`` server vs a
      ``max_batch=1`` server; micro-batching routes co-arriving series
      into shared union-grid solves, so the batched server should clear
      at least 2x the requests/second.
    * **cache** — per-request latency for 24 cold series vs repeat
      queries on the same series (rank-1 context extend + resumed solve);
      the warm p50 should be at most half the cold p50.
    * **accuracy** — every served prediction compared against an offline
      single-series ``solve()``; must sit within ``50*(atol+rtol*|y|)``.

    Plus an open-loop Poisson QPS sweep (10/30/60 rps) recording achieved
    throughput and latency percentiles.  Writes ``BENCH_serving.json``.
    """
    payload = asyncio.run(_run_serving_async(seed))
    path = pathlib.Path(out_path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _main_serving(out: str) -> int:
    payload = run_serving(out)
    tp = payload["throughput"]
    print(f"serving stack (rtol={payload['rtol']:g} "
          f"atol={payload['atol']:g})")
    print(f"  throughput: batched {tp['batched']['rps']:7.1f} rps  "
          f"single {tp['single']['rps']:7.1f} rps  "
          f"({tp['speedup']:.2f}x)")
    cache = payload["cache"]
    print(f"  cache: cold p50 {cache['cold_p50_ms']:6.1f} ms  "
          f"warm p50 {cache['warm_p50_ms']:6.1f} ms  "
          f"({cache['warm_over_cold']:.2f}x)")
    acc = payload["accuracy"]
    print(f"  accuracy: {acc['checked_requests']} served responses, "
          f"max band ratio {acc['max_band_ratio']:.3f} "
          f"{'OK' if acc['within_band'] else 'OUT OF TOLERANCE'}")
    for row in payload["qps_sweep"]:
        p50 = row.get("latency_p50_ms", float("nan"))
        p99 = row.get("latency_p99_ms", float("nan"))
        print(f"  qps {row['offered_qps']:5.1f}: achieved "
              f"{row['achieved_qps']:5.1f}  p50 {p50:6.1f} ms  "
              f"p99 {p99:6.1f} ms  errors {row['errors']}  "
              f"hits {row['cache_hits']}")
    print(f"  wrote {out}")
    return 0


def _main_solver(out: str) -> int:
    payload = run(out)
    print(f"dopri5 workload @ rtol={RTOL:g} atol={ATOL:g}")
    print(f"  current: nfev={payload['nfev']}  steps={payload['steps']}  "
          f"rejects={payload['rejects']}  err={payload['max_abs_error']:.2e}")
    print(f"  seed:    nfev={payload['seed_nfev']}  "
          f"err={payload['seed_max_abs_error']:.2e}")
    print(f"  RHS evals saved: {payload['nfev_reduction']:.1%}")
    print(f"  wrote {out}")
    return 0


def _main_parallel(out: str) -> int:
    payload = run_parallel(out)
    print(f"parallel training epoch ({payload['cpu_count']} cpus)")
    for row in payload["rows"]:
        print(f"  workers={row['workers']} {row['mode']:<22} "
              f"{row['epoch_seconds']:.3f}s  "
              f"{row['speedup_vs_workers0']:.2f}x")
    print(f"  wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    target = argv[0] if argv else "solver"
    if target == "parallel":
        return _main_parallel(argv[1] if len(argv) > 1
                              else "BENCH_parallel.json")
    if target == "solver":
        return _main_solver(argv[1] if len(argv) > 1
                            else "BENCH_solver.json")
    if target == "ir":
        return _main_ir(argv[1] if len(argv) > 1 else "BENCH_ir.json")
    if target == "batching":
        return _main_batching(argv[1] if len(argv) > 1
                              else "BENCH_batching.json")
    if target == "memory":
        return _main_memory(argv[1] if len(argv) > 1
                            else "BENCH_memory.json")
    if target == "streaming":
        return _main_streaming(argv[1] if len(argv) > 1
                               else "BENCH_streaming.json")
    if target == "serving":
        return _main_serving(argv[1] if len(argv) > 1
                             else "BENCH_serving.json")
    # Back-compat: a bare path argument means the solver benchmark.
    return _main_solver(target)


if __name__ == "__main__":
    raise SystemExit(main())
