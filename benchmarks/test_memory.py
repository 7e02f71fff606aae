"""Acceptance benchmark for long-horizon backward-pass memory (ISSUE 8).

Regenerates ``BENCH_memory.json``: the continuous adjoint must cut peak
backward-pass bytes (the ``tracemalloc`` peak over the solve and its
backward) by at least 4x at the 5000-observation point versus plain
backprop-through-the-solver, with adjoint gradients inside the tolerance
band.
"""

from repro.benchmarks import run_memory


def test_long_horizon_memory_scaling(save_result):
    from .conftest import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = run_memory(RESULTS_DIR / "BENCH_memory.json")

    rows = {row["n_obs"]: row for row in payload["rows"]}
    assert 5000 in rows, payload
    for row in payload["rows"]:
        assert row["adjoint_rel_err"] <= row["adjoint_band"], row
        modes = row["modes"]
        assert (modes["adjoint"]["peak_backward_bytes"]
                < modes["backprop"]["peak_backward_bytes"]), row

    at_5000 = rows[5000]
    assert at_5000["reduction_adjoint"] >= 4.0, at_5000

    save_result("BENCH_memory", "long-horizon memory: " + "; ".join(
        f"n={r['n_obs']} adjoint {r['reduction_adjoint']:.1f}x"
        for r in payload["rows"]))
