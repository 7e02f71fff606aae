"""Benchmark runners leave the caller's execution modes as they found
them, whatever modes they measure under."""

from repro import benchmarks
from repro.autodiff import (get_checkpoint_grads, get_executor,
                            set_checkpoint_grads, set_executor)


def test_runners_restore_execution_modes():
    prev = get_executor(), get_checkpoint_grads()
    set_executor("replay")
    set_checkpoint_grads("on")
    try:
        benchmarks._memory_mode_run("backprop", 5, 2, 1, 0)
        assert (get_executor(), get_checkpoint_grads()) == ("replay", "on")
        benchmarks._solve_ir("eager")
        assert get_executor() == "replay"
        set_executor("eager")
        benchmarks._solve_ir("replay")
        assert (get_executor(), get_checkpoint_grads()) == ("eager", "on")
    finally:
        set_executor(prev[0])
        set_checkpoint_grads(prev[1])
