"""Benchmark runners leave the caller's execution modes as they found
them, whatever modes they measure under."""

from repro import benchmarks
from repro.autodiff import get_executor, set_executor


def test_runners_restore_execution_modes():
    prev = get_executor()
    set_executor("replay")
    try:
        benchmarks._memory_mode_run("backprop", 5, 2, 1, 0)
        assert get_executor() == "replay"
        benchmarks._solve_ir("eager")
        assert get_executor() == "replay"
        set_executor("eager")
        benchmarks._solve_ir("replay")
        assert get_executor() == "eager"
    finally:
        set_executor(prev)
