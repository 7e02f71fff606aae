"""Read-only report of the trace pass pipeline: there is none.

A :class:`~repro.autodiff.executors.CompiledGraph` replays its recorded
trace exactly as recorded, and the codegen backend lowers that same
trace.  :func:`get_ir_passes` remains for tools that record the execution
modes beside a measurement, such as the environment line of
``perfbench/run.py``.
"""

from __future__ import annotations

__all__ = ["get_ir_passes"]


def get_ir_passes() -> str:
    """Always ``"none"``: compiled traces replay exactly as recorded."""
    return "none"
