"""The array comparison of ``scripts/numerics_diff.py`` on fixed arrays."""

import importlib.util
import pathlib

import numpy as np
import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
    "numerics_diff.py"


@pytest.fixture(scope="module")
def diff():
    spec = importlib.util.spec_from_file_location("numerics_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompare:
    def test_equal_arrays_are_bitwise(self, diff):
        parent = {"offline.padded": np.arange(6.0).reshape(2, 3),
                  "grad.w": np.ones(3)}
        change = {name: a.copy() for name, a in parent.items()}
        lines, status = diff.compare(parent, change)
        assert status == 0
        assert lines == ["grad.w: bitwise", "offline.padded: bitwise"]

    def test_forward_arrays_must_be_bitwise(self, diff):
        parent = {"offline.union": np.array([1.0, 2.0])}
        change = {"offline.union": np.nextafter(parent["offline.union"], 3.0)}
        lines, status = diff.compare(parent, change)
        assert status == 1
        assert lines[0].startswith("offline.union: 2.22e-16")
        assert lines[0].endswith("FAIL")

    def test_signed_zero_is_not_bitwise(self, diff):
        lines, status = diff.compare({"train.loss": np.array([0.0])},
                                     {"train.loss": np.array([-0.0])})
        assert status == 1
        assert lines == ["train.loss: inf  FAIL"]

    def test_gradients_pass_within_tolerance(self, diff):
        parent = {"grad.h2": np.array([4.0, -2.0])}
        change = {"grad.h2": np.array([4.0, -2.0 + 2 ** -39])}
        lines, status = diff.compare(parent, change)
        assert status == 0
        assert lines == [f"grad.h2: {2 ** -41:.3g}"]     # 4.55e-13

    def test_gradients_fail_past_tolerance(self, diff):
        parent = {"grad.h2": np.array([4.0, -2.0])}
        change = {"grad.h2": np.array([4.0, -2.0 + 2 ** -37])}
        lines, status = diff.compare(parent, change)
        assert status == 1
        assert lines == [f"grad.h2: {2 ** -39:.3g}  FAIL"]

    def test_shape_mismatch_and_one_sided_names(self, diff):
        parent = {"stream.carry_y": np.zeros((1, 3)),
                  "engine.cold.s0": np.zeros(2), "offline.union": np.ones(2)}
        change = {"stream.carry_y": np.zeros((1, 4)),
                  "engine.cold.s1": np.zeros(2), "offline.union": np.zeros(2)}
        lines, status = diff.compare(parent, change)
        assert status == 2
        assert lines == ["engine.cold.s0: only in parent",
                         "engine.cold.s1: only in change",
                         "offline.union: 1  FAIL",
                         "stream.carry_y: shape (1, 3) vs (1, 4)"]
