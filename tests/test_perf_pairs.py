"""The pairing verdict of ``scripts/perf_pairs.py`` on fixed numbers."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
    "perf_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [80.0, 81.0, 82.0, 83.0, 84.0, 80.5, 81.5, 82.5, 83.5, 79.5]


class TestVerdict:
    def test_clear_gain_is_improved(self, pairs):
        change = [p + 20.0 for p in PARENT]
        change[3] = PARENT[3] - 1.0            # one lost pair of ten
        judged = pairs.verdict(PARENT, change, "higher", 0.24)
        assert judged["verdict"] == "improved"
        assert (judged["wins"], judged["ties"], judged["pairs"]) == (9, 0, 10)
        assert judged["parent"] == (80.625, 81.75, 82.875)

    def test_two_lost_pairs_are_not_a_gain(self, pairs):
        change = [p + 20.0 for p in PARENT]
        change[3] = change[4] = 70.0
        assert pairs.verdict(PARENT, change, "higher", 0.24)["verdict"] \
            == "within bound"

    def test_ties_count_for_neither_side(self, pairs):
        change = [p + 20.0 for p in PARENT]
        change[0] = PARENT[0]
        change[1] = PARENT[1]
        judged = pairs.verdict(PARENT, change, "higher", 0.24)
        assert (judged["wins"], judged["ties"]) == (8, 2)
        assert judged["verdict"] == "within bound"

    def test_gain_within_parent_spread_is_not_a_gain(self, pairs):
        # Wins every pair, but by less than the parent's IQR (2.25).
        change = [p + 1.0 for p in PARENT]
        assert pairs.verdict(PARENT, change, "higher", 0.24)["verdict"] \
            == "within bound"

    def test_lower_is_better_direction(self, pairs):
        change = [p - 20.0 for p in PARENT]
        assert pairs.verdict(PARENT, change, "lower", 0.24)["verdict"] \
            == "improved"
        assert pairs.verdict(PARENT, change, "higher", 0.24)["verdict"] \
            == "regressed"

    def test_worse_by_more_than_bound_regresses(self, pairs):
        change = [p * 1.3 for p in PARENT]
        assert pairs.verdict(PARENT, change, "lower", 0.24)["verdict"] \
            == "regressed"
        assert pairs.verdict(PARENT, change, "lower", 0.35)["verdict"] \
            == "within bound"

    def test_wide_spread_is_unresolved(self, pairs):
        parent = [50.0, 100.0, 150.0, 60.0, 140.0]
        change = [55.0, 95.0, 145.0, 65.0, 150.0]
        judged = pairs.verdict(parent, change, "lower", 0.2)
        assert judged["spread"] > 0.2
        assert judged["verdict"] == "unresolved"

    def test_wide_spread_but_separated_is_resolved(self, pairs):
        parent = [100.0, 200.0, 300.0]
        change = [10.0, 20.0, 30.0]
        assert pairs.verdict(parent, change, "lower", 0.2)["verdict"] \
            == "improved"
        assert pairs.verdict(change, parent, "lower", 0.2)["verdict"] \
            == "regressed"

    def test_rejects_unpaired_runs(self, pairs):
        with pytest.raises(ValueError):
            pairs.verdict([1.0, 2.0], [1.0], "lower", 0.2)


def test_parse_seeds(pairs):
    assert pairs.parse_seeds("1-10") == list(range(1, 11))
    assert pairs.parse_seeds("11,12") == [11, 12]
    assert pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
