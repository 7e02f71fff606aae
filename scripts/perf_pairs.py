#!/usr/bin/env python3
"""Alternating parent-vs-change pairs of the end-to-end benchmark.

Run from anywhere inside the repository::

    python3 scripts/perf_pairs.py --parent HEAD~1 --change HEAD \\
        --workload train --seeds 1-10

Both revisions' committed files are exported (``git archive``) into
temporary directories, removed on exit.  For each seed the script runs
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
once on each side, alternating which side runs first, and prints every
run.  It then prints, per end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the change's wins and ties over the pairs,
and a verdict:

* ``improved``: the change wins at least 9/10 of all pairs (ties count
  for neither) and its median beats the parent's by more than the
  parent's interquartile range;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound, relative to the parent's median;
* ``unresolved``: either side's interquartile range, relative to its
  median, is wider than the metric's bound, and not every change run
  beats every parent run;
* ``within bound``: otherwise.

The exit status is 1 if any run reports ``correct: false`` or produces no
result, and 2 if the two revisions' benchmarks differ.
"""

from __future__ import annotations

import argparse
import atexit
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def parse_seeds(spec: str) -> list[int]:
    """``"1-10"``, ``"11,12"`` or a mix such as ``"1-3,7"``."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Judge one metric over paired runs (``parent[i]`` with
    ``change[i]``); ``better`` is ``"higher"`` or ``"lower"`` and
    ``bound`` the relative worsening allowed."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        result = "improved"
    elif -gain > bound * abs(pm):
        result = "regressed"
    elif spread > bound and not separated:
        result = "unresolved"
    else:
        result = "within bound"
    return {"verdict": result, "wins": wins, "ties": ties,
            "pairs": len(parent), "spread": spread,
            "parent": (p1, pm, p3), "change": (c1, cm, c3)}


def export(root: pathlib.Path, rev: str, dest: pathlib.Path) -> None:
    """Write ``rev``'s committed files into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                   check=True)


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict | None:
    """One benchmark run; its JSON result, or None if it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 1-10 or 11,12")
    args = parser.parse_args(argv)

    root = pathlib.Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True,
        capture_output=True, text=True).stdout.strip())
    if subprocess.run(["git", "diff", "--quiet", args.parent, args.change,
                       "--", "perfbench", "BENCHMARK.json"],
                      cwd=root).returncode != 0:
        print("perf_pairs: the two revisions' benchmarks differ; measure "
              "a benchmark change on its own", file=sys.stderr)
        return 2
    trees = {}
    for side in SIDES:
        tree = pathlib.Path(tempfile.mkdtemp(prefix=f"perf-pairs-{side}-"))
        atexit.register(shutil.rmtree, tree, ignore_errors=True)
        export(root, getattr(args, side), tree)
        trees[side] = tree
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    correct = True
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(trees[side], args.workload, seed, seconds)
            ok = result is not None and result["correct"]
            correct &= ok
            values = {} if result is None else {
                name: m["value"] for name, m in result["metrics"].items()}
            results[side].append(values)
            shown = " ".join(f"{name}={value:.4g}"
                             for name, value in values.items())
            failed = (f"{result['failed']}/{result['attempted']} failed"
                      if result is not None else "no result")
            print(f"seed {seed} {side:6s} correct={ok} {failed} {shown}",
                  flush=True)
    if not all(r for side in SIDES for r in results[side]):
        print("perf_pairs: a run produced no result; no verdicts",
              file=sys.stderr)
        return 1

    print(f"\n{args.workload}: {args.change} vs {args.parent}, "
          f"{len(args.seeds)} pairs of {seconds:g} s runs")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        judged = verdict([r[name] for r in results["parent"]],
                         [r[name] for r in results["change"]],
                         metric["better"], metric["bound"])
        (p1, pm, p3), (c1, cm, c3) = judged["parent"], judged["change"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%}): parent {pm:.4g} "
              f"[{p1:.4g}, {p3:.4g}], change {cm:.4g} [{c1:.4g}, {c3:.4g}], "
              f"wins {judged['wins']}/{judged['pairs']}, ties "
              f"{judged['ties']}: {judged['verdict']}")
    if not correct:
        print("perf_pairs: a run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
