#!/usr/bin/env python3
"""Compare two revisions' numerics on fixed probes of the paper model.

Run from anywhere inside the repository::

    python3 scripts/numerics_diff.py --parent HEAD~1 --change HEAD

Both revisions' committed files are exported (``git archive``, with the
helper of ``scripts/perf_pairs.py``) into temporary directories, removed
on exit.  For each executor mode (eager and replay; under replay every
validated ``no_grad`` call runs a generated kernel) and each side, a
child process runs the probes below with that side's ``src`` on the
path.  The probes use perfbench's model sizes and inputs
(``perfbench/workloads.py``: seed-0 weights, one 32-series batch of
PhysioNet-like stays drawn with seed 1):

* ``offline``: the padded and the union regression forward (dopri5,
  no_grad);
* ``engine``: an ``InferenceEngine`` cold batch of four series, then a
  ``poll`` batch and a ``grow`` batch on them;
* ``stream``: a stream session's predictions over one stay's first
  observations, and its final carry (frontier state and time);
* ``train``: one implicit-Adams training step's loss and every parameter
  gradient, taken before any optimizer step.

It prints one line per array: ``bitwise``, or ``max|d|/max|parent|``.
The exit status is 1 if a forward array (anything but a gradient) is not
bitwise equal, or a gradient is off by more than 1e-12 of its largest
magnitude; it is 2 if an array's shape differs or it exists on one side
only.
"""

from __future__ import annotations

import argparse
import atexit
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from perf_pairs import SIDES, export  # noqa: E402

#: executor settings of each mode, as environment variables
MODES = {
    "eager": {"REPRO_EXECUTOR": "eager"},
    "replay": {"REPRO_EXECUTOR": "replay"},
}
#: gradients may differ by this much of their largest magnitude
GRAD_RTOL = 1e-12
#: array names starting with this are gradients; all others must be bitwise
GRAD_PREFIX = "grad."
DATA_SEED = 1
ENGINE_SERIES = 4
STREAM_OBS = 40


def compare(parent: dict, change: dict) -> tuple[list[str], int]:
    """Judge ``change``'s arrays against ``parent``'s, by name.

    Returns one line per name and the exit status: 0, 1 (a forward array
    not bitwise equal, or a gradient off by more than ``GRAD_RTOL`` of the
    parent's largest magnitude) or 2 (a shape mismatch, or a name on one
    side only).
    """
    lines, status = [], 0
    for name in sorted(set(parent) | set(change)):
        if name not in parent or name not in change:
            side = "parent" if name in parent else "change"
            lines.append(f"{name}: only in {side}")
            status = 2
            continue
        a = np.asarray(parent[name], dtype=np.float64)
        b = np.asarray(change[name], dtype=np.float64)
        if a.shape != b.shape:
            lines.append(f"{name}: shape {a.shape} vs {b.shape}")
            status = 2
            continue
        if a.tobytes() == b.tobytes():
            lines.append(f"{name}: bitwise")
            continue
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        diff = float(np.max(np.abs(b - a)))
        rel = diff / scale if scale > 0 else float("inf")
        gradient = name.startswith(GRAD_PREFIX)
        ok = gradient and rel <= GRAD_RTOL
        lines.append(f"{name}: {rel:.3g}" + ("" if ok else "  FAIL"))
        if not ok:
            status = max(status, 1)
    return lines, status


# ---------------------------------------------------------------------------
# probes (run in a child process against one side's tree)
# ---------------------------------------------------------------------------
def probe(tree: pathlib.Path) -> dict[str, np.ndarray]:
    """Every probe's arrays, computed with ``tree``'s code."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from workloads import BATCH, HORIZONS, model_config, patients

    from repro.autodiff import no_grad
    from repro.core import DiffODE
    from repro.data import collate
    from repro.data.streaming import iter_stream
    from repro.serving.engine import InferenceEngine
    from repro.training import TrainConfig, Trainer

    arrays: dict[str, np.ndarray] = {}
    dataset = patients(BATCH, DATA_SEED)
    batch = collate(dataset.samples)

    model = DiffODE(model_config("dopri5"))
    for path in ("padded", "union"):
        model.union_forward = path == "union"
        with no_grad():
            arrays[f"offline.{path}"] = np.asarray(model.forward(batch).data)
    model.union_forward = False

    engine = InferenceEngine(DiffODE(model_config("dopri5")))
    stays = dataset.samples[:ENGINE_SERIES]

    def request(i: int, n: int, q: int) -> dict:
        s = stays[i]
        inputs = np.concatenate([s.target_values * s.target_mask,
                                 s.target_mask], -1)
        return {"series_id": f"s{i}", "times": s.target_times[:n],
                "values": inputs[:n],
                "query_times": s.target_times[q:q + HORIZONS]}

    rounds = {
        "cold": [request(i, s.num_obs, s.num_obs)
                 for i, s in enumerate(stays)],
        "poll": [request(i, stays[i].num_obs, stays[i].num_obs + HORIZONS)
                 for i in range(0, ENGINE_SERIES, 2)],
        "grow": [request(i, stays[i].num_obs + 1, stays[i].num_obs + 1)
                 for i in range(1, ENGINE_SERIES, 2)],
    }
    for kind, payloads in rounds.items():
        for payload, resp in zip(payloads, engine.execute(payloads)):
            if not resp["ok"]:
                raise RuntimeError(f"engine {kind}: {resp['error']}")
            arrays[f"engine.{kind}.{payload['series_id']}"] = \
                np.asarray(resp["predictions"])

    session = DiffODE(model_config("dopri5")).open_stream()
    preds = []
    for k, obs in enumerate(iter_stream(dataset.samples[0])):
        if k == STREAM_OBS:
            break
        pred = session.step(obs)
        if pred.y_hat is not None:
            preds.append(pred.y_hat)
    arrays["stream.predictions"] = np.stack(preds)
    arrays["stream.carry_y"] = np.asarray(session._y.data)
    arrays["stream.carry_t"] = np.asarray([session._t])

    model = DiffODE(model_config("implicit_adams"))
    trainer = Trainer(model, "regression",
                      TrainConfig(batch_size=BATCH, seed=DATA_SEED))
    model.train()
    trainer.optimizer.zero_grad()
    loss = trainer.loss_fn(batch)
    loss.backward()
    arrays["train.loss"] = np.asarray(loss.data)
    seen = set()
    for name, param in model.named_parameters():
        if id(param) in seen:           # one parameter under two names
            continue
        seen.add(id(param))
        grad = param.grad if param.grad is not None \
            else np.zeros_like(param.data)
        arrays[f"{GRAD_PREFIX}{name}"] = np.asarray(grad)
    return arrays


def run_side(tree: pathlib.Path, mode: str, out: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONPATH="", **MODES[mode])
    subprocess.run([sys.executable, str(pathlib.Path(__file__).resolve()),
                    "--probe", str(tree), "--out", str(out)],
                   cwd=tree, env=env, check=True)
    with np.load(out) as data:
        return {name: data[name] for name in data.files}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="parent revision")
    parser.add_argument("--change", help="changed revision")
    parser.add_argument("--probe", type=pathlib.Path,
                        help=argparse.SUPPRESS)   # child: tree to probe
    parser.add_argument("--out", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is not None:
        np.savez(args.out, **probe(args.probe))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    root = pathlib.Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True,
        capture_output=True, text=True).stdout.strip())
    trees = {}
    for side in SIDES:
        tree = pathlib.Path(tempfile.mkdtemp(prefix=f"numerics-{side}-"))
        atexit.register(shutil.rmtree, tree, ignore_errors=True)
        export(root, getattr(args, side), tree)
        trees[side] = tree

    status = 0
    for mode in MODES:
        arrays = {side: run_side(trees[side], mode,
                                 trees[side] / f"probe-{mode}.npz")
                  for side in SIDES}
        lines, code = compare(arrays["parent"], arrays["change"])
        print(f"== {mode}: {args.change} vs {args.parent}")
        for line in lines:
            print(f"  {line}")
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
