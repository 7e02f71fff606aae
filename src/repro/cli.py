"""Command-line interface for training and evaluating models.

Examples::

    python -m repro.cli train --model DIFFODE --dataset synthetic \
        --epochs 30 --save diffode.npz
    python -m repro.cli train --model ODE-RNN --dataset ushcn \
        --task interpolation
    python -m repro.cli train --model DIFFODE --dataset synthetic \
        --workers 4
    python -m repro.cli train --model DIFFODE --dataset synthetic \
        --executor replay
    python -m repro.cli evaluate --checkpoint diffode.npz \
        --dataset synthetic
    python -m repro.cli profile --model DIFFODE --dataset synthetic \
        --method dopri5 --trace profile.jsonl
    python -m repro.cli stream --dataset drifting --series 4
    python -m repro.cli serve --checkpoint diffode.npz --port 7077
    python -m repro.cli loadgen --port 7077 --qps 50 --duration-s 10
    python -m repro.cli list

Dataset sizes follow the scale preset (``--scale`` / ``REPRO_SCALE``).
``--trace out.jsonl`` on train/evaluate/profile writes the structured
telemetry event stream (see :mod:`repro.telemetry.trace`).
"""

from __future__ import annotations

import argparse
import contextlib

import numpy as np

from .autodiff import set_executor
from .data import Dataset, batch_iter, train_val_test_split
from .experiments import (
    ALL_MODELS,
    build_model,
    classification_dataset,
    get_scale,
    regression_dataset,
)
from .telemetry import telemetry_session
from .training import TrainConfig, Trainer, load_diffode, save_diffode

__all__ = ["main", "build_parser"]

_CLS_DATASETS = {"synthetic": "Synthetic", "lorenz63": "Lorenz63",
                 "lorenz96": "Lorenz96"}
_REG_DATASETS = {"ushcn": "USHCN", "physionet": "PhysioNet",
                 "largest": "LargeST"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Train/evaluate DIFFODE and baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model")
    train.add_argument("--model", default="DIFFODE",
                       help=f"one of {ALL_MODELS}")
    train.add_argument("--dataset", required=True,
                       choices=sorted(_CLS_DATASETS) + sorted(_REG_DATASETS))
    train.add_argument("--task", default=None,
                       choices=["classification", "interpolation",
                                "extrapolation"],
                       help="defaults to the dataset's natural task")
    train.add_argument("--scale", default=None,
                       choices=["smoke", "bench", "paper"])
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--lr", type=float, default=None)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--workers", type=int, default=0, metavar="N",
                       help="gradient-worker processes (0 = in-process; "
                            "any N trains bit-identically, see "
                            "docs/architecture.md)")
    train.add_argument("--union-batching", action="store_true",
                       dest="union_batching",
                       help="group gradient micro-shards by time-grid "
                            "overlap (union-grid batching planner) instead "
                            "of by length; implies the sharded path even "
                            "with --workers 0")
    train.add_argument("--save", default=None,
                       help="write a .npz checkpoint (DIFFODE only)")
    train.add_argument("--trace", default=None, metavar="OUT.jsonl",
                       help="write the telemetry event stream as JSONL")
    train.add_argument("--executor", default=None,
                       choices=["eager", "replay"],
                       help="autodiff executor for no_grad ODE "
                            "right-hand sides (validation, evaluation); "
                            "gradients always run eager (default: "
                            "REPRO_EXECUTOR env or eager); gradient "
                            "workers inherit the choice")
    train.add_argument("--adjoint", action="store_true",
                       help="differentiate the ODE solve with the "
                            "continuous adjoint (O(state) memory, "
                            "tolerance-bounded gradients) instead of "
                            "backprop through the solver (DIFFODE only)")

    ev = sub.add_parser("evaluate", help="evaluate a DIFFODE checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True,
                    choices=sorted(_CLS_DATASETS) + sorted(_REG_DATASETS))
    ev.add_argument("--task", default=None,
                    choices=["classification", "interpolation",
                             "extrapolation"])
    ev.add_argument("--scale", default=None,
                    choices=["smoke", "bench", "paper"])
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--trace", default=None, metavar="OUT.jsonl",
                    help="write the telemetry event stream as JSONL")
    ev.add_argument("--executor", default=None,
                    choices=["eager", "replay"],
                    help="autodiff executor for ODE right-hand sides")

    prof = sub.add_parser(
        "profile",
        help="train a few steps under the tape profiler and report costs")
    prof.add_argument("--model", default="DIFFODE",
                      help=f"one of {ALL_MODELS}")
    prof.add_argument("--dataset", required=True,
                      choices=sorted(_CLS_DATASETS) + sorted(_REG_DATASETS))
    prof.add_argument("--task", default=None,
                      choices=["classification", "interpolation",
                               "extrapolation"])
    prof.add_argument("--scale", default=None,
                      choices=["smoke", "bench", "paper"])
    prof.add_argument("--steps", type=int, default=3,
                      help="optimizer steps to profile (default 3)")
    prof.add_argument("--top", type=int, default=12,
                      help="rows in the per-op table (default 12)")
    prof.add_argument("--sort", default="total_s",
                      choices=["total_s", "forward_s", "backward_s",
                               "count", "bytes"])
    prof.add_argument("--method", default=None,
                      choices=["euler", "midpoint", "rk4", "implicit_adams",
                               "dopri5"],
                      help="override the DIFFODE ODE solver")
    prof.add_argument("--trace", default=None, metavar="OUT.jsonl",
                      help="write the telemetry event stream as JSONL")
    prof.add_argument("--executor", default=None,
                      choices=["eager", "replay"],
                      help="autodiff executor for no_grad ODE right-hand "
                           "sides; gradients always run eager")
    prof.add_argument("--adjoint", action="store_true",
                      help="differentiate the ODE solve with the "
                           "continuous adjoint (DIFFODE only)")
    prof.add_argument("--seed", type=int, default=0)

    st = sub.add_parser(
        "stream",
        help="online prequential evaluation: observations arrive one at a "
             "time through DiffODE.open_stream")
    st.add_argument("--checkpoint", default=None,
                    help="DIFFODE .npz to stream with; default builds an "
                         "untrained model for the dataset")
    st.add_argument("--dataset", default="drifting",
                    choices=["drifting"] + sorted(_CLS_DATASETS)
                    + sorted(_REG_DATASETS))
    st.add_argument("--task", default=None,
                    choices=["classification", "interpolation",
                             "extrapolation"])
    st.add_argument("--scale", default=None,
                    choices=["smoke", "bench", "paper"])
    st.add_argument("--series", type=int, default=None, metavar="N",
                    help="cap the number of streamed series")
    st.add_argument("--max-obs", type=int, default=None, dest="max_obs",
                    metavar="M", help="cap observations per series")
    st.add_argument("--exact", action="store_true",
                    help="full-recompute reference sessions instead of "
                         "incremental (rank-1 extend + resumed solve)")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--trace", default=None, metavar="OUT.jsonl",
                    help="write the telemetry event stream as JSONL")
    st.add_argument("--executor", default=None,
                    choices=["eager", "replay"],
                    help="autodiff executor for ODE right-hand sides")

    srv = sub.add_parser(
        "serve",
        help="serve a DIFFODE checkpoint over the async socket protocol "
             "(dynamic micro-batching + per-series context caching)")
    srv.add_argument("--checkpoint", required=True,
                     help="DIFFODE .npz to serve (regression, adaptive "
                          "solver)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7077,
                     help="listen port (0 picks an ephemeral port)")
    srv.add_argument("--max-batch", type=int, default=16, dest="max_batch",
                     help="micro-batcher flush size (default 16)")
    srv.add_argument("--max-wait-ms", type=float, default=5.0,
                     dest="max_wait_ms",
                     help="micro-batcher flush deadline (default 5 ms)")
    srv.add_argument("--cache-capacity", type=int, default=256,
                     dest="cache_capacity",
                     help="per-series context-cache entries (default 256)")
    srv.add_argument("--workers", type=int, default=0, metavar="N",
                     help="fork inference workers (0 = in-process; series "
                          "route to workers by id affinity)")
    srv.add_argument("--slo-ms", type=float, default=250.0, dest="slo_ms",
                     help="latency objective for serving.slo_violations")
    srv.add_argument("--reload-poll-s", type=float, default=0.0,
                     dest="reload_poll_s",
                     help="poll the checkpoint mtime every S seconds and "
                          "hot-reload on change (SIGHUP always works)")
    srv.add_argument("--executor", default=None,
                     choices=["eager", "replay"],
                     help="autodiff executor for ODE right-hand sides")

    lg = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load generator against a running server")
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, required=True)
    lg.add_argument("--qps", type=float, default=20.0,
                    help="offered load (default 20 requests/s)")
    lg.add_argument("--duration-s", type=float, default=5.0,
                    dest="duration_s")
    lg.add_argument("--series", type=int, default=32, dest="n_series",
                    help="distinct synthetic series in the pool")
    lg.add_argument("--queries", type=int, default=4, dest="n_queries",
                    help="query times per request")
    lg.add_argument("--repeat-ratio", type=float, default=0.5,
                    dest="repeat_ratio",
                    help="fraction of requests that re-query a previously "
                         "sent series (cache-hit path)")
    lg.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="list available models and datasets")
    return parser


def _resolve_dataset(name: str, task: str | None, scale,
                     seed: int) -> tuple[Dataset, str]:
    if name in _CLS_DATASETS:
        if task not in (None, "classification"):
            raise SystemExit(f"{name} is a classification dataset")
        return (classification_dataset(_CLS_DATASETS[name], scale,
                                       seed=seed), "classification")
    task = task or "extrapolation"
    if task == "classification":
        raise SystemExit(f"{name} supports interpolation/extrapolation")
    return (regression_dataset(_REG_DATASETS[name], task, scale, seed=seed),
            "regression")


def _split(dataset: Dataset, task: str, seed: int):
    rng = np.random.default_rng(seed + 1)
    if task == "classification":
        return train_val_test_split(dataset, 0.5, 0.25, rng)
    return train_val_test_split(dataset, 0.6, 0.2, rng)


def _cmd_train(args) -> int:
    scale = get_scale(args.scale)
    dataset, task = _resolve_dataset(args.dataset, args.task, scale,
                                     args.seed)
    train_set, val_set, test_set = _split(dataset, task, args.seed)
    model = build_model(args.model, dataset, scale, seed=args.seed)
    if args.adjoint:
        if not hasattr(model, "config") or not hasattr(model.config,
                                                       "adjoint"):
            raise SystemExit("--adjoint only applies to DIFFODE")
        model.config.adjoint = True
    epochs = args.epochs or (scale.epochs_cls if task == "classification"
                             else scale.epochs_reg)
    config = TrainConfig(
        epochs=epochs,
        batch_size=(scale.batch_cls if task == "classification"
                    else scale.batch_reg),
        lr=args.lr or scale.lr, weight_decay=scale.weight_decay,
        patience=scale.patience, seed=args.seed, verbose=True)
    trainer = Trainer(model, task, config, workers=args.workers,
                      union_batching=args.union_batching)
    print(f"training {args.model} on {dataset.name} "
          f"({len(train_set)} train series, {epochs} epochs max"
          + (f", {args.workers} gradient workers" if args.workers else "")
          + (", union-grid batching" if args.union_batching else "")
          + ")")
    telemetry = (telemetry_session(trace_path=args.trace)
                 if args.trace else contextlib.nullcontext())
    with telemetry:
        trainer.fit(train_set, val_set)
        result = trainer.evaluate(test_set)
    if args.trace:
        print(f"trace written to {args.trace}")
    if task == "classification":
        print(f"test accuracy: {result.accuracy:.4f}")
    else:
        print(f"test MSE: {result.mse:.4f}")
    if args.save:
        if args.model != "DIFFODE":
            raise SystemExit("--save currently supports DIFFODE only")
        save_diffode(model, args.save)
        print(f"checkpoint written to {args.save}")
    return 0


def _cmd_evaluate(args) -> int:
    scale = get_scale(args.scale)
    model = load_diffode(args.checkpoint)
    task = ("classification" if model.config.num_classes is not None
            else "regression")
    want = args.task
    if task == "classification" and want in ("interpolation",
                                             "extrapolation"):
        raise SystemExit("checkpoint is a classification model")
    dataset, _ = _resolve_dataset(args.dataset, want, scale, args.seed)
    _, _, test_set = _split(dataset, task, args.seed)
    trainer = Trainer(model, task)
    telemetry = (telemetry_session(trace_path=args.trace)
                 if args.trace else contextlib.nullcontext())
    with telemetry:
        result = trainer.evaluate(test_set)
    if task == "classification":
        print(f"test accuracy: {result.accuracy:.4f}")
    else:
        print(f"test MSE: {result.mse:.4f}")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _fmt_seconds(s: float) -> str:
    return f"{s * 1e3:8.2f}ms" if s < 1.0 else f"{s:8.3f}s "


def _cmd_profile(args) -> int:
    scale = get_scale(args.scale)
    dataset, task = _resolve_dataset(args.dataset, args.task, scale,
                                     args.seed)
    train_set, _, _ = _split(dataset, task, args.seed)
    model = build_model(args.model, dataset, scale, seed=args.seed)
    if args.method is not None:
        if not hasattr(model, "config") or not hasattr(model.config, "method"):
            raise SystemExit("--method only applies to DIFFODE")
        model.config.method = args.method
    if args.adjoint:
        if not hasattr(model, "config") or not hasattr(model.config,
                                                       "adjoint"):
            raise SystemExit("--adjoint only applies to DIFFODE")
        model.config.adjoint = True
    batch_size = (scale.batch_cls if task == "classification"
                  else scale.batch_reg)
    trainer = Trainer(model, task, TrainConfig(
        batch_size=batch_size, lr=scale.lr,
        weight_decay=scale.weight_decay, seed=args.seed))

    print("model:")
    for key, value in model.describe().items():
        print(f"  {key}: {value}")

    from .autodiff import no_grad
    from .training.optim import clip_grad_norm
    solver_totals: dict[str, float] = {}
    rng = np.random.default_rng(args.seed)
    last_batch = None
    with telemetry_session(trace_path=args.trace,
                           profile_tape=True) as session:
        reg = session.registry
        with reg.timer("profile"):
            for i, batch in enumerate(batch_iter(train_set, batch_size, rng)):
                if i >= args.steps:
                    break
                last_batch = batch
                trainer.optimizer.zero_grad()
                with reg.timer("forward"):
                    loss = trainer.loss_fn(batch)
                with reg.timer("backward"):
                    loss.backward()
                with reg.timer("optimizer"):
                    clip_grad_norm(trainer.optimizer.params,
                                   trainer.config.clip_norm)
                    trainer.optimizer.step()
                stats = getattr(model, "last_solver_stats", None)
                if stats is not None:
                    solver_totals["method"] = stats.method
                    for key in ("nfev", "steps", "rejects", "dense_evals"):
                        solver_totals[key] = (solver_totals.get(key, 0)
                                              + getattr(stats, key))
            if last_batch is not None:
                # Inference-path profile: no_grad forwards hit the replay
                # executor's no_grad keys (generated kernels), which
                # training steps never exercise.
                with reg.timer("inference"), no_grad():
                    for _ in range(3):       # trace, validate, replay
                        trainer.loss_fn(last_batch)
                        stats = getattr(model, "last_solver_stats", None)
                        if stats is not None:
                            for key in ("nfev", "steps", "rejects",
                                        "dense_evals"):
                                solver_totals[key] = (
                                    solver_totals.get(key, 0)
                                    + getattr(stats, key))
        summary = session.summary()

    print(f"\nphase breakdown ({args.steps} steps):")
    for path, stat in summary["timers"].items():
        indent = "  " * path.count("/")
        print(f"  {indent}{path.rsplit('/', 1)[-1]:<12} "
              f"{_fmt_seconds(stat['total_s'])}  x{stat['count']}  "
              f"(self {_fmt_seconds(stat['self_s'])})")

    rows = session.profiler.table(top_k=args.top, sort=args.sort)
    print(f"\ntop {len(rows)} tape ops by {args.sort} "
          f"({session.profiler.nodes} nodes, "
          f"{session.profiler.bytes_allocated / 1e6:.1f} MB allocated):")
    header = (f"  {'op':<16} {'count':>8} {'fwd':>10} {'bwd':>10} "
              f"{'total':>10} {'MB':>8}")
    print(header)
    for row in rows:
        print(f"  {row['op']:<16} {row['count']:>8} "
              f"{row['forward_s'] * 1e3:>8.2f}ms "
              f"{row['backward_s'] * 1e3:>8.2f}ms "
              f"{row['total_s'] * 1e3:>8.2f}ms "
              f"{row['bytes_allocated'] / 1e6:>8.2f}")

    solver_counters = {k: v for k, v in summary["counters"].items()
                       if k.startswith("solver.")}
    if solver_counters:
        print("\nsolver counters:")
        for name, value in solver_counters.items():
            print(f"  {name}: {int(value)}")

    ir_counters = {k: v for k, v in summary["counters"].items()
                   if k.startswith("ir.")}
    if ir_counters:
        print("\nIR executor counters:")
        for name, value in sorted(ir_counters.items()):
            print(f"  {name}: {int(value)}")
        from .autodiff import recent_sources
        sources = recent_sources()
        if sources:
            print("generated codegen kernels (most recent):")
            for row in sources[-4:]:
                print(f"  --- {row['tag']} ({row['ops']} ops, "
                      f"{row['inlined']} inlined, "
                      f"{row['buffers']} buffers) ---")
                for line in row["source"].splitlines():
                    print(f"  {line}")
    if solver_totals:
        method = solver_totals.pop("method")
        registry_nfev = int(summary["counters"].get(
            f"solver.{method}.nfev", -1))
        direct_nfev = int(solver_totals["nfev"])
        status = "OK" if registry_nfev == direct_nfev else "MISMATCH"
        print(f"\nNFE cross-check [{status}]: SolverStats total "
              f"{direct_nfev} vs registry solver.{method}.nfev "
              f"{registry_nfev}")
        if status == "MISMATCH":
            return 1
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    return 0


def _cmd_stream(args) -> int:
    from .data import load_synthetic_drifting
    from .training import load_diffode, prequential_evaluate

    scale = get_scale(args.scale)
    if args.dataset == "drifting":
        dataset = load_synthetic_drifting(
            num_series=max(4, scale.synthetic_series // 4),
            grid_points=scale.synthetic_grid, seed=args.seed)
        task = "classification"
    else:
        dataset, task = _resolve_dataset(args.dataset, args.task, scale,
                                         args.seed)
    if args.checkpoint:
        model = load_diffode(args.checkpoint)
        model_task = ("classification" if model.config.num_classes is not None
                      else "regression")
        if model_task != task:
            raise SystemExit(f"checkpoint is a {model_task} model but "
                             f"{args.dataset} streams a {task} task")
    else:
        model = build_model("DIFFODE", dataset, scale, seed=args.seed)
    mode = "exact full-recompute" if args.exact else "incremental"
    print(f"streaming {dataset.name} ({len(dataset)} series, {mode} "
          f"sessions, method {model.config.method})")
    telemetry = (telemetry_session(trace_path=args.trace)
                 if args.trace else contextlib.nullcontext())
    with telemetry:
        report = prequential_evaluate(model, dataset,
                                      incremental=not args.exact,
                                      max_series=args.series,
                                      max_obs=args.max_obs)
    print(f"series: {report['num_series']}  "
          f"scored observations: {report['num_scored']}")
    if "accuracy" in report:
        print(f"prequential accuracy: {report['accuracy']:.4f}")
    else:
        print(f"prequential MSE: {report['mse']:.4f}")
    print(f"mean latency: {report['mean_latency'] * 1e3:.2f} ms/obs  "
          f"mean NFE: {report['mean_nfev']:.1f}")
    print(f"context maintenance: {report['extends']} extends, "
          f"{report['rebuilds']} drift rebuilds")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serving import ModelServer
    from .telemetry import get_registry

    # The serving process records its own serving.* metrics so the
    # ``stats`` op has something to report.
    get_registry().enable()
    server = ModelServer(args.checkpoint, host=args.host, port=args.port,
                         max_batch=args.max_batch,
                         max_wait_ms=args.max_wait_ms,
                         cache_capacity=args.cache_capacity,
                         workers=args.workers, slo_ms=args.slo_ms,
                         reload_poll_s=args.reload_poll_s)

    async def run() -> None:
        await server.start()
        print(f"serving {args.checkpoint} on {server.host}:{server.port} "
              f"(max_batch={args.max_batch}, "
              f"max_wait={args.max_wait_ms:g}ms, "
              f"workers={args.workers})", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from .serving import run_loadgen

    report = asyncio.run(run_loadgen(
        args.host, args.port, qps=args.qps, duration_s=args.duration_s,
        n_series=args.n_series, n_queries=args.n_queries,
        repeat_ratio=args.repeat_ratio, seed=args.seed))
    print(f"offered {report['offered_qps']:g} qps for "
          f"{report['duration_s']:g}s: {report['completed']}/"
          f"{report['requests']} ok, {report['errors']} errors, "
          f"achieved {report['achieved_qps']:.1f} qps")
    if "latency_p50_ms" in report:
        print(f"latency p50/p90/p99: {report['latency_p50_ms']:.1f} / "
              f"{report['latency_p90_ms']:.1f} / "
              f"{report['latency_p99_ms']:.1f} ms "
              f"(mean {report['latency_mean_ms']:.1f} ms)")
    print(f"cache: {report['cache_hits']} hits, "
          f"{report['cache_misses']} misses")
    return 0


def _cmd_list(_args) -> int:
    print("models:")
    for name in ALL_MODELS:
        print(f"  {name}")
    print("classification datasets:", ", ".join(sorted(_CLS_DATASETS)))
    print("regression datasets:    ", ", ".join(sorted(_REG_DATASETS)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "executor", None):
        set_executor(args.executor)
    handlers = {"train": _cmd_train, "evaluate": _cmd_evaluate,
                "profile": _cmd_profile, "stream": _cmd_stream,
                "serve": _cmd_serve, "loadgen": _cmd_loadgen,
                "list": _cmd_list}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
