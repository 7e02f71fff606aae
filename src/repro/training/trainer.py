"""Generic training loop with early stopping, shared by DIFFODE and every
baseline (all expose ``forward(batch) -> Tensor`` and ``parameters()``)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Tensor, cross_entropy, masked_mse_loss, no_grad
from ..data import Batch, Dataset, batch_iter, collate
from ..telemetry import get_registry
from .metrics import RunningAverage, scaled_mse, top1_accuracy
from .objective import compute_loss
from .optim import Adam, clip_grad_norm

__all__ = ["TrainConfig", "Trainer", "EvalResult"]


@dataclass
class TrainConfig:
    """Optimization settings (paper defaults in Section IV-A4)."""

    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-3
    clip_norm: float = 5.0
    #: early stopping patience in epochs (paper: 20)
    patience: int = 20
    seed: int = 0
    verbose: bool = False


@dataclass
class EvalResult:
    loss: float
    accuracy: float | None = None
    mse: float | None = None

    @property
    def primary(self) -> float:
        """Metric to report: accuracy or scaled MSE.

        Check :attr:`higher_is_better` before comparing ``primary`` across
        runs - accuracy and MSE rank in opposite directions.
        """
        return self.accuracy if self.accuracy is not None else self.mse

    @property
    def higher_is_better(self) -> bool:
        """Direction of :attr:`primary`: True for accuracy, False for MSE."""
        return self.accuracy is not None

    def is_improvement(self, other: "EvalResult | None", *,
                       metric: str = "primary",
                       min_delta: float = 0.0) -> bool:
        """Whether this result beats ``other`` (the incumbent best).

        Centralizes the direction logic so call sites never compare
        ``primary`` values without consulting :attr:`higher_is_better`.

        Parameters
        ----------
        other:
            The current best result, or None (anything improves on None).
        metric:
            ``"primary"`` compares accuracy/MSE in the metric's natural
            direction; ``"loss"`` compares validation loss (lower wins),
            which is what early stopping uses.
        min_delta:
            Required margin; ties and sub-margin changes do not count.
        """
        if metric not in ("primary", "loss"):
            raise ValueError(f"unknown metric {metric!r}")
        if other is None:
            return True
        if metric == "loss":
            return self.loss < other.loss - min_delta
        if self.higher_is_better != other.higher_is_better:
            raise ValueError(
                "cannot compare results from different tasks "
                "(accuracy vs MSE)")
        if self.higher_is_better:
            return self.primary > other.primary + min_delta
        return self.primary < other.primary - min_delta


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1


class Trainer:
    """Train/evaluate a model on a classification or regression task.

    When the process-wide telemetry registry is enabled (see
    :mod:`repro.telemetry`), each epoch reports timing under the
    ``train/epoch`` timer tree, observes ``train.loss`` /
    ``train.grad_norm`` / ``train.epoch_seconds`` histograms, and gauges
    ``train.obs_per_sec`` throughput.  With the registry disabled (the
    default) the overhead is a handful of attribute checks per epoch.

    ``workers=N`` (or an explicit :class:`~repro.parallel.ParallelConfig`
    via ``parallel=``) routes every gradient step through the
    data-parallel worker pool of :mod:`repro.parallel`: the batch is split
    into micro-shards, forward + backward runs on ``N`` fork workers over
    shared memory, and the shard gradients are combined with a fixed-order
    tree reduction that is bit-identical for any worker count.  The
    default ``workers=0`` (and ``parallel=None``) keeps the current
    in-process full-batch path.  Call :meth:`close` (done automatically at
    the end of :meth:`fit`) to release worker processes.
    """

    def __init__(self, model, task: str, config: TrainConfig | None = None,
                 scheduler_factory=None, workers: int = 0,
                 parallel=None, union_batching: bool = False):
        """``scheduler_factory``: optional callable mapping the optimizer to
        an :class:`~repro.training.LRScheduler`, stepped once per epoch.

        ``union_batching=True`` opts the sharded gradient path into
        union-grid micro-shard planning (rows grouped by time-grid overlap
        — see :mod:`repro.parallel.union`); it implies the sharded path
        even with ``workers=0``.  Ignored when an explicit ``parallel=``
        config is given (set ``ParallelConfig.union_batching`` there)."""
        if task not in ("classification", "regression"):
            raise ValueError(f"unknown task {task!r}")
        self.model = model
        self.task = task
        self.config = config or TrainConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.lr,
                              weight_decay=self.config.weight_decay)
        self.scheduler = (scheduler_factory(self.optimizer)
                          if scheduler_factory is not None else None)
        if parallel is None and (workers or union_batching):
            from ..parallel import ParallelConfig
            parallel = ParallelConfig(workers=workers,
                                      union_batching=union_batching)
        self.parallel = parallel
        self._executor = None
        if (self.parallel is not None
                and getattr(self.parallel, "union_batching", False)
                and hasattr(model, "union_forward")):
            # Continuous models route their regression forward through
            # union-grid batched solves (repro.parallel.union_solve); the
            # flag is inert for classification / non-adaptive solvers.
            model.union_forward = True

    # ------------------------------------------------------------------
    def loss_fn(self, batch: Batch) -> Tensor:
        # Models with their own training objective (e.g. the VAE Latent ODE
        # with an ELBO) expose compute_loss(batch); evaluation still goes
        # through forward() so metrics stay comparable.
        return compute_loss(self.model, self.task, batch)

    def _ensure_executor(self):
        if self.parallel is None:
            return None
        if self._executor is None:
            from ..parallel import make_executor
            self._executor = make_executor(self.model, self.task,
                                           self.parallel)
        return self._executor

    def close(self) -> None:
        """Release parallel worker processes (no-op for the serial path)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def train_epoch(self, dataset: Dataset, rng: np.random.Generator,
                    max_batches: int | None = None) -> float:
        """One pass over ``dataset``; returns the mean training loss.

        ``max_batches`` caps the number of optimizer steps (used by the
        profiling CLI to time a handful of representative steps).
        """
        reg = get_registry()
        executor = self._ensure_executor()
        self.model.train()
        avg = RunningAverage()
        epoch_start = time.perf_counter()
        num_obs = 0.0
        with reg.timer("train/epoch"):
            for i, batch in enumerate(batch_iter(dataset,
                                                 self.config.batch_size, rng)):
                if max_batches is not None and i >= max_batches:
                    break
                self.optimizer.zero_grad()
                if executor is None:
                    with reg.timer("forward"):
                        loss = self.loss_fn(batch)
                    with reg.timer("backward"):
                        loss.backward()
                    loss_value = loss.item()
                else:
                    # Sharded gradient step (in-process or worker pool);
                    # fills param.grad and returns the weighted-mean loss.
                    with reg.timer("parallel"):
                        loss_value = executor.grad_step(batch)
                with reg.timer("optimizer"):
                    grad_norm = clip_grad_norm(self.optimizer.params,
                                               self.config.clip_norm)
                    self.optimizer.step()
                avg.update(loss_value, batch.batch_size)
                if reg.enabled:
                    reg.observe("train.loss", loss_value)
                    if grad_norm is not None:
                        reg.observe("train.grad_norm", float(grad_norm))
                    num_obs += float(np.asarray(batch.mask).sum())
        if reg.enabled:
            elapsed = time.perf_counter() - epoch_start
            reg.inc("train.epochs")
            reg.observe("train.epoch_seconds", elapsed)
            if elapsed > 0:
                reg.set_gauge("train.obs_per_sec", num_obs / elapsed)
            reg.event("epoch", "train", loss=avg.value, seconds=elapsed,
                      obs=num_obs)
        return avg.value

    def evaluate(self, dataset: Dataset, batch_size: int | None = None) -> EvalResult:
        self.model.eval()
        batch_size = batch_size or self.config.batch_size
        loss_avg = RunningAverage()
        metric_avg = RunningAverage()
        with no_grad():
            for start in range(0, len(dataset), batch_size):
                batch = collate(dataset.samples[start:start + batch_size])
                out = self.model.forward(batch)
                if self.task == "classification":
                    loss = cross_entropy(out, batch.labels)
                    metric_avg.update(top1_accuracy(out.data, batch.labels),
                                      batch.batch_size)
                else:
                    loss = masked_mse_loss(out, batch.target_values,
                                           batch.target_mask)
                    metric_avg.update(
                        scaled_mse(out.data, batch.target_values,
                                   batch.target_mask),
                        max(float(np.asarray(batch.target_mask).sum()), 1.0))
                loss_avg.update(loss.item(), batch.batch_size)
        if self.task == "classification":
            return EvalResult(loss=loss_avg.value, accuracy=metric_avg.value)
        return EvalResult(loss=loss_avg.value, mse=metric_avg.value)

    # ------------------------------------------------------------------
    def fit(self, train_set: Dataset, val_set: Dataset | None = None) -> TrainHistory:
        """Train with early stopping; restores the best-validation weights."""
        cfg = self.config
        reg = get_registry()
        rng = np.random.default_rng(cfg.seed)
        history = TrainHistory()
        best: EvalResult | None = None
        best_state = None
        bad_epochs = 0

        try:
            for epoch in range(cfg.epochs):
                start = time.perf_counter()
                train_loss = self.train_epoch(train_set, rng)
                history.train_loss.append(train_loss)
                history.epoch_seconds.append(time.perf_counter() - start)
                if self.scheduler is not None:
                    self.scheduler.step()

                if val_set is not None and len(val_set):
                    val = self.evaluate(val_set)
                    history.val_loss.append(val.loss)
                    # Early stopping selects on validation *loss*: comparable
                    # across tasks and what the paper's patience rule tracks.
                    if val.is_improvement(best, metric="loss",
                                          min_delta=1e-9):
                        best = val
                        best_state = self.model.state_dict()
                        history.best_epoch = epoch
                        bad_epochs = 0
                    else:
                        bad_epochs += 1
                    if reg.enabled:
                        reg.set_gauge("train.best_val_loss",
                                      best.loss if best else val.loss)
                        reg.set_gauge("train.bad_epochs", bad_epochs)
                        reg.event("val", "val", epoch=epoch, loss=val.loss,
                                  primary=val.primary,
                                  best_epoch=history.best_epoch,
                                  bad_epochs=bad_epochs)
                    if cfg.verbose:
                        print(f"epoch {epoch:3d} train {train_loss:.4f} "
                              f"val {val.loss:.4f}")
                    if bad_epochs >= cfg.patience:
                        if reg.enabled:
                            reg.event("val", "early_stop", epoch=epoch,
                                      best_epoch=history.best_epoch)
                        break
                elif cfg.verbose:
                    print(f"epoch {epoch:3d} train {train_loss:.4f}")
        finally:
            # Release worker processes; the executor is re-created lazily if
            # the trainer is used again.
            self.close()

        if best_state is not None:
            self.model.load_state_dict(best_state)
        return history
