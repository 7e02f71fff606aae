"""Batched inference engine behind the serving micro-batcher.

:class:`InferenceEngine` turns one micro-batch of validated ``predict``
payloads into responses:

* **warm** requests (a :class:`~repro.serving.cache.ContextCache` hit)
  reuse the cached :class:`~repro.core.streaming.StreamSession`: new
  suffix observations are ingested one by one (rank-1 context ``extend``
  + resume rebase each), then :meth:`StreamSession.predict_times` answers
  — no re-encode and no context rebuild.  Queries ahead of the carried
  solver frontier resume it.  A new observation *behind* the frontier
  restarts the solve from ``t=0`` over the extended contexts, and a query
  behind it takes a read-only solve from ``t=0``;
* **cold** requests are collated into one padded batch, encoded and
  solved together by :meth:`~repro.core.DiffODE.union_states` through
  :func:`repro.parallel.union_solve` — the planner groups co-arriving
  series with overlapping query spans so they share one dense dopri5
  integration.  Each cold series then seeds a warm session
  (:meth:`StreamSession.from_state`) for the cache, so the next query on
  the same series takes the warm path.

`execute` is the only entry point and is fully serialised by a lock, both
against itself (the server may run batches on an executor thread pool)
and against :meth:`swap_model` — a checkpoint hot-reload waits for the
in-flight batch to finish on the old weights, then swaps and bumps
``model_version``, which invalidates every cache entry.
"""

from __future__ import annotations

import threading

import numpy as np

from ..autodiff import Tensor, no_grad
from ..core.streaming import StreamSession
from ..odeint import ADAPTIVE_METHODS
from ..parallel import union_solve
from ..telemetry import get_registry
from .cache import CacheEntry, ContextCache, observation_digest

__all__ = ["InferenceEngine", "RequestError"]


class RequestError(ValueError):
    """A predict payload failed validation (per-request, not fatal)."""


class InferenceEngine:
    """Executes micro-batches of predict requests against one model."""

    def __init__(self, model, *, cache_capacity: int = 256,
                 max_bucket: int = 64, min_overlap: float = 0.25):
        self._check_model(model)
        self.model = model
        self.cache = ContextCache(cache_capacity)
        self.max_bucket = int(max_bucket)
        self.min_overlap = float(min_overlap)
        #: bumped on every hot-reload; cache entries pin the version they
        #: were built under and miss when it moves.
        self.model_version = 0
        self._lock = threading.Lock()

    @staticmethod
    def _check_model(model) -> None:
        cfg = model.config
        if cfg.num_classes is not None or cfg.out_dim is None:
            raise ValueError("serving supports regression models only")
        if cfg.method not in ADAPTIVE_METHODS:
            raise ValueError(
                f"serving requires an adaptive solver (union-grid batching "
                f"+ resumable solves); got method={cfg.method!r}")

    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Model + serving configuration (the ``info`` op; the load
        generator reads this to synthesise compatible request series)."""
        cfg = self.model.config
        return {
            "model": self.model.describe(),
            "model_version": self.model_version,
            "input_dim": cfg.input_dim,
            "out_dim": cfg.out_dim,
            "min_context": self.model.min_context,
            "max_len": cfg.max_len,
            "rtol": cfg.rtol,
            "atol": cfg.atol,
            "cache_capacity": self.cache.capacity,
            "max_bucket": self.max_bucket,
            "min_overlap": self.min_overlap,
        }

    def swap_model(self, new_model) -> int:
        """Install new weights; waits for the in-flight batch to finish.

        Requests already executing keep the old model end to end; the
        cache is cleared (its sessions embed old-weight encoder outputs)
        and ``model_version`` moves so any entry that escaped the clear
        can never be served.
        """
        self._check_model(new_model)
        with self._lock:
            self.model = new_model
            self.model_version += 1
            self.cache.clear()
            reg = get_registry()
            if reg.enabled:
                reg.inc("serving.reloads")
            return self.model_version

    # ------------------------------------------------------------------
    # request validation
    # ------------------------------------------------------------------
    def validate(self, payload: dict) -> dict:
        """Normalise one predict payload; raises :class:`RequestError`."""
        cfg = self.model.config
        try:
            series_id = str(payload["series_id"])
            times = np.asarray(payload["times"], dtype=np.float64).reshape(-1)
            values = np.asarray(payload["values"], dtype=np.float64)
            query = np.asarray(payload["query_times"],
                               dtype=np.float64).reshape(-1)
        except (KeyError, TypeError, ValueError) as exc:
            raise RequestError(f"malformed predict payload: {exc}") from exc
        if len(times) == 0:
            # Reject before the reshape below: values.reshape(0, -1) on a
            # non-empty array raises a raw ValueError, which would escape
            # execute() and fail the whole co-batched micro-batch.
            raise RequestError("need at least one observation")
        if values.size and values.size % len(times) == 0:
            values = values.reshape(len(times), -1)
        if values.shape != (len(times), cfg.input_dim):
            raise RequestError(
                f"values must be ({len(times)}, {cfg.input_dim}); "
                f"got {values.shape}")
        n = len(times)
        min_context = self.model.min_context
        if n < min_context:
            raise RequestError(
                f"need >= {min_context} observations, got {n}")
        if n > cfg.max_len:
            raise RequestError(f"series exceeds max_len={cfg.max_len}")
        if np.any(np.diff(times) <= 0):
            raise RequestError("observation times must be strictly "
                               "increasing")
        if query.size < 1:
            raise RequestError("need at least one query time")
        if np.any(query < 0) or np.any(times < 0):
            raise RequestError("times must be >= 0")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))
                and np.all(np.isfinite(query))):
            raise RequestError("times/values/query_times must be finite")
        return {"series_id": series_id, "times": times, "values": values,
                "query_times": query}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, payloads: list[dict]) -> list[dict]:
        """One micro-batch in, one response dict per payload out.

        Never raises for per-request problems — a payload that fails
        validation (or whose warm/cold solve errors) yields
        ``{"ok": False, "error": ...}`` in its slot.
        """
        with self._lock:
            return self._execute_locked(payloads)

    def _execute_locked(self, payloads: list[dict]) -> list[dict]:
        reg = get_registry()
        results: list[dict | None] = [None] * len(payloads)
        cold: list[tuple[int, dict]] = []
        with no_grad():
            for i, payload in enumerate(payloads):
                try:
                    req = self.validate(payload)
                except RequestError as exc:
                    results[i] = {"ok": False, "error": str(exc)}
                    continue
                entry = self.cache.lookup(req["series_id"], req["times"],
                                          req["values"], self.model_version)
                if entry is None:
                    cold.append((i, req))
                    continue
                try:
                    results[i] = self._serve_warm(entry, req)
                    if reg.enabled:
                        reg.inc("serving.warm_requests")
                except Exception as exc:  # defensive: drop the bad session
                    self.cache._evict(req["series_id"])
                    results[i] = {"ok": False,
                                  "error": f"warm path failed: {exc}"}
            if cold:
                try:
                    for (i, _), resp in zip(cold, self._serve_cold(
                            [req for _, req in cold])):
                        results[i] = resp
                    if reg.enabled:
                        reg.inc("serving.cold_requests", len(cold))
                except Exception as exc:
                    for i, _ in cold:
                        results[i] = {"ok": False,
                                      "error": f"cold path failed: {exc}"}
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _serve_warm(self, entry: CacheEntry, req: dict) -> dict:
        session: StreamSession = entry.session
        times, values = req["times"], req["values"]
        n_new = len(times) - entry.n_obs
        for k in range(entry.n_obs, len(times)):
            session.ingest(float(times[k]), values[k])
        if n_new:
            entry.absorb(times, values)
            reg = get_registry()
            if reg.enabled:
                reg.inc("serving.cache_extends", n_new)
        preds, nfev = session.predict_times(req["query_times"])
        self.cache.store(entry)            # refresh LRU position
        return {"ok": True, "series_id": entry.series_id,
                "predictions": preds.tolist(), "nfev": int(nfev),
                "cache": "hit", "model_version": self.model_version}

    def _serve_cold(self, reqs: list[dict]) -> list[dict]:
        """Collate, encode and union-solve every cold request at once."""
        model = self.model
        cfg = model.config
        B = len(reqs)
        n_max = max(len(r["times"]) for r in reqs)
        values = np.zeros((B, n_max, cfg.input_dim))
        times = np.zeros((B, n_max))
        mask = np.zeros((B, n_max))
        for i, r in enumerate(reqs):
            n = len(r["times"])
            values[i, :n] = r["values"]
            # Pad by repeating the last time (the collate convention):
            # monotone dt features, masked rows inert everywhere else.
            times[i, :n] = r["times"]
            times[i, n:] = r["times"][-1]
            mask[i, :n] = 1.0

        grids, inverses = [], []
        for r in reqs:
            uniq, inv = np.unique(r["query_times"], return_inverse=True)
            grids.append(uniq)
            inverses.append(inv)
        # One encode over the whole batch, keeping the GRU hidden states so
        # warm sessions continue the recurrence from each series' last
        # real row without re-encoding.
        z, h_seq, per_sample, stats = model.union_states(
            values, times, mask, grids, union_solve,
            max_bucket=self.max_bucket, min_overlap=self.min_overlap)

        nfev = int(stats.nfev)
        responses = []
        for i, r in enumerate(reqs):
            states_i = per_sample[i]                  # (n_uniq, state_dim)
            preds = np.asarray(model.head(states_i).data)[inverses[i]]
            self._seed_session(i, r, z, h_seq, grids[i], states_i)
            responses.append({
                "ok": True, "series_id": r["series_id"],
                "predictions": preds.tolist(), "nfev": nfev,
                "cache": "miss", "model_version": self.model_version})
        return responses

    def _seed_session(self, i: int, req: dict, z: Tensor, h_seq,
                      uniq: np.ndarray, states_i: Tensor) -> None:
        """Cache a warm session seeded from the batched cold solve."""
        times, values = req["times"], req["values"]
        n = len(times)
        enc_h = (None if h_seq is None
                 else Tensor(h_seq.data[i, n - 1].reshape(1, -1)))
        session = StreamSession.from_state(
            self.model, times=times,
            z_rows=[z.data[i, k].reshape(1, -1) for k in range(n)],
            enc_h=enc_h,
            y=Tensor(np.array(states_i.data[-1:, :], copy=True)),
            t=float(uniq[-1]))
        self.cache.store(CacheEntry(
            series_id=req["series_id"],
            obs_hash=observation_digest(times, values), n_obs=n,
            session=session, model_version=self.model_version))
