"""Fork-based inference workers for the serving layer.

:class:`InferencePool` is the serving counterpart of the gradient
:class:`~repro.parallel.WorkerPool`: each fork worker holds a full
:class:`~repro.serving.engine.InferenceEngine` (model copy + its own
:class:`~repro.serving.cache.ContextCache`).  Requests are routed by
**series-id affinity** — ``hash(series_id) % workers`` — so repeat
queries for one series always land on the worker whose cache holds its
warm session; the per-worker caches never need coherence traffic.

The pool's :meth:`execute` is blocking (the asyncio server calls it via
``run_in_executor``, exactly like the in-process engine), fanning one
micro-batch out as per-worker sub-batches and reassembling responses in
payload order.  Hot-reload broadcasts the checkpoint path and each worker
re-loads + swaps behind its own engine lock.  A worker that dies fails
only its own slots of the batch in flight and is respawned before
:meth:`execute` returns, with a fresh engine (empty cache) on the pool's
current model and version; a reload respawns dead workers before it
broadcasts.

Transport is a plain duplex Pipe per worker: payloads and responses are
small JSON-able dicts, so no shared-memory arenas are needed here — the
model itself travels by fork copy-on-write.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import threading
import traceback

from ..telemetry import get_registry

__all__ = ["InferencePool"]


def _series_slot(series_id: str, workers: int) -> int:
    """Stable worker index for a series id (``hash()`` is salted per
    process, which would break parent/worker agreement and tests)."""
    digest = hashlib.sha1(str(series_id).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % workers


def _worker_main(wid: int, conn, model, engine_kwargs: dict,
                 model_version: int) -> None:
    """Worker loop: build an engine around the forked model and serve."""
    from ..serving.engine import InferenceEngine
    from ..training.serialization import load_diffode

    engine = InferenceEngine(model, **engine_kwargs)
    engine.model_version = model_version
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        if msg[0] == "reload":
            try:
                version = engine.swap_model(load_diffode(msg[1]))
                conn.send(("ok", wid, {"model_version": version}))
            except Exception:
                conn.send(("err", wid, traceback.format_exc()))
            continue
        if msg[0] == "batch":
            try:
                conn.send(("ok", wid, engine.execute(msg[1])))
            except Exception:  # pragma: no cover - engine never raises
                conn.send(("err", wid, traceback.format_exc()))
            continue
        conn.send(("err", wid, f"unknown message {msg[0]!r}"))


class InferencePool:
    """Routes serving micro-batches to fork workers by series affinity."""

    def __init__(self, model, *, workers: int = 2, **engine_kwargs):
        if workers < 1:
            raise ValueError("InferencePool needs workers >= 1")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "inference workers need the POSIX 'fork' start method; "
                "use workers=0 on this platform")
        # Validate the model up front (fail in the parent, not a worker).
        from ..serving.engine import InferenceEngine
        InferenceEngine._check_model(model)
        self.workers = int(workers)
        self.model = model
        self._engine_kwargs = dict(engine_kwargs)
        #: mirrors the workers' engine version (bumped by hot reloads).
        self._version = 0
        # The batcher runs ``execute`` on one executor thread while
        # ``reload_now`` runs ``swap_model`` on another; the pipes carry
        # no request ids, so interleaved send/recv pairs would cross
        # reload acks with batch responses.  Serialise every pipe
        # round-trip, mirroring ``InferenceEngine._lock``.
        self._lock = threading.Lock()
        self._ctx = mp.get_context("fork")
        self._conns = [None] * self.workers
        self._procs = [None] * self.workers
        for wid in range(self.workers):
            self._spawn(wid)
        get_registry().set_gauge("serving.workers", self.workers)

    def _spawn(self, wid: int) -> None:
        """Fork worker ``wid``: a fresh engine on ``self.model`` at the
        pool's current model version."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, self.model, self._engine_kwargs,
                  self._version),
            daemon=True, name=f"repro-serve-worker-{wid}")
        proc.start()
        child_conn.close()
        self._conns[wid] = parent_conn
        self._procs[wid] = proc

    def _respawn(self, wid: int) -> None:
        """Replace a dead worker.  Its cached sessions die with it, so its
        series' next requests are cold."""
        try:
            self._conns[wid].close()
        except OSError:
            pass
        proc = self._procs[wid]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=2.0)
        get_registry().inc("serving.respawns")
        self._spawn(wid)

    # ------------------------------------------------------------------
    def info(self) -> dict:
        from ..serving.engine import InferenceEngine
        info = InferenceEngine(self.model, **self._engine_kwargs).info()
        info["model_version"] = self._version
        info["pool_workers"] = self.workers
        return info

    def execute(self, payloads: list[dict]) -> list[dict]:
        """Fan one micro-batch out by series affinity; blocking."""
        sub: dict[int, list[tuple[int, dict]]] = {}
        for i, payload in enumerate(payloads):
            wid = _series_slot(payload.get("series_id", ""), self.workers)
            sub.setdefault(wid, []).append((i, payload))
        results: list[dict | None] = [None] * len(payloads)
        with self._lock:
            sent = [wid for wid, items in sub.items()
                    if self._send(wid, ("batch", [p for _, p in items]))]
            dead = [wid for wid in sub if wid not in sent]
            # Read every worker that was sent to, so no reply is left in a
            # pipe to answer a later request.
            for wid in sent:
                items = sub[wid]
                msg = self._recv(wid)
                if msg is None:
                    dead.append(wid)
                elif msg[0] == "ok":
                    for (i, _), response in zip(items, msg[2]):
                        results[i] = response
                else:
                    for i, _ in items:
                        results[i] = {
                            "ok": False,
                            "error": f"worker {wid} failed:\n{msg[2]}"}
            for wid in dead:
                for i, _ in sub[wid]:
                    results[i] = {
                        "ok": False,
                        "error": f"worker {wid} died; it was respawned "
                                 "with an empty cache"}
                self._respawn(wid)
        return results  # type: ignore[return-value]

    def swap_model(self, checkpoint_path) -> int:
        """Broadcast a hot-reload; returns the new model version.

        Unlike the in-process engine, the pool reloads from the
        checkpoint *path* — the parent keeps a template model for
        ``info``, refreshed here so metadata tracks the served weights.
        Accepts a path (str); passing a model object is a programming
        error here.
        """
        if not isinstance(checkpoint_path, str):
            raise TypeError("InferencePool.swap_model takes a checkpoint "
                            "path; in-memory swap needs workers=0")
        # Load + validate in the parent before broadcasting, so a bad
        # checkpoint fails here without half-reloaded workers.
        from ..serving.engine import InferenceEngine
        from ..training.serialization import load_diffode
        new_model = load_diffode(checkpoint_path)
        InferenceEngine._check_model(new_model)
        version = 0
        with self._lock:
            for wid, proc in enumerate(self._procs):
                if not proc.is_alive():
                    self._respawn(wid)
            sent = [wid for wid in range(self.workers)
                    if self._send(wid, ("reload", checkpoint_path))]
            # Read every ack before judging any, so none is left in a
            # pipe to answer a later request.
            replies = {wid: self._recv(wid) for wid in sent}
            for wid in range(self.workers):
                msg = replies.get(wid)
                if msg is None:
                    raise RuntimeError(f"worker {wid} died during reload")
                if msg[0] != "ok":
                    raise RuntimeError(
                        f"worker {wid} reload failed:\n{msg[2]}")
                version = max(version, int(msg[2]["model_version"]))
            self.model = new_model
            self._version = version
        get_registry().inc("serving.reloads")
        return version

    def _send(self, wid: int, msg) -> bool:
        """Send ``msg`` to worker ``wid``; False if its pipe is dead."""
        try:
            self._conns[wid].send(msg)
        except OSError:
            return False
        return True

    def _recv(self, wid: int):
        """Worker ``wid``'s next message, or None if its pipe is dead."""
        try:
            return self._conns[wid].recv()
        except (EOFError, OSError):
            return None

    def close(self) -> None:
        with self._lock:
            conns, procs = self._conns, self._procs
            self._conns, self._procs = [], []
        for conn, proc in zip(conns, procs):
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            try:
                conn.close()
            except OSError:
                pass
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stubborn hang
                proc.terminate()
                proc.join(timeout=2.0)

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety
        try:
            self.close()
        except Exception:
            pass
