"""Tier-2 InferencePool behaviour: pipe serialisation under concurrent
execute/hot-reload, parent-side checkpoint validation, info metadata
tracking the served weights, and recovery from a worker that dies.

These fork real worker processes, so the module is opt-in (``pytest -m
tier2`` / ``scripts/test.sh serving`` / ``full``).
"""

import itertools
import multiprocessing as mp
import os
import signal
import threading

import numpy as np
import pytest

from repro.parallel import InferencePool
from repro.parallel.inference import _series_slot
from repro.training import save_diffode

from .conftest import make_payload, tiny_model

pytestmark = [
    pytest.mark.tier2,
    pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                       reason="inference pool needs the POSIX fork method"),
]


@pytest.fixture
def pool():
    p = InferencePool(tiny_model(), workers=2)
    yield p
    p.close()


@pytest.fixture
def checkpoint(tmp_path):
    path = tmp_path / "swap.npz"
    save_diffode(tiny_model(seed=7), path)
    return str(path)


class TestExecute:
    def test_round_trip_keeps_slot_order(self, pool, rng):
        payloads = [make_payload(rng, series_id=f"s{i}") for i in range(4)]
        results = pool.execute(payloads)
        assert len(results) == len(payloads)
        for payload, response in zip(payloads, results):
            assert response["ok"], response
            assert response["series_id"] == payload["series_id"]


class TestHotReload:
    def test_info_tracks_swapped_version(self, pool, checkpoint, rng):
        assert pool.info()["model_version"] == 0
        version = pool.swap_model(checkpoint)
        assert version == 1
        assert pool.info()["model_version"] == version
        (response,) = pool.execute([make_payload(rng)])
        assert response["ok"] and response["model_version"] == version

    def test_bad_checkpoint_fails_in_parent(self, pool, tmp_path, rng):
        bad = tmp_path / "garbage.npz"
        bad.write_bytes(b"not a checkpoint")
        with pytest.raises(Exception):
            pool.swap_model(str(bad))
        # Workers never saw the broadcast; the pool still serves.
        assert pool.info()["model_version"] == 0
        (response,) = pool.execute([make_payload(rng)])
        assert response["ok"] and response["model_version"] == 0

    def test_concurrent_execute_and_reload_do_not_cross(
            self, pool, checkpoint, rng):
        """Regression: batch responses and reload acks share per-worker
        pipes, so unserialised execute/swap_model interleavings zipped
        request slots against the reload ack (garbage responses) and
        crashed swap_model on the batch list."""
        payloads = [make_payload(rng, series_id=f"c{i}") for i in range(6)]
        responses, versions, errors = [], [], []
        start = threading.Barrier(2)

        def run_batches():
            try:
                start.wait()
                for _ in range(6):
                    responses.extend(pool.execute(payloads))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def run_reloads():
            try:
                start.wait()
                for _ in range(3):
                    versions.append(pool.swap_model(checkpoint))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=run_batches),
                   threading.Thread(target=run_reloads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert versions == [1, 2, 3]
        assert len(responses) == 6 * len(payloads)
        for response in responses:
            assert isinstance(response, dict) and response["ok"], response
            assert np.asarray(response["predictions"]).size > 0


def _series_on(wid: int, workers: int = 2) -> str:
    """A series id that the pool routes to worker ``wid``."""
    return next(f"w{wid}-{k}" for k in itertools.count()
                if _series_slot(f"w{wid}-{k}", workers) == wid)


def _kill(pool, wid: int) -> None:
    proc = pool._procs[wid]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)
    assert not proc.is_alive()


class TestDeadWorker:
    """A worker killed under the pool fails only its own slots, once, and
    is respawned; no reply is left in a pipe to answer a later request."""

    DEAD, HEALTHY = 0, 1

    def _mixed_batch(self, pool, rng):
        # The healthy worker's series comes first, so its reply is due
        # before the pool reaches the dead worker's pipe.
        return pool.execute([
            make_payload(rng, series_id=_series_on(self.HEALTHY),
                         n_queries=3),
            make_payload(rng, series_id=_series_on(self.DEAD))])

    def test_mixed_batch_fails_only_dead_slots(self, pool, rng):
        _kill(pool, self.DEAD)
        healthy, dead = self._mixed_batch(pool, rng)
        assert healthy["ok"], healthy
        assert not dead["ok"]
        assert f"worker {self.DEAD}" in dead["error"]

    def test_healthy_worker_answers_its_own_next_request(self, pool, rng):
        _kill(pool, self.DEAD)
        self._mixed_batch(pool, rng)
        (response,) = pool.execute([make_payload(
            rng, series_id=_series_on(self.HEALTHY), n_queries=1)])
        assert response["ok"], response
        assert len(response["predictions"]) == 1

    @pytest.mark.parametrize("swap_first", [False, True])
    def test_dead_workers_series_served_cold_at_pool_version(
            self, pool, checkpoint, rng, swap_first):
        if swap_first:
            pool.swap_model(checkpoint)
        series = _series_on(self.DEAD)
        payload = make_payload(rng, series_id=series)
        (warm,) = pool.execute([payload])        # seeds the worker's cache
        assert warm["ok"], warm
        _kill(pool, self.DEAD)
        (lost,) = pool.execute([payload])
        assert not lost["ok"]
        (response,) = pool.execute([payload])
        assert response["ok"], response
        assert response["cache"] == "miss"
        assert response["model_version"] == pool.info()["model_version"]
        assert response["model_version"] == int(swap_first)

    def test_swap_after_kill_reaches_every_worker(self, pool, checkpoint,
                                                  rng):
        _kill(pool, self.DEAD)
        assert pool.swap_model(checkpoint) == 1
        responses = pool.execute([
            make_payload(rng, series_id=_series_on(wid))
            for wid in range(pool.workers)])
        for response in responses:
            assert response["ok"], response
            assert response["model_version"] == 1
