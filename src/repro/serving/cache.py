"""Per-series context cache for the serving path.

A cold ``predict`` request pays the full pipeline: encode the series,
build the per-head DHS contexts, solve from ``t=0``.  Everything but the
solve span is a pure function of the series' observations and the model
weights, so :class:`ContextCache` keeps, per series id, a warm
:class:`~repro.core.streaming.StreamSession` holding the encoder carry,
the built :class:`~repro.core.dhs.ContextState` per head (statics already
``mark_static()``-tagged, so compiled RHS traces survive across requests
of one bind generation), and the solver's
:class:`~repro.odeint.resume.ResumeState` frontier.

Whether an entry is *valid* for a request is decided by the
observation-suffix hash: the entry records a digest over the exact bytes
of the observations it has ingested, and a request hits only when its
first ``n_obs`` observations hash to the same digest.  Then

* same length  → repeat query: resume the solver from the frontier;
* longer       → growing series: rank-1 ``ContextState.extend`` per new
  row, then a resumed solve if every new row lies ahead of the frontier
  (the streaming fast path), else a solve from ``t=0`` over the
  extended contexts;
* shorter or digest mismatch → the client's view of the series diverged
  from the cached prefix: the entry is evicted and the request is served
  cold (full rebuild).

Eviction is LRU by request order; entries also die wholesale on weight
hot-reload (they embed encoder outputs of the old weights).  Telemetry:
``serving.cache_hits`` / ``serving.cache_misses`` /
``serving.cache_evictions`` counters and the ``serving.cache_size``
gauge — see ``docs/telemetry.md``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..telemetry import get_registry

__all__ = ["CacheEntry", "ContextCache", "observation_digest"]


def observation_digest(times: np.ndarray, values: np.ndarray) -> str:
    """Digest over the exact bytes of ``(times, values)``.

    Bit-exact by construction: two requests hash equal iff their float64
    observation arrays are identical, so a cache hit can never serve a
    prefix the client does not actually share.
    """
    t = np.ascontiguousarray(times, dtype=np.float64)
    v = np.ascontiguousarray(values, dtype=np.float64)
    h = hashlib.sha1()
    h.update(t.tobytes())
    h.update(v.tobytes())
    return h.hexdigest()


@dataclass
class CacheEntry:
    """One series' warm state (see module docstring)."""

    series_id: str
    #: digest over the ``n_obs`` observations the session has ingested
    obs_hash: str
    n_obs: int
    #: warm :class:`~repro.core.streaming.StreamSession`
    session: object
    #: weight generation the session was built under
    model_version: int

    def absorb(self, times: np.ndarray, values: np.ndarray) -> None:
        """Record that the session now covers these ``len(times)`` rows."""
        self.obs_hash = observation_digest(times, values)
        self.n_obs = int(len(times))


class ContextCache:
    """LRU of :class:`CacheEntry` keyed by series id (see module doc)."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, series_id: str) -> bool:
        return series_id in self._entries

    # ------------------------------------------------------------------
    def lookup(self, series_id: str, times: np.ndarray, values: np.ndarray,
               model_version: int) -> CacheEntry | None:
        """Return the warm entry for this request, or ``None`` (cold).

        A returned entry is guaranteed to cover a bit-exact prefix of the
        request's observations (possibly all of them).  Invalid entries
        (stale weights, shrunk series, suffix-hash mismatch) are evicted
        on the spot so the cold rebuild can replace them.
        """
        reg = get_registry()
        entry = self._entries.get(series_id)
        if entry is not None and entry.model_version != model_version:
            self._evict(series_id)
            entry = None
        if entry is not None and len(times) >= entry.n_obs:
            prefix = observation_digest(times[:entry.n_obs],
                                        values[:entry.n_obs])
            if prefix != entry.obs_hash:
                self._evict(series_id)
                entry = None
        elif entry is not None:
            # The request carries fewer observations than the session has
            # ingested: its view of the series diverged.
            self._evict(series_id)
            entry = None
        if entry is None:
            self.misses += 1
            if reg.enabled:
                reg.inc("serving.cache_misses")
            return None
        self.hits += 1
        self._entries.move_to_end(series_id)
        if reg.enabled:
            reg.inc("serving.cache_hits")
        return entry

    def store(self, entry: CacheEntry) -> None:
        """Insert/replace an entry; evicts LRU entries beyond capacity."""
        self._entries[entry.series_id] = entry
        self._entries.move_to_end(entry.series_id)
        while len(self._entries) > self.capacity:
            oldest, _ = self._entries.popitem(last=False)
            self.evictions += 1
            reg = get_registry()
            if reg.enabled:
                reg.inc("serving.cache_evictions")
        reg = get_registry()
        if reg.enabled:
            reg.set_gauge("serving.cache_size", float(len(self._entries)))

    def _evict(self, series_id: str) -> None:
        self._entries.pop(series_id, None)
        self.evictions += 1
        reg = get_registry()
        if reg.enabled:
            reg.inc("serving.cache_evictions")
            reg.set_gauge("serving.cache_size", float(len(self._entries)))

    def clear(self) -> None:
        """Drop everything (weight hot-reload invalidates all sessions)."""
        self.evictions += len(self._entries)
        self._entries.clear()
        reg = get_registry()
        if reg.enabled:
            reg.set_gauge("serving.cache_size", 0.0)
