"""Traffic-shaped caching for the serve path.

The monitoring workload the paper targets — continuous broadcast streams
checked against a fixed reference archive — repeats the same material
constantly: jingles, ad breaks, channel idents.  Two cooperating
layers exploit that repetition, both preserving the serving contract
that every answer is **bit-identical** to a cold solo
``statistical_query``:

* **Result LRU** (:meth:`ServeCache.get` / :meth:`ServeCache.put`) —
  recent per-fingerprint results keyed by ``(fingerprint bytes, alpha,
  depth)`` and guarded by an **index token** (:func:`index_cache_token`:
  the distortion model's ``cache_token`` plus the index's row/segment
  shape).  Every ingest
  changes the token and clears the cache; a result computed *before* a
  mutation but stored *after* it is dropped by the token guard, so a
  stale answer can never be served.
* **In-flight deduplication** (:meth:`ServeCache.register_inflight`) —
  identical fingerprints arriving concurrently (across any mix of
  connections) execute once; followers await the leader's future and
  share its outcome, including errors: a failed leader fails its
  followers, whose clients retry exactly as if they had executed
  themselves.

A query the layers cannot answer runs the engine's one-copy scan
(:mod:`repro.index.batch`); there is no cache of gathered rows.

The stack is wired by :class:`~repro.serve.server.DetectionServer`
(``ServeConfig(cache=...)``, :data:`DEFAULT_CACHE_CAPACITY` entries)
and consulted by the micro-batcher before admission — cache hits and
follower waits never occupy queue slots.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from ..errors import ConfigurationError
from .metrics import ratio

#: Cache modes of :class:`~repro.serve.server.ServeConfig`: ``"auto"``
#: enables the stack, ``"off"`` disables every layer.
CACHE_MODES = ("auto", "off")

#: Result-LRU capacity (entries) of a server's cache.
DEFAULT_CACHE_CAPACITY = 4096


def index_cache_token(index) -> tuple:
    """Identity of the index state a cached result is valid for.

    Combines the distortion model's ``cache_token`` (model identity)
    with the index's visible shape: total rows, and for segmented
    indexes the segment count and memtable size.  Any ingest, flush or
    compaction changes at least one component.
    """
    model = getattr(index, "model", None)
    token: tuple = (
        model.cache_token() if model is not None else None,
        len(index),
    )
    if hasattr(index, "num_segments"):
        token += (int(index.num_segments), int(index.pending_rows))
    return token


@dataclass
class CacheStats:
    """Counters of every cache layer (the serve ``stats`` block)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    stale_drops: int = 0
    invalidations: int = 0
    inflight_deduped: int = 0

    @property
    def hit_rate(self) -> float:
        return ratio(self.hits, self.hits + self.misses)

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "stores": self.stores,
            "stale_drops": self.stale_drops,
            "invalidations": self.invalidations,
            "inflight_deduped": self.inflight_deduped,
        }


class ServeCache:
    """The server's cache: a token-guarded result LRU + in-flight table.

    ``put`` records the token the result was computed under; a put whose
    token no longer matches the cache's current token is dropped (the
    index mutated between execution and store).  ``invalidate`` swaps
    the token and clears every result.

    One instance per :class:`~repro.serve.server.DetectionServer`; both
    layers live on the event loop (all access is from loop callbacks),
    so each is single-threaded by construction.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        token: Optional[tuple] = None,
    ):
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.token = token
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.inflight: dict[Hashable, asyncio.Future] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: Hashable, value, token: Optional[tuple]) -> None:
        if token != self.token:
            # Computed against an index state that no longer exists.
            self.stats.stale_drops += 1
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, token: Optional[tuple]) -> None:
        """The index mutated: adopt its new token, drop every result."""
        self.token = token
        self.stats.invalidations += 1
        self._entries.clear()

    # ------------------------------------------------------------------
    @staticmethod
    def result_key(
        fingerprint: np.ndarray, alpha: float, depth
    ) -> tuple:
        """Cache key of one query fingerprint under fixed serve options."""
        return (
            np.ascontiguousarray(fingerprint).tobytes(),
            float(alpha),
            depth,
        )

    # ------------------------------------------------------------------
    def leader(self, key: Hashable) -> Optional[asyncio.Future]:
        """The in-flight future already executing *key*, if any."""
        future = self.inflight.get(key)
        if future is not None and not future.done():
            return future
        return None

    def register_inflight(
        self, key: Hashable, future: asyncio.Future
    ) -> None:
        """Make *future* the executing leader for *key*.

        The table entry removes itself when the future completes —
        success, error or cancellation alike — so followers can only
        ever attach to a live execution.
        """
        self.inflight[key] = future

        def _cleanup(fut, *, _key=key):
            if self.inflight.get(_key) is fut:
                del self.inflight[_key]

        future.add_done_callback(_cleanup)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``stats.cache`` block; ``gather`` is always zero — see
        the perf-compat note in :mod:`repro.index.batch`."""
        return {
            "enabled": True,
            **self.stats.snapshot(),
            "entries": len(self),
            "capacity": self.capacity,
            "inflight": len(self.inflight),
            "gather": {"hits": 0, "misses": 0},
        }
