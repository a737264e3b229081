"""The detection service: an asyncio server over the S³ index family.

The paper's deployed use case is a TV-monitoring service answering a
continuous stream of statistical queries against a growing reference
archive.  This package turns the in-process engines into that service:

* :mod:`.protocol` — a length-prefixed framing protocol carrying
  ``query`` / ``detect`` / ``ingest`` / ``stats`` / ``health`` requests
  and their replies as JSON headers with numpy columns as raw bytes;
* :mod:`.batcher` — a dynamic micro-batcher that aggregates fingerprints
  from concurrent connections into one
  :class:`~repro.index.batch.BatchQueryExecutor` call, with admission
  control and deadline propagation;
* :mod:`.server` — the asyncio :class:`DetectionServer`: bounded queue,
  explicit load shedding, graceful drain on shutdown;
* :mod:`.client` — a blocking wire client with timeouts and capped
  exponential-backoff retries;
* :mod:`.runner` — a thread-embedded server for tests and benchmarks.

Results served through the micro-batcher are **bit-identical** to solo
in-process :meth:`~repro.index.s3.S3Index.statistical_query` calls in
deterministic mode — see ``docs/serving.md``.
"""

from .batcher import (
    BatcherStats,
    DeadlineExceeded,
    MicroBatcher,
    ServiceClosed,
    ServiceOverloaded,
)
from .client import ServeClient, ServerError, ServiceUnavailable, WireResult
from .protocol import ProtocolError
from .runner import ServerThread, ServiceThread
from .server import (
    DetectionServer,
    NotReady,
    ServeConfig,
    SocketFrameServer,
    WireOpError,
)

__all__ = [
    "BatcherStats",
    "DeadlineExceeded",
    "DetectionServer",
    "MicroBatcher",
    "NotReady",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServerError",
    "ServerThread",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceThread",
    "ServiceUnavailable",
    "SocketFrameServer",
    "WireOpError",
]
