"""The unified query-options surface of every index front-end.

:class:`QueryOptions` is the one dataclass
:class:`~repro.index.batch.BatchQueryExecutor`,
:class:`~repro.cbcd.detector.CopyDetector`,
:class:`~repro.cbcd.monitor.StreamMonitor`, the CLI and
:class:`~repro.serve.server.ServeConfig` all accept (``options=``),
carrying the query expectation, the batch size and the pre-filter
mode of the segmented index's sketch tier
(:mod:`repro.index.segmented.sketch`).

``alpha`` and ``depth`` remain first-class method parameters too — they
are query *semantics* from the paper, not engine tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import ConfigurationError

#: Pre-filter modes of the segment-sketch tier.  ``"auto"`` consults a
#: segment's sketch whenever one is loaded (always, for segmented
#: indexes — sketches are built at seal/compaction time), ``"off"``
#: bypasses the tier entirely.  Both return bit-identical results; the
#: mode only changes what is *read*.
PREFILTER_MODES = ("auto", "off")

#: Values :attr:`QueryOptions.prefetch` accepts.  Nothing reads the
#: field: a cold segment is always fetched inline, on the scanning
#: thread (see the perf-compat note in :mod:`repro.index.batch`).
PREFETCH_MODES = ("auto", "off")

#: WAL durability modes of the ingest path (:mod:`repro.index.segmented.wal`),
#: strongest first.  ``"always"`` fsyncs every append, ``"group"``
#: coalesces concurrent appends into one fsync (durable-on-ack, the
#: serving default), ``"async"`` never fsyncs.
DURABILITY_MODES = ("always", "group", "async")


def validate_durability(value: str, api: str = "durability") -> str:
    """Return *value* if it is a durability mode, else raise with help.

    The one check of a durability mode: the WAL and
    :class:`~repro.serve.server.ServeConfig` both call it (the CLI's
    ``--durability`` takes only these choices).
    """
    if value in DURABILITY_MODES:
        return value
    raise ConfigurationError(
        f"{api}: unknown durability mode {value!r} — pick one of "
        f"{', '.join(DURABILITY_MODES)} (always = fsync every append; "
        "group = one fsync per batch of concurrent appends, still "
        "durable before acknowledging; async = no fsync, fastest but "
        "a crash can lose the tail)"
    )


@dataclass(frozen=True)
class QueryOptions:
    """Engine-facing tuning of one query workload.

    Attributes
    ----------
    alpha:
        Expectation of the statistical query (paper §II), in (0, 1):
        the one place the front ends validate it.
    depth:
        Partition depth override; ``None`` keeps the index default.
    batch_size:
        Queries per batched-engine call.
    executor:
        Only ``"auto"`` — see the perf-compat note in
        :mod:`repro.index.batch`.
    prefilter:
        Segment-sketch pre-filter mode (:data:`PREFILTER_MODES`).
    prefetch:
        Validated (:data:`PREFETCH_MODES`) and otherwise ignored — see
        the perf-compat note in :mod:`repro.index.batch`.
    """

    alpha: float = 0.8
    depth: Optional[int] = None
    batch_size: int = 32
    executor: str = "auto"
    prefilter: str = "auto"
    prefetch: str = "auto"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(
                f"alpha must be in (0, 1), got {self.alpha}"
            )
        if self.depth is not None and self.depth < 1:
            raise ConfigurationError(
                f"depth must be >= 1, got {self.depth}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.executor != "auto":
            raise ConfigurationError(
                f"executor must be 'auto', got {self.executor!r}"
            )
        if self.prefilter not in PREFILTER_MODES:
            raise ConfigurationError(
                f"prefilter must be one of {PREFILTER_MODES!r}, "
                f"got {self.prefilter!r}"
            )
        if self.prefetch not in PREFETCH_MODES:
            raise ConfigurationError(
                f"prefetch must be one of {PREFETCH_MODES!r}, "
                f"got {self.prefetch!r}"
            )

    # ------------------------------------------------------------------
    @property
    def prefilter_enabled(self) -> bool:
        """Whether the sketch tier may be consulted under this mode."""
        return self.prefilter != "off"

    def replace(self, **changes) -> "QueryOptions":
        """A copy with *changes* applied (validates like the constructor)."""
        return replace(self, **changes)


def config_options(
    alpha: float, options: Optional[QueryOptions]
) -> QueryOptions:
    """The options of a config that takes ``alpha`` and ``options=``.

    The α of *options* wins; without them, they are built from *alpha*.
    """
    return QueryOptions(alpha=alpha) if options is None else options


def resolve_options(
    options: Optional[QueryOptions],
    *,
    alpha: Optional[float] = None,
    depth: Optional[int] = None,
) -> QueryOptions:
    """Fold one call's ``options=`` and ``alpha``/``depth`` together.

    ``alpha``/``depth`` stay first-class: with ``options=`` they act as
    per-call overrides, without it they seed the constructed options.
    """
    changes = {}
    if alpha is not None:
        changes["alpha"] = alpha
    if depth is not None:
        changes["depth"] = depth
    if options is None:
        return QueryOptions(**changes)
    return options.replace(**changes) if changes else options
