"""The manifest of a segmented index directory.

``MANIFEST.json`` is the single source of truth for what is live: the
index geometry (dimension, curve order, key levels, partition depth, the
calibrated σ), the list of sealed segments, and the name of the *current*
write-ahead log.  It is always rewritten **atomically** (write to a
temporary file, fsync, ``os.replace``), so a reader never observes a
half-written manifest and a crash at any point leaves either the old or
the new state — never a mix.

Crash-safety protocol (see ``docs/segmented-index.md``):

* a segment file is fully written and fsynced *before* the manifest that
  references it is installed;
* sealing rotates to a fresh WAL: the new (empty) log is created first,
  then the manifest switches ``wal`` to it, then the old log is deleted.
  A crash between the last two steps leaves a stale log that replay
  ignores (it is not the manifest's ``wal``) and open() garbage-collects.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ...errors import IndexError_
from ..store import PathLike

MANIFEST_NAME = "MANIFEST.json"
_FORMAT = 1


@dataclass
class SegmentMeta:
    """One sealed segment: its file stem, record count and sketch.

    ``sketch`` is the geometry summary of the segment's pre-filter
    sidecar (``{"depth"}``, see
    :mod:`repro.index.segmented.sketch`) or ``None`` for segments sealed
    before the sketch tier existed — open() rebuilds those.

    ``tier`` records where the segment's store bytes live: ``"hot"``
    (in RAM), ``"warm"`` (local mmap) or ``"cold"`` (blob backend only;
    locally just the ``.sketch`` and ``.keys`` sidecars).  A cold tier
    is only ever written *after* the blob and keys sidecar are durable,
    so a manifest that says ``cold`` is always honourable.
    """

    name: str
    count: int
    sketch: dict | None = None
    tier: str = "hot"


@dataclass
class Manifest:
    """Durable description of a segmented index directory."""

    ndims: int
    order: int = 8
    key_levels: int = 2
    depth: int = 16
    sigma: float | None = None
    next_seq: int = 1
    wal: str = "wal-000000.log"
    #: WALs of memtables frozen by a background seal but not yet sealed
    #: into a segment (oldest first).  Replayed *before* ``wal`` on
    #: open, so a crash mid-background-seal loses nothing.  Absent from
    #: the payload when empty — old readers never see the key, so the
    #: manifest format stays 1.
    frozen_wals: list[str] = field(default_factory=list)
    segments: list[SegmentMeta] = field(default_factory=list)
    #: Persisted tiered-storage settings (``StorageConfig.to_manifest()``)
    #: or ``None`` for an untiered directory.  Kept as an opaque dict so
    #: the manifest format stays 1 — old readers ignore unknown keys.
    storage: dict | None = None

    # ------------------------------------------------------------------
    def total_sealed(self) -> int:
        """Records across all sealed segments."""
        return sum(seg.count for seg in self.segments)

    def save(self, directory: PathLike) -> None:
        """Atomically (re)write ``MANIFEST.json`` in *directory*."""
        directory = Path(directory)
        payload = {
            "format": _FORMAT,
            "ndims": self.ndims,
            "order": self.order,
            "key_levels": self.key_levels,
            "depth": self.depth,
            "sigma": self.sigma,
            "next_seq": self.next_seq,
            "wal": self.wal,
            **(
                {"frozen_wals": list(self.frozen_wals)}
                if self.frozen_wals else {}
            ),
            "segments": [
                {
                    "name": seg.name,
                    "count": seg.count,
                    **({"sketch": seg.sketch} if seg.sketch else {}),
                    **({"tier": seg.tier} if seg.tier != "hot" else {}),
                }
                for seg in self.segments
            ],
            **({"storage": self.storage} if self.storage else {}),
        }
        tmp = directory / (MANIFEST_NAME + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, directory / MANIFEST_NAME)
        _fsync_directory(directory)

    @classmethod
    def load(cls, directory: PathLike) -> "Manifest":
        """Read the manifest of *directory*; raise if absent or invalid."""
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise IndexError_(
                f"not a segmented index directory (no {MANIFEST_NAME}): "
                f"{directory}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise IndexError_(f"corrupt manifest {path}: {exc}") from exc
        if payload.get("format") != _FORMAT:
            raise IndexError_(
                f"unsupported manifest format {payload.get('format')!r} "
                f"in {path}"
            )
        try:
            return cls(
                ndims=int(payload["ndims"]),
                order=int(payload["order"]),
                key_levels=int(payload["key_levels"]),
                depth=int(payload["depth"]),
                sigma=(
                    None if payload.get("sigma") is None
                    else float(payload["sigma"])
                ),
                next_seq=int(payload["next_seq"]),
                wal=str(payload["wal"]),
                frozen_wals=[
                    str(w) for w in payload.get("frozen_wals", [])
                ],
                segments=[
                    SegmentMeta(
                        name=str(s["name"]),
                        count=int(s["count"]),
                        sketch=s.get("sketch"),
                        tier=str(s.get("tier", "hot")),
                    )
                    for s in payload["segments"]
                ],
                storage=payload.get("storage"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexError_(f"corrupt manifest {path}: {exc}") from exc

    @classmethod
    def exists(cls, directory: PathLike) -> bool:
        """True if *directory* holds a manifest."""
        return (Path(directory) / MANIFEST_NAME).is_file()


def segment_filename(seq: int) -> str:
    """Canonical file stem of segment number *seq*."""
    return f"seg-{seq:06d}"


def wal_filename(seq: int) -> str:
    """Canonical file name of the WAL created at sequence *seq*."""
    return f"wal-{seq:06d}.log"


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of the directory entry (POSIX durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir-fsync
        pass
    finally:
        os.close(fd)
