"""Tiered segment storage: RAM-hot / mmap-warm / blob-cold.

See :mod:`repro.storage.manager` for the architecture overview and
``docs/storage-tiers.md`` for the operator's guide.

Import-cycle rule: this package imports :mod:`repro.index` at module
level; nothing in :mod:`repro.index` may import :mod:`repro.storage`
at module level (only lazily inside functions).
"""

from .blob import BLOB_SUFFIX, BlobBackend, FakeBlobBackend, FileBlobBackend
from .coldseg import (
    ColdSegmentReader,
    fetch_columns,
    keys_filename,
    load_keys,
    row_bytes,
    save_keys,
    store_from_blob,
)
from .manager import (
    DEFAULT_COLD_DIR,
    TIER_COLD,
    TIER_HOT,
    TIER_WARM,
    TIERS,
    StorageConfig,
    TierManager,
    TierStats,
)

__all__ = [
    "BLOB_SUFFIX",
    "BlobBackend",
    "FakeBlobBackend",
    "FileBlobBackend",
    "ColdSegmentReader",
    "fetch_columns",
    "keys_filename",
    "load_keys",
    "row_bytes",
    "save_keys",
    "store_from_blob",
    "DEFAULT_COLD_DIR",
    "TIER_COLD",
    "TIER_HOT",
    "TIER_WARM",
    "TIERS",
    "StorageConfig",
    "TierManager",
    "TierStats",
]
