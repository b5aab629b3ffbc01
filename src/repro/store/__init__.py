"""Content-addressed result store for coverage campaigns.

The repeated workload of the Bolchini et al. reproduction -- the same
few netlists evaluated under the same fault universes again and again
-- is memoised here instead of recomputed.  Three layers:

- :mod:`repro.store.hashing` -- canonical content digests of netlists,
  fault universes, test spaces and campaign parameters, combined into a
  versioned :class:`CacheKey`.
- :mod:`repro.store.store` -- :class:`ResultStore`: filesystem
  ``.npz``/JSON entries with provenance sidecars and an in-process LRU;
  opt-in via ``store=`` keywords or the ``REPRO_STORE`` environment
  variable, off by default.
- :mod:`repro.store.checkpoint` -- :func:`run_checkpointed`: per-span
  checkpoints landing in the store as they complete, so a killed run
  cut into several case spans resumes by re-running only its missing
  spans and still merges bit-identically.
"""

from repro.store.checkpoint import (
    CheckpointReport,
    last_checkpoint_report,
    run_checkpointed,
    shard_hook,
)
from repro.store.hashing import (
    SCHEMA_VERSION,
    CacheKey,
    digest_array,
    digest_bytes,
    digest_cell_library,
    digest_faults,
    digest_input_vectors,
    digest_netlist,
    digest_params,
    digest_test_space,
    digest_vector_table,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    ResultStore,
    STORE_DIR_ENV,
    STORE_ENV,
    StoreCorruptionWarning,
    StoreStats,
    open_store,
    resolve_store,
)

__all__ = [
    "CacheKey",
    "CheckpointReport",
    "DEFAULT_STORE_DIR",
    "ResultStore",
    "SCHEMA_VERSION",
    "STORE_DIR_ENV",
    "STORE_ENV",
    "StoreCorruptionWarning",
    "StoreStats",
    "digest_array",
    "digest_bytes",
    "digest_cell_library",
    "digest_faults",
    "digest_input_vectors",
    "digest_netlist",
    "digest_params",
    "digest_test_space",
    "digest_vector_table",
    "last_checkpoint_report",
    "open_store",
    "resolve_store",
    "run_checkpointed",
    "shard_hook",
]
