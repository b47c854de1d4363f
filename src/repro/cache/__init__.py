"""repro.cache: content-addressed incremental recompute.

Persistent result caching for the evaluation pipeline.  A cache entry's
key is a sha256 over everything the result depends on — the transitive
source fingerprint of the producing module's in-package import closure
(:mod:`repro.cache.fingerprint`), the call inputs and seeds, and the
Python/NumPy versions (:mod:`repro.cache.keys`) — so entries invalidate
exactly when provenance changes and never otherwise.

One granularity, the whole driver: each entry in the on-disk store
(:mod:`repro.cache.store`, ``results/.cache`` by default, multi-process
safe) is keyed by :func:`~repro.cache.keys.driver_key` and replays a
full :class:`~repro.experiments.base.ExperimentResult` including its
byte-exact CSV (:mod:`repro.cache.runner`).

Enabled with ``python -m repro evaluate --cache`` (and ``profile
--cache``); inspected with ``python -m repro cache {stats,clear,gc}``.
"""

from repro.cache.fingerprint import (
    clear_cached_fingerprints,
    default_root,
    fingerprint,
    import_closure,
    module_imports,
    module_source_path,
)
from repro.cache.keys import (
    KEY_SCHEMA_VERSION,
    driver_key,
    environment_fields,
    value_digest,
)
from repro.cache.runner import (
    CACHE_DIR_NAME,
    DriverProbe,
    decode_result,
    encode_result,
    probe_driver,
    result_from_payload,
    result_payload,
    run_and_save_cached,
    store_for,
)
from repro.cache.store import STORE_SCHEMA_VERSION, CacheStore

__all__ = [
    "CACHE_DIR_NAME",
    "CacheStore",
    "DriverProbe",
    "KEY_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "clear_cached_fingerprints",
    "decode_result",
    "default_root",
    "driver_key",
    "encode_result",
    "environment_fields",
    "fingerprint",
    "import_closure",
    "module_imports",
    "module_source_path",
    "probe_driver",
    "result_from_payload",
    "result_payload",
    "run_and_save_cached",
    "store_for",
    "value_digest",
]
