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

Enabled with ``python -m repro evaluate --cache``; inspected with
``python -m repro cache {stats,clear,gc}``.
"""
