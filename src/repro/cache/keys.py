"""Cache-key construction: canonical hashing of driver runs.

A key is a sha256 over everything a result depends on:

* the transitive source fingerprint of the producing code
  (:mod:`repro.cache.fingerprint`);
* the call inputs — experiment name and base and derived seeds;
* the environment — Python and NumPy versions
  (:func:`environment_fields`), since numerical kernels may differ
  across either;
* a key schema version (:data:`KEY_SCHEMA_VERSION`), bumped whenever
  the key layout itself changes so stale layouts can never collide.

:func:`value_digest` is the canonical structural hash used throughout:
it feeds type-tagged representations of JSON-shaped values into sha256
so distinct values never alias (``1`` vs ``1.0`` vs ``"1"``).
"""

from __future__ import annotations

import hashlib
from typing import Any

__all__ = ["KEY_SCHEMA_VERSION", "driver_key", "environment_fields",
           "value_digest"]

#: Bump when the key construction below changes shape.
KEY_SCHEMA_VERSION = 1


def environment_fields() -> dict[str, str]:
    """Interpreter/library identity folded into every cache key."""
    import platform

    import numpy

    return {"python": platform.python_version(),
            "numpy": numpy.__version__}


def _feed(digest: "hashlib._Hash", value: Any) -> None:
    """Feed one value into the digest with unambiguous type tags."""
    if value is None:
        digest.update(b"N;")
    elif isinstance(value, bool):
        digest.update(b"b" + (b"1;" if value else b"0;"))
    elif isinstance(value, float):  # includes np.float64 (a subclass)
        digest.update(b"f" + repr(float(value)).encode() + b";")
    elif isinstance(value, int):
        digest.update(b"i" + str(int(value)).encode() + b";")
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        digest.update(b"s" + str(len(raw)).encode() + b":" + raw + b";")
    elif isinstance(value, (list, tuple)):
        digest.update(b"l" + str(len(value)).encode() + b"[")
        for item in value:
            _feed(digest, item)
        digest.update(b"];")
    elif isinstance(value, dict):
        digest.update(b"d" + str(len(value)).encode() + b"{")
        for key in sorted(value, key=str):
            _feed(digest, str(key))
            _feed(digest, value[key])
        digest.update(b"};")
    else:
        raise TypeError(f"cannot hash {type(value).__name__!r} value "
                        "into a cache key")


def value_digest(value: Any) -> str:
    """Canonical sha256 hex digest of a (possibly nested) value."""
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


def driver_key(name: str, source_fingerprint: str,
               base_seed: int | None, derived_seed: int | None) -> str:
    """Cache key of one whole experiment-driver run."""
    return value_digest({
        "schema": KEY_SCHEMA_VERSION,
        "kind": "driver",
        "name": name,
        "fingerprint": source_fingerprint,
        "base_seed": base_seed,
        "derived_seed": derived_seed,
        "env": environment_fields(),
    })

