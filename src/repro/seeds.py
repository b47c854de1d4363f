"""Deterministic per-driver and per-stream seed derivation.

One base seed (the CLI's ``--seed``) must reproduce each artifact no
matter which other drivers ran before it, and each fleet cohort no
matter which process ran it.  A shared sequential RNG cannot give that:
driver B would consume the stream where driver A left off, so
``evaluate fig7`` and a full ``evaluate`` would draw different numbers
for fig7.  Instead every driver gets its own seed, derived from
``(base_seed, driver name)`` by hashing — order- and schedule-independent
by construction, so serial and sharded runs draw identical streams and
produce byte-identical CSVs.

:func:`derive_stream_seed` generalizes the same construction to any
labelled substream — the fleet engine derives one independent stream
per cohort from ``(base_seed, "fleet", cohort name)``, so a cohort
draws the same numbers whichever process runs it.
:func:`derive_fault_seed` namespaces the fault layer's streams away
from both.

The module also owns the process-wide *run seed*: ``repro evaluate
--seed N`` calls :func:`set_run_seed`, stochastic code asks
:func:`seeded_rng` for a generator, and every run manifest
(:mod:`repro.obs.manifest`) records :func:`current_seed`.

Kept free of package-internal imports so the experiment drivers, the
fleet and the fault layer can all use it without an import cycle.
"""

from __future__ import annotations

import hashlib
from typing import Any

__all__ = ["current_seed", "derive_driver_seed", "derive_fault_seed",
           "derive_stream_seed", "seeded_rng", "set_run_seed"]

_run_seed: int | None = None


def set_run_seed(seed: int | None) -> None:
    """Set (or clear) the process-wide run seed."""
    global _run_seed
    _run_seed = seed


def current_seed() -> int | None:
    """The seed set by :func:`set_run_seed`, or None."""
    return _run_seed


def seeded_rng(seed: int | None = None) -> "Any":
    """A NumPy generator honoring the run seed (or an explicit one).

    Returns ``np.random.default_rng(seed)`` when ``seed`` is given — the
    sanctioned constructor for derived substreams
    (:func:`derive_stream_seed`) — and
    ``np.random.default_rng(current_seed())`` otherwise: reproducible
    when a seed was set via ``--seed``/:func:`set_run_seed`, fresh
    entropy if not.
    """
    import numpy as np
    return np.random.default_rng(seed if seed is not None else _run_seed)


def derive_stream_seed(base_seed: int | None, *labels: str) -> int | None:
    """Stable 63-bit seed for one labelled substream of a base seed.

    Args:
        base_seed: the run-level seed; ``None`` (unseeded run) passes
            through unchanged.
        labels: the substream's path (e.g. ``("fleet", "kalman_clean")``),
            joined with ``:`` into the hash input — the same scheme
            that has always derived per-driver seeds, so
            ``derive_stream_seed(s, name) == derive_driver_seed(s,
            name)`` and existing goldens hold.

    Returns:
        A seed unique to ``(base_seed, *labels)``, or ``None`` when the
        run is unseeded.
    """
    if base_seed is None:
        return None
    joined = ":".join((str(base_seed), *labels))
    digest = hashlib.sha256(joined.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def derive_driver_seed(base_seed: int | None, name: str) -> int | None:
    """Per-driver seed for one experiment under a base run seed.

    Args:
        base_seed: the run-level seed; ``None`` (unseeded run) passes
            through unchanged.
        name: the experiment id (e.g. ``"fig7"``).

    Returns:
        A stable 63-bit seed unique to ``(base_seed, name)``, or ``None``
        when the run is unseeded.
    """
    return derive_stream_seed(base_seed, name)


def derive_fault_seed(base_seed: int, domain: str) -> int:
    """Stable 63-bit seed for one fault domain under a plan seed.

    Same construction as :func:`derive_driver_seed` but namespaced with
    a ``fault:`` prefix so fault streams never collide with experiment
    streams derived from the same base seed.
    """
    digest = hashlib.sha256(
        f"fault:{base_seed}:{domain}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
