"""Chaos drills: canned exercises of the recovery paths.

Each drill pushes deterministic data through one subsystem with the
injector's faults enabled and returns JSON-able accounting.  They are
what ``python -m repro chaos`` runs and what the golden fault-log
regression test replays — so their inputs are synthesized (a fixed code
ramp, fixed cache payloads), never drawn from ambient entropy, and every
identifier they log is stable across machines and temp directories.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.cache.keys import value_digest
from repro.cache.store import CacheStore
from repro.fault.injector import FaultInjector
from repro.link.packetizer import Packetizer
from repro.link.protocol import simulate_arq_with_faults
from repro.obs.recorder import span

__all__ = ["cache_drill", "link_drill", "run_chaos_drills"]

#: Samples pushed through the link drill (a few dozen packets' worth).
_LINK_DRILL_SAMPLES = 2048

#: Payload size used by the drills (small packets -> many fault draws).
_LINK_DRILL_PAYLOAD_BYTES = 32

#: Entries exercised by the cache corruption drill.
_CACHE_DRILL_ENTRIES = 16


def _drill_codes(n_samples: int, sample_bits: int = 10) -> np.ndarray:
    """A deterministic full-scale ramp of ADC codes (no RNG: the drill
    data must be identical for every plan seed)."""
    lo = -(1 << (sample_bits - 1))
    hi = (1 << (sample_bits - 1)) - 1
    return (np.arange(n_samples, dtype=np.int64)
            % (hi - lo + 1) + lo).astype(np.int32)


def link_drill(injector: FaultInjector) -> dict[str, Any]:
    """Exercise the lossy receive path and the faulted ARQ model.

    Packetizes a fixed code ramp, damages the stream per the plan, and
    reassembles best-effort; then replays delivery under bounded-retry
    ARQ to account goodput.

    Returns:
        ``{"loss": StreamLossReport dict, "arq": FaultedArqReport
        dict, "samples_sent": ..., "samples_recovered": ...}``.
    """
    with span("fault.link_drill"):
        codes = _drill_codes(_LINK_DRILL_SAMPLES)
        packetizer = Packetizer(
            payload_bytes=_LINK_DRILL_PAYLOAD_BYTES)
        raw_packets = [packet.to_bytes()
                       for packet in packetizer.packetize(codes)]
        damaged = injector.inject_packet_stream(raw_packets)
        recovered, loss = packetizer.depacketize_lossy(damaged)
        arq = simulate_arq_with_faults(
            codes, injector,
            payload_bytes=_LINK_DRILL_PAYLOAD_BYTES)
        return {
            "samples_sent": int(codes.size),
            "samples_recovered": int(recovered.size),
            "loss": loss.to_dict(),
            "arq": arq.to_dict(),
        }


def cache_drill(injector: FaultInjector, root: Path | str,
                ) -> dict[str, Any]:
    """Exercise cache corruption, quarantine, and self-healing.

    Writes a batch of entries into a scratch store under ``root``,
    corrupts a plan-driven subset in place, then reads everything back:
    corrupt entries must miss and quarantine, intact ones must hit.  A
    second put/get round proves every damaged slot healed.

    Args:
        injector: seeded injector (draws corruption decisions/modes).
        root: directory for the scratch store (a chaos output dir).

    Returns:
        Drill counters (entries, corrupted, healed, quarantined).
    """
    with span("fault.cache_drill"):
        store = CacheStore(Path(root) / "cache-drill")
        keys = [value_digest({"drill": "cache", "index": index})
                for index in range(_CACHE_DRILL_ENTRIES)]
        for index, key in enumerate(keys):
            store.put(key, {"index": index}, label="fault.cache_drill")
        corrupted: dict[str, str] = {}
        for index, key in enumerate(keys):
            if injector.should_corrupt_entry():
                mode = injector.corrupt_cache_entry(
                    store.entry_path(key), target=f"entry:{index}")
                corrupted[key] = mode
        survivors = 0
        for key in keys:
            entry = store.get(key)
            if key in corrupted:
                assert entry is None, "corrupt entry must read as a miss"
            elif entry is not None:
                survivors += 1
        quarantined = (len(list(store.quarantine_dir.glob("*.json")))
                       if store.quarantine_dir.is_dir() else 0)
        healed = 0
        for index, key in enumerate(keys):
            if key not in corrupted:
                continue
            store.put(key, {"index": index}, label="fault.cache_drill")
            if store.get(key) is not None:
                healed += 1
                injector.record_recovered("cache",
                                          target=f"entry:{index}")
            else:  # pragma: no cover - heal never fails on POSIX
                injector.record_failed("cache", target=f"entry:{index}")
        return {
            "entries": len(keys),
            "intact_hits": survivors,
            "corrupted": len(corrupted),
            "quarantined": quarantined,
            "healed": healed,
        }


def run_chaos_drills(injector: FaultInjector,
                     output_dir: Path | str) -> dict[str, Any]:
    """Run every drill and return the combined JSON-able report."""
    return {
        "link": link_drill(injector),
        "cache": cache_drill(injector, output_dir),
    }
