"""Seeded fault injector: applies a :class:`FaultPlan` and logs events.

One :class:`FaultInjector` owns every injection decision of a run.  Each
fault domain draws from its own generator seeded by
:func:`repro.seeds.derive_fault_seed`, so the link stream's draws
are independent of how many cache faults fired first — replaying a plan
reproduces the exact same fault sequence, which is what makes the chaos
suite's golden fault-log regression possible.

Every injected fault, recovery, and terminal failure is appended to an
in-order event log of :class:`FaultEvent` records (no wall-clock
timestamps, so logs are byte-stable across runs) and counted into the
``injected``/``recovered``/``failed`` counters that the run manifests
and ``python -m repro chaos`` report.  Events mirror into the
observability layer as ``fault.*`` metrics (:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.fault.plan import FaultPlan
from repro.obs.events import emit as emit_event
from repro.obs.events import events_enabled
from repro.obs.metrics import inc
from repro.seeds import derive_fault_seed

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the fault log.

    Attributes:
        seq: injection-order index (0-based, gapless).
        domain: fault domain ("link", "cache", "worker").
        kind: what happened ("bit_flip", "drop", "crash",
            "recovered", "failed", ...).
        target: what it happened to (packet index, cache key prefix,
            driver name).
        detail: JSON-able specifics (flip counts, modes, attempts).
    """

    seq: int
    domain: str
    kind: str
    target: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation, detail keys sorted."""
        return {"seq": self.seq, "domain": self.domain, "kind": self.kind,
                "target": self.target,
                "detail": dict(sorted(self.detail.items()))}


#: Event kinds that count as recoveries/failures rather than injections.
_OUTCOME_KINDS = ("recovered", "failed")


class FaultInjector:
    """Applies a fault plan deterministically and records what it did.

    Args:
        plan: the fault plan; its ``seed`` drives every decision.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.events: list[FaultEvent] = []
        self.counters = {"injected": 0, "recovered": 0, "failed": 0}
        self._rngs: dict[str, np.random.Generator] = {}

    # -- seeded streams ---------------------------------------------------

    def rng(self, domain: str) -> np.random.Generator:
        """The (cached) generator for one fault domain.

        The only RNG construction site of the fault layer: generators
        are derived from the plan seed, never ambient entropy, so the
        whole injection sequence replays from the plan alone.
        """
        if domain not in self._rngs:
            seed = derive_fault_seed(self.plan.seed, domain)
            rng = np.random.default_rng(seed)
            self._rngs[domain] = rng
        return self._rngs[domain]

    # -- event log --------------------------------------------------------

    def record(self, domain: str, kind: str, target: str,
               **detail: Any) -> FaultEvent:
        """Append one event; injections bump the ``injected`` counter."""
        event = FaultEvent(seq=len(self.events), domain=domain, kind=kind,
                           target=target, detail=detail)
        self.events.append(event)
        if kind in _OUTCOME_KINDS:
            self.counters[kind] += 1
            inc(f"fault.{kind}")
        else:
            self.counters["injected"] += 1
            inc("fault.injected")
            inc(f"fault.{domain}.injected")
        if events_enabled():
            emit_event("fault", f"{domain}.{kind}", target=target,
                       **detail)
        return event

    def record_recovered(self, domain: str, target: str,
                         **detail: Any) -> FaultEvent:
        """Log that a faulted operation ultimately succeeded."""
        return self.record(domain, "recovered", target, **detail)

    def record_failed(self, domain: str, target: str,
                      **detail: Any) -> FaultEvent:
        """Log that a faulted operation exhausted its recovery budget."""
        return self.record(domain, "failed", target, **detail)

    def log_dict(self) -> dict[str, Any]:
        """The full fault log (plan, counters, events) as JSON-able data."""
        return {
            "plan": self.plan.to_dict(),
            "counters": dict(self.counters),
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self) -> str:
        """Canonical fault-log text (byte-stable for a fixed plan)."""
        return json.dumps(self.log_dict(), indent=2, sort_keys=True) + "\n"

    def write_log(self, path: Path | str) -> Path:
        """Write the fault log to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    # -- link faults ------------------------------------------------------

    def corrupt_bytes(self, raw: bytes, target: str,
                      ber: float | None = None) -> bytes:
        """Flip each bit of ``raw`` independently with probability
        ``ber`` (default: the plan's link BER); logs when bits flipped.
        """
        rate = self.plan.link.ber if ber is None else ber
        if rate <= 0.0 or not raw:
            return raw
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        mask = self.rng("link").random(bits.size) < rate
        flips = int(np.count_nonzero(mask))
        if flips == 0:
            return raw
        self.record("link", "bit_flip", target, n_flips=flips,
                    n_bits=int(bits.size))
        return np.packbits(bits ^ mask.astype(np.uint8)).tobytes()

    def flip_burst(self, raw: bytes, target: str,
                   max_burst_bits: int = 16) -> bytes:
        """Flip one contiguous bit burst of random length
        ``1..max_burst_bits`` at a random offset (the CRC-detectability
        drill: CRC-16 catches every burst no longer than 16 bits).
        """
        if not raw:
            return raw
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        rng = self.rng("link")
        length = int(rng.integers(1, max_burst_bits + 1))
        length = min(length, bits.size)
        start = int(rng.integers(0, bits.size - length + 1))
        bits[start:start + length] ^= 1
        self.record("link", "burst_flip", target, start_bit=start,
                    burst_bits=length)
        return np.packbits(bits).tobytes()

    def perturb_packet(self, raw: bytes, target: str) -> bytes | None:
        """Push one serialized packet through the plan's link faults.

        Decision order is fixed (drop, truncate, corrupt) and the
        drop/truncate uniforms are always drawn, so the fault stream
        is a pure function of the plan seed and the call sequence.

        Returns:
            The (possibly damaged) bytes, or None when dropped.
        """
        spec = self.plan.link
        rng = self.rng("link")
        u_drop, u_trunc = rng.random(2)
        if u_drop < spec.drop_rate:
            self.record("link", "drop", target, n_bytes=len(raw))
            return None
        if u_trunc < spec.truncate_rate and len(raw) > 1:
            keep = int(rng.integers(1, len(raw)))
            self.record("link", "truncate", target, n_bytes=len(raw),
                        kept_bytes=keep)
            raw = raw[:keep]
        return self.corrupt_bytes(raw, target)

    def inject_packet_stream(self,
                             raw_packets: Sequence[bytes]) -> list[bytes]:
        """Apply per-packet faults plus stream-level reordering.

        Dropped packets vanish from the returned stream; surviving
        neighbours swap with probability ``link.reorder_rate``.
        """
        survivors: list[bytes] = []
        for index, raw in enumerate(raw_packets):
            damaged = self.perturb_packet(raw, target=f"packet:{index}")
            if damaged is not None:
                survivors.append(damaged)
        spec = self.plan.link
        if spec.reorder_rate > 0.0:
            rng = self.rng("link")
            for index in range(len(survivors) - 1):
                if rng.random() < spec.reorder_rate:
                    survivors[index], survivors[index + 1] = (
                        survivors[index + 1], survivors[index])
                    self.record("link", "reorder",
                                target=f"stream:{index}")
        return survivors

    # -- cache faults -----------------------------------------------------

    def corrupt_cache_entry(self, path: Path, target: str,
                            mode: str | None = None) -> str:
        """Damage one on-disk cache entry in place.

        Args:
            path: the entry's JSON file.
            target: stable id for the log (use a key prefix, not the
                path — paths embed temp directories and would break
                byte-stable logs).
            mode: corruption mode; default draws one from the plan's
                ``cache.modes``.

        Returns:
            The mode applied ("truncate", "garbage", "key_mismatch").
        """
        modes = self.plan.cache.modes
        if mode is None:
            mode = modes[int(self.rng("cache").integers(len(modes)))]
        path = Path(path)
        if mode == "truncate":
            text = path.read_text(encoding="utf-8")
            path.write_text(text[:max(1, len(text) // 3)],
                            encoding="utf-8")
        elif mode == "garbage":
            path.write_text("{this is not json", encoding="utf-8")
        elif mode == "key_mismatch":
            entry = json.loads(path.read_text(encoding="utf-8"))
            entry["key"] = "0" * 64
            path.write_text(json.dumps(entry, sort_keys=True),
                            encoding="utf-8")
        else:
            raise ValueError(f"unknown cache fault mode {mode!r}")
        self.record("cache", "corrupt", target, mode=mode)
        return mode

    def should_corrupt_entry(self) -> bool:
        """Draw one drill decision at the plan's ``cache.corrupt_rate``."""
        if self.plan.cache.corrupt_rate <= 0.0:
            return False
        return bool(self.rng("cache").random()
                    < self.plan.cache.corrupt_rate)

    # -- worker faults ----------------------------------------------------

    def record_worker_fault(self, driver: str, attempt: int,
                            kind: str, seconds: float = 0.0) -> FaultEvent:
        """Log one plan-driven worker fault (decisions live in
        :meth:`repro.fault.plan.WorkerFaults.fault_for`; the driver
        engine calls this before applying the fault)."""
        detail: dict[str, Any] = {"attempt": attempt}
        if seconds:
            detail["seconds"] = seconds
        return self.record("worker", kind, target=driver, **detail)
