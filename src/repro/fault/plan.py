"""Fault plans: the declarative spec of what to break, and how hard.

A :class:`FaultPlan` is the single input to the fault-injection layer
(:mod:`repro.fault.injector`): per-domain fault rates for the wireless
link, the result cache, and the experiment workers, plus the recovery
policy (bounded retries, backoff) the driver engine applies.
Plans serialize to/from JSON (``python -m repro evaluate --fault-plan
plan.json``; schema in ``docs/ROBUSTNESS.md``) and carry one base seed
from which every injection decision derives — same plan, same faults,
byte-identical fault logs (the acceptance contract of ``python -m repro
chaos``).

Seed derivation lives in :mod:`repro.seeds`
(:func:`~repro.seeds.derive_fault_seed`): each fault domain hashes
``(seed, domain)`` so the link injector's draws never depend on how many
cache faults fired before it — fault streams are order-independent by
construction, exactly like the per-driver experiment seeds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = ["CacheFaults", "FaultPlan", "InjectedWorkerFault",
           "LinkFaults", "RetryPolicy", "WorkerFaults",
           "default_chaos_plan"]

#: Cache corruption modes the injector knows how to apply.
CACHE_FAULT_MODES = ("truncate", "garbage", "key_mismatch")

#: Worker fault kinds, in injection priority order.
WORKER_FAULT_KINDS = ("crash", "slow")


class InjectedWorkerFault(RuntimeError):
    """Deliberate worker crash raised by the fault injector.

    Raised inside the attempt; the driver engine
    (:func:`repro.experiments.run_module_resilient`) records its type
    and message and retries.
    """

    def __init__(self, driver: str, attempt: int) -> None:
        super().__init__(f"injected crash in driver {driver!r} "
                         f"(attempt {attempt})")
        self.driver = driver
        self.attempt = attempt


def _rate(name: str, value: float) -> float:
    if not 0.0 <= float(value) < 1.0:
        raise ValueError(f"{name} must lie in [0, 1); got {value!r}")
    return float(value)


@dataclass(frozen=True)
class LinkFaults:
    """Wireless-link fault rates applied to serialized packets.

    Attributes:
        ber: per-bit flip probability (models residual channel errors).
        drop_rate: per-packet erasure probability.
        truncate_rate: per-packet probability of losing a random tail.
        reorder_rate: probability of swapping a packet with its
            successor during stream delivery.
    """

    ber: float = 0.0
    drop_rate: float = 0.0
    truncate_rate: float = 0.0
    reorder_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("ber", "drop_rate", "truncate_rate", "reorder_rate"):
            _rate(f"link.{name}", getattr(self, name))

    @property
    def any_enabled(self) -> bool:
        """True when at least one link fault can fire."""
        return any(getattr(self, name) > 0.0 for name in
                   ("ber", "drop_rate", "truncate_rate", "reorder_rate"))


@dataclass(frozen=True)
class CacheFaults:
    """Result-cache corruption drill configuration.

    Attributes:
        corrupt_rate: probability each drilled entry gets corrupted.
        modes: corruption modes to draw from (see
            :data:`CACHE_FAULT_MODES`).
    """

    corrupt_rate: float = 0.0
    modes: tuple[str, ...] = CACHE_FAULT_MODES

    def __post_init__(self) -> None:
        _rate("cache.corrupt_rate", self.corrupt_rate)
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("cache.modes must not be empty")
        unknown = set(self.modes) - set(CACHE_FAULT_MODES)
        if unknown:
            raise ValueError(f"unknown cache fault modes {sorted(unknown)}; "
                             f"known: {CACHE_FAULT_MODES}")


@dataclass(frozen=True)
class WorkerFaults:
    """Per-driver worker faults for the driver engine.

    Attributes:
        crash: driver name -> number of leading attempts that raise an
            :class:`InjectedWorkerFault` (attempt k crashes while
            ``k < crash[name]``; the run recovers iff the retry budget
            outlasts the crash budget).
        slow_s: driver name -> injected sleep (seconds) before every
            attempt; the driver still succeeds.
    """

    crash: Mapping[str, int] = field(default_factory=dict)
    slow_s: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, count in self.crash.items():
            if int(count) < 0:
                raise ValueError(
                    f"worker.crash[{name!r}] must be >= 0; got {count!r}")
        for name, seconds in self.slow_s.items():
            if float(seconds) < 0:
                raise ValueError(
                    f"worker.slow_s[{name!r}] must be >= 0; "
                    f"got {seconds!r}")

    @property
    def any_enabled(self) -> bool:
        """True when at least one driver has a worker fault."""
        return bool(self.crash or self.slow_s)

    def fault_for(self, driver: str,
                  attempt: int) -> tuple[str | None, float]:
        """The fault injected into one (driver, attempt), if any.

        Returns:
            ``(kind, seconds)`` where kind is one of
            :data:`WORKER_FAULT_KINDS` or None; ``seconds`` is the
            injected delay of a slow fault (0.0 otherwise).
        """
        if attempt < int(self.crash.get(driver, 0)):
            return "crash", 0.0
        if driver in self.slow_s:
            return "slow", float(self.slow_s[driver])
        return None, 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery policy the driver engine applies around each driver.

    Attributes:
        max_retries: extra attempts after the first failure (the total
            attempt budget is ``max_retries + 1``); always bounded.
        backoff_s: base of the exponential backoff slept before retry
            ``k`` (``backoff_s * 2**(k-1)``, applied by
            :func:`repro.experiments.run_module_resilient`); 0
            disables sleeping.
    """

    max_retries: int = 2
    backoff_s: float = 0.25

    def __post_init__(self) -> None:
        if int(self.max_retries) < 0:
            raise ValueError("retry.max_retries must be >= 0")
        if float(self.backoff_s) < 0:
            raise ValueError("retry.backoff_s must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """One seeded, composable fault-injection plan.

    Attributes:
        seed: base seed every injection decision derives from.
        link: wireless-link fault rates.
        cache: result-cache corruption drill settings.
        worker: per-driver worker faults.
        retry: the recovery policy the driver engine applies.
    """

    seed: int = 0
    link: LinkFaults = field(default_factory=LinkFaults)
    cache: CacheFaults = field(default_factory=CacheFaults)
    worker: WorkerFaults = field(default_factory=WorkerFaults)
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation (the fault-plan schema)."""
        record = asdict(self)
        record["cache"]["modes"] = list(self.cache.modes)
        return record

    def to_json(self) -> str:
        """Canonical JSON text of the plan."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from parsed JSON, validating every field.

        Raises:
            ValueError: for unknown keys or out-of-range rates.
        """
        known = {"seed", "link", "cache", "worker", "retry"}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys {sorted(unknown)}; "
                             f"known: {sorted(known)}")

        def section(name: str, cls_: type, **renames: str) -> Any:
            payload = dict(record.get(name) or {})
            for json_key, attr in renames.items():
                if json_key in payload:
                    payload[attr] = payload.pop(json_key)
            try:
                return cls_(**payload)
            except TypeError as error:
                raise ValueError(
                    f"bad fault-plan section {name!r}: {error}") from error

        plan = cls(
            seed=int(record.get("seed", 0)),
            link=section("link", LinkFaults),
            cache=section("cache", CacheFaults),
            worker=section("worker", WorkerFaults),
            retry=section("retry", RetryPolicy),
        )
        return plan

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            record = json.loads(text)
        except ValueError as error:
            raise ValueError(f"fault plan is not valid JSON: {error}"
                             ) from error
        if not isinstance(record, dict):
            raise ValueError("fault plan must be a JSON object")
        return cls.from_dict(record)

    @classmethod
    def from_file(cls, path: Path | str) -> "FaultPlan":
        """Load a plan from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def default_chaos_plan(seed: int = 0) -> FaultPlan:
    """The stock plan behind ``python -m repro chaos``.

    Moderate link noise (every fault kind enabled so the chaos drills
    exercise each path), a 50 % cache corruption drill, no worker
    faults (the chaos sweep runs in-process), bounded retries with no
    backoff sleeping.
    """
    return FaultPlan(
        seed=seed,
        link=LinkFaults(ber=0.002, drop_rate=0.1, truncate_rate=0.05,
                        reorder_rate=0.05),
        cache=CacheFaults(corrupt_rate=0.5),
        worker=WorkerFaults(),
        retry=RetryPolicy(max_retries=2, backoff_s=0.0),
    )
