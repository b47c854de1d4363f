"""repro.fault: seeded fault injection and the recovery paths it tests.

The chaos layer of the reproduction pipeline (``docs/ROBUSTNESS.md``):

* :mod:`repro.fault.plan` — :class:`FaultPlan`, the declarative JSON
  spec of per-domain fault rates plus the retry policy;
* :mod:`repro.fault.injector` — :class:`FaultInjector`, which applies a
  plan deterministically and logs every event;
* :mod:`repro.fault.drills` — canned link/cache drills behind
  ``python -m repro chaos``.
"""
