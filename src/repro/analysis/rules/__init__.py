"""Built-in analysis rules.

Importing this package registers every rule with the engine registry
(:func:`repro.analysis.engine.register_rule`); adding a rule means adding
a module here and importing it below — see ``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.rules import (  # noqa: F401  (import == registration)
    contracts,
    determinism,
    exports,
    lifecycle,
    parity,
    resilience,
    seedtaint,
    telemetry,
    units,
)

__all__ = ["contracts", "determinism", "exports", "lifecycle", "parity",
           "resilience", "seedtaint", "telemetry", "units"]
