"""Observability: one telemetry recorder, run manifests, the bench gate.

The experiment drivers, the CLI and the infrastructure (cache, fault
injector) report into this package; the science packages import
nothing from it.

* :mod:`repro.obs.recorder` — spans, counters, gauges, histograms and
  fault/cache events appended to one ordered list behind one switch;
  ``events.jsonl``, ``trace.json`` and the metrics snapshot are views
  of it.
* :mod:`repro.obs.manifest` — run provenance (git SHA, interpreter and
  NumPy versions, RNG seed, duration, peak RSS) written alongside every
  experiment CSV.
* :mod:`repro.obs.profile` — hotspot aggregation over recorded spans,
  backing ``python -m repro profile <experiment>``.
* :mod:`repro.obs.bench` — the benchmark regression gate behind
  ``python -m repro obs bench-gate``.
"""
