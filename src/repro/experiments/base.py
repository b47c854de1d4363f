"""Common experiment-result container shared by the figure drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.experiments.report import DEFAULT_OUTPUT_DIR, write_csv
from repro.obs.manifest import build_manifest, write_manifest


@dataclass
class ExperimentResult:
    """Output of one figure/table reproduction.

    Attributes:
        name: experiment id ("fig5", "table1", ...).
        title: human-readable description.
        rows: the regenerated data series, one dict per row.
        summary: headline scalars (crossovers, averages) used both by the
            renderers and by EXPERIMENTS.md.
        columns: declared CSV column order (the driver's ``COLUMNS``
            contract); :meth:`save_csv` uses it unless overridden.
        seed: base RNG seed of the run, if any (recorded in the
            manifest).
        derived_seed: the per-driver seed actually installed for the run
            (:func:`repro.seeds.derive_driver_seed` of ``seed`` and
            ``name``), populated by :func:`repro.experiments.run_module`.
        duration_s: wall-clock runtime, populated by
            :func:`repro.experiments.run_module`.
        cache_info: cache provenance (``{"hit", "key", "fingerprint"}``)
            populated by :func:`repro.cache.run_and_save_cached` on
            cached runs; None on uncached runs.  Recorded in the
            manifest.
        cached_csv_text: exact CSV text captured by a previous cold run;
            when set, :meth:`save_csv` writes these bytes verbatim so
            warm artifacts are byte-identical to cold ones.
        fault_info: fault accounting
            (``{"injected", "recovered", "failed", ...}``) populated by
            the resilient runners when a fault plan is active or a
            driver needed retries; None on fault-free runs.  Recorded
            as the manifest's ``faults`` block (docs/ROBUSTNESS.md).
    """

    name: str
    title: str
    rows: list[dict[str, Any]]
    summary: dict[str, Any] = field(default_factory=dict)
    columns: Sequence[str] | None = None
    seed: int | None = None
    derived_seed: int | None = None
    duration_s: float | None = None
    cache_info: dict[str, Any] | None = None
    cached_csv_text: str | None = None
    fault_info: dict[str, Any] | None = None

    def save_csv(self, output_dir: Path | str = DEFAULT_OUTPUT_DIR,
                 columns: Sequence[str] | None = None) -> Path:
        """Write the rows to ``<output_dir>/<name>.csv``.

        Every save also writes a ``<name>.manifest.json`` next to the CSV
        recording provenance (git SHA, versions, seed, duration, peak
        RSS) so the artifact can always be traced back to the code and
        inputs that produced it.

        A cache replay (``cached_csv_text`` set) writes the captured
        text verbatim instead of re-rendering the rows, guaranteeing
        byte-identical warm artifacts.
        """
        path = Path(output_dir) / f"{self.name}.csv"
        if self.cached_csv_text is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", newline="", encoding="utf-8") as handle:
                handle.write(self.cached_csv_text)
        else:
            path = write_csv(path, self.rows,
                             columns if columns is not None
                             else self.columns)
        self.save_manifest(output_dir)
        return path

    def save_manifest(self, output_dir: Path | str = DEFAULT_OUTPUT_DIR,
                      ) -> Path:
        """Write ``<output_dir>/<name>.manifest.json`` and return its
        path."""
        extra: dict[str, Any] = {"title": self.title,
                                 "n_rows": len(self.rows),
                                 "derived_seed": self.derived_seed}
        if self.cache_info is not None:
            extra["cache"] = self.cache_info
        if self.fault_info is not None:
            extra["faults"] = self.fault_info
        manifest = build_manifest(
            self.name, seed=self.seed, duration_s=self.duration_s,
            extra=extra)
        return write_manifest(
            Path(output_dir) / f"{self.name}.manifest.json", manifest)

    def summary_lines(self) -> list[str]:
        """Summary entries rendered as 'key: value' lines."""
        return [f"{key}: {value}" for key, value in self.summary.items()]


def mean_of(values: Sequence[float]) -> float:
    """Plain mean that tolerates empty input (returns 0.0).

    Raises:
        ValueError: if any value is NaN — silently averaging NaN would
            poison every downstream summary; callers with possibly-NaN
            data should pre-filter via :func:`filter_finite`.
    """
    values = list(values)
    if not values:
        return 0.0
    if any(math.isnan(v) for v in values):
        raise ValueError("mean_of received NaN input; filter first "
                         "(see filter_finite)")
    return sum(values) / len(values)


def filter_finite(mapping: Mapping[str, float]) -> dict[str, float]:
    """Drop non-finite values from a mapping."""
    return {k: v for k, v in mapping.items() if math.isfinite(v)}
