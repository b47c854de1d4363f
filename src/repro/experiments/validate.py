"""Programmatic paper-claims validation (the EXPERIMENTS.md table as code).

Each claim binds a published statement from the paper's evaluation to a
predicate over the regenerated experiment summaries.  ``validate_all``
runs every experiment once and scores every claim — the machine-checkable
core of the reproduction, surfaced by ``python -m repro validate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.experiments import ALL_EXPERIMENTS, run_module
from repro.obs.recorder import inc, span


@dataclass(frozen=True)
class Claim:
    """One paper claim and its verification predicate.

    Attributes:
        artifact: the paper artifact it comes from ("fig7"...).
        statement: the claim, paraphrased from the paper.
        check: predicate over that artifact's summary dict.
        measured: function extracting the comparable measured value.
    """

    artifact: str
    statement: str
    check: Callable[[Mapping[str, Any]], bool]
    measured: Callable[[Mapping[str, Any]], Any]


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


CLAIMS: tuple[Claim, ...] = (
    Claim("fig4",
          "all SoCs scaled to 1024 channels fall below the power budget",
          lambda s: bool(s["all_safe"]),
          lambda s: s["max_density_mw_cm2"]),
    Claim("fig5",
          "naive designs keep a constant P_soc/P_budget ratio",
          lambda s: bool(s["naive_ratio_constant"]),
          lambda s: s["naive_ratio_constant"]),
    Claim("fig5",
          "high-margin designs eventually exceed the budget on all SoCs",
          lambda s: bool(s["high_margin_all_cross"]),
          lambda s: s["high_margin_crossings"]),
    Claim("fig6",
          "high-margin sensing-area fraction grows toward dominance",
          lambda s: bool(s["high_margin_monotone"])
          and s["high_margin_mean_at_8192"] > 0.8,
          lambda s: s["high_margin_mean_at_8192"]),
    Claim("fig7",
          "20% QAM efficiency supports ~2x the channel standard",
          lambda s: _within(s["multiplier_at_20pct"], 2.0, 0.15),
          lambda s: s["multiplier_at_20pct"]),
    Claim("fig7",
          "ideal (100%) QAM supports ~4x the channel standard",
          lambda s: _within(s["multiplier_at_100pct"], 4.0, 0.20),
          lambda s: s["multiplier_at_100pct"]),
    Claim("fig9",
          "PE power is ~25% of layer power in small designs (1-5)",
          lambda s: _within(s["pe_fraction_designs_1_5"], 0.25, 0.2),
          lambda s: s["pe_fraction_designs_1_5"]),
    Claim("fig9",
          "PE power reaches ~96% of layer power in the largest design",
          lambda s: _within(s["pe_fraction_design_12"], 0.96, 0.05),
          lambda s: s["pe_fraction_design_12"]),
    Claim("fig10",
          "the flagship SoCs (1, 2) integrate the DN-CNN at 1024 ch",
          lambda s: {"BISC", "Gilhotra"} <= set(s["dncnn_fits_at_1024"]),
          lambda s: s["dncnn_fits_at_1024"]),
    Claim("fig10",
          "average max channels ~1800 for the MLP (fitting SoCs)",
          lambda s: _within(s["mlp_avg_max_channels"], 1800, 0.25),
          lambda s: s["mlp_avg_max_channels"]),
    Claim("fig10",
          "average max channels ~1400 for the DN-CNN (fitting SoCs)",
          lambda s: _within(s["dncnn_avg_max_channels"], 1400, 0.25),
          lambda s: s["dncnn_avg_max_channels"]),
    Claim("fig11",
          "layer reduction buys the MLP ~20% more channels on average",
          lambda s: _within(s["mlp_avg_gain"], 1.2, 0.1),
          lambda s: s["mlp_avg_gain"]),
    Claim("fig11",
          "the DN-CNN shows no benefit from layer reduction",
          lambda s: not s["dncnn_any_benefit"],
          lambda s: s["dncnn_avg_gain"]),
    Claim("fig12",
          "channel dropout reduces the 2048-ch model to ~32% on average",
          lambda s: _within(s["avg_model_size_pct_2048_ChDr"], 32.0,
                            0.35),
          lambda s: s["avg_model_size_pct_2048_ChDr"]),
    Claim("fig12",
          "adding 12nm technology scaling recovers ~72% at 2048 channels",
          lambda s: _within(s["avg_model_size_pct_2048_La+ChDr+Tech"],
                            72.0, 0.2),
          lambda s: s["avg_model_size_pct_2048_La+ChDr+Tech"]),
    Claim("fig12",
          "at 8192 channels only ~2% of the model survives dropout",
          lambda s: abs(s["avg_model_size_pct_8192_ChDr"] - 2.0) <= 3.0,
          lambda s: s["avg_model_size_pct_8192_ChDr"]),
)


@dataclass(frozen=True)
class ClaimResult:
    """Verdict on one claim.

    Attributes:
        claim: the validated claim.
        passed: predicate outcome.
        measured: the measured value shown next to the verdict.
    """

    claim: Claim
    passed: bool
    measured: Any


def validate_all(claims: tuple[Claim, ...] = CLAIMS) -> list[ClaimResult]:
    """Run all experiments once and score every claim."""
    summaries = {}
    needed = {claim.artifact for claim in claims}
    with span("validate.run_experiments", n_experiments=len(needed)):
        for module in ALL_EXPERIMENTS:
            name = module.__name__.rsplit(".", 1)[-1]
            if name in needed:
                summaries[name] = run_module(module).summary
    results = []
    with span("validate.score_claims", n_claims=len(claims)):
        for claim in claims:
            summary = summaries[claim.artifact]
            passed = bool(claim.check(summary))
            inc("validate.claims_checked")
            if passed:
                inc("validate.claims_passed")
            results.append(ClaimResult(claim=claim, passed=passed,
                                       measured=claim.measured(summary)))
    return results


def render_results(results: list[ClaimResult]) -> str:
    """Human-readable validation report."""
    lines = []
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        measured = result.measured
        if isinstance(measured, float):
            measured = f"{measured:.3g}"
        lines.append(f"[{verdict}] {result.claim.artifact:6s} "
                     f"{result.claim.statement}  (measured: {measured})")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"\n{passed}/{len(results)} claims reproduced")
    return "\n".join(lines)
