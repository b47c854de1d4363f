"""Tests for the claim validator: paper claims and safety claims."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.validate import (
    CLAIMS,
    FAIL,
    PASS,
    PAPER_CLAIMS,
    SAFETY_CLAIMS,
    WARN,
    Claim,
    ClaimResult,
    render_results,
    score_claims,
    validate_all,
)
from repro.thermal.model import TissueThermalModel
from repro.units import mm2, mw


@pytest.fixture(scope="module")
def results():
    return validate_all()


def _fig4(power_mw: float, area_mm2: float) -> ExperimentResult:
    return ExperimentResult("fig4", "one design", rows=[
        {"name": "demo-soc", "power_mw": power_mw, "area_mm2": area_mm2}])


def _fig7(feasible: bool = True) -> ExperimentResult:
    return ExperimentResult("fig7", "one SoC", rows=[
        {"soc": "demo-soc", "channels": 1024, "feasible": feasible}])


def _safety(fig4: ExperimentResult,
            fig7: ExperimentResult) -> list[ClaimResult]:
    """The safety claims scored in order: power, thermal, link."""
    return score_claims(SAFETY_CLAIMS, {"fig4": fig4, "fig7": fig7})


class TestClaimsCatalogue:
    def test_covers_every_evaluated_figure(self):
        artifacts = {claim.artifact for claim in CLAIMS}
        assert artifacts == {"fig4", "fig5", "fig6", "fig7", "fig9",
                             "fig10", "fig11", "fig12"}

    def test_at_least_two_claims_per_headline_figure(self):
        for figure in ("fig5", "fig7", "fig9", "fig10", "fig11", "fig12"):
            count = sum(1 for c in CLAIMS if c.artifact == figure)
            assert count >= 2, figure


class TestValidation:
    def test_all_claims_reproduce(self, results):
        paper = results[:len(PAPER_CLAIMS)]
        failing = [r.claim.statement for r in paper if r.verdict != PASS]
        assert not failing, failing
        assert FAIL not in {r.verdict for r in results}

    def test_one_result_per_claim(self, results):
        assert len(results) == len(CLAIMS)

    def test_measured_values_attached(self, results):
        for result in results:
            assert result.measured is not None

    def test_render_contains_verdicts(self, results):
        text = render_results(results)
        assert "[PASS]" in text and "[WARN]" in text
        assert f"{len(CLAIMS) - 1} pass, 1 warn, 0 fail" in text
        assert text.endswith("Overall: PASS with warnings")

    def test_render_marks_failures(self):
        fake = ClaimResult(
            claim=Claim("fig4", "impossible", lambda result: (0, FAIL)),
            verdict=FAIL, measured=0)
        text = render_results([fake])
        assert "[FAIL]" in text
        assert text.endswith("Overall: FAIL")

    def test_custom_claim_subset(self):
        subset = tuple(c for c in CLAIMS if c.artifact == "fig9")
        results = validate_all(subset)
        assert len(results) == len(subset)
        assert all(r.verdict == PASS for r in results)

    def test_seed_run_safety_verdicts(self, results):
        # The paper's 40 mW/cm^2 budget holds with Neuralink closest to
        # it; the Pennes rise of five designs lies between 1 and 2 K.
        power, thermal, link = results[len(PAPER_CLAIMS):]
        assert power.verdict == PASS
        assert power.measured == ("11/11 within; worst Neuralink, "
                                  "margin +0.20 mW")
        assert thermal.verdict == WARN
        assert thermal.measured == ("6/11 within 1 K; worst Neuralink, "
                                    "1.289 K")
        assert link.verdict == PASS
        assert link.measured == "goodput 0.9826; 7/8 SoCs feasible"


class TestSafetyClaims:
    def test_cool_design_passes_all_safety_claims(self):
        verdicts = [r.verdict for r in _safety(_fig4(1.0, 100.0),
                                               _fig7())]
        assert verdicts == [PASS, PASS, PASS]

    def test_hot_design_fails_power_and_thermal(self):
        # 500 mW over 10 mm^2 = 5 W/cm^2, far beyond 40 mW/cm^2
        power, thermal, link = _safety(_fig4(500.0, 10.0), _fig7())
        assert power.verdict == FAIL and "margin -" in power.measured
        assert thermal.verdict == FAIL
        assert link.verdict == PASS

    def test_rise_between_one_and_two_kelvin_warns(self):
        # 35 mW over 1 cm^2: inside the Eq. 3 budget, above 1 K.
        rise = TissueThermalModel().steady_state_rise_k(mw(35.0)
                                                        / mm2(100.0))
        assert 1.0 < rise < 2.0
        power, thermal, _ = _safety(_fig4(35.0, 100.0), _fig7())
        assert power.verdict == PASS
        assert thermal.verdict == WARN

    def test_infeasible_soc_is_context_not_failure(self):
        # ARQ goodput at the BER target still holds, so the link claim
        # passes; infeasibility is a paper result.
        link = _safety(_fig4(1.0, 100.0), _fig7(feasible=False))[2]
        assert link.verdict == PASS
        assert "0/1 SoCs feasible" in link.measured

    def test_render_names_each_safety_claim_and_overall(self):
        text = render_results(_safety(_fig4(1.0, 100.0), _fig7()))
        assert text.count("[PASS]") == len(SAFETY_CLAIMS)
        assert "Eq. 3 budget" in text and "tissue rise" in text
        assert "ARQ penalty" in text
        assert text.endswith("Overall: PASS")

    def test_overall_fail_dominates(self):
        text = render_results(_safety(_fig4(500.0, 10.0), _fig7()))
        assert "1 pass, 0 warn, 2 fail" in text
        assert text.endswith("Overall: FAIL")


class TestCliValidate:
    def test_exit_code_zero_on_full_pass(self, capsys):
        from repro.cli import main
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("Overall: PASS with warnings")
