"""FaultPlan validation, serialization, and seed derivation."""

from __future__ import annotations

import pytest

from repro.fault import (CacheFaults, FaultPlan, InjectedWorkerFault,
                         LinkFaults, RetryPolicy, WorkerFaults,
                         default_chaos_plan, derive_fault_seed)


class TestRateValidation:
    @pytest.mark.parametrize("field", ["ber", "drop_rate",
                                       "truncate_rate", "reorder_rate"])
    @pytest.mark.parametrize("value", [-0.1, 1.0, 1.5])
    def test_link_rates_must_lie_in_unit_interval(self, field, value):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            LinkFaults(**{field: value})

    def test_cache_rate_and_modes(self):
        with pytest.raises(ValueError):
            CacheFaults(corrupt_rate=1.0)
        with pytest.raises(ValueError, match="must not be empty"):
            CacheFaults(modes=())
        with pytest.raises(ValueError, match="unknown cache fault modes"):
            CacheFaults(modes=("truncate", "set_on_fire"))

    def test_worker_budgets_must_be_non_negative(self):
        with pytest.raises(ValueError):
            WorkerFaults(crash={"fig5": -1})
        with pytest.raises(ValueError):
            WorkerFaults(slow_s={"fig5": -0.5})

    def test_retry_policy_bounds(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.1)


class TestSemantics:
    def test_any_enabled_flags(self):
        assert not LinkFaults().any_enabled
        assert LinkFaults(ber=1e-6).any_enabled
        assert not WorkerFaults().any_enabled
        assert WorkerFaults(slow_s={"fig5": 0.1}).any_enabled

    def test_crash_budget_then_secondary_fault(self):
        spec = WorkerFaults(crash={"fig5": 2}, slow_s={"fig5": 0.5})
        assert spec.fault_for("fig5", 0) == ("crash", 0.0)
        assert spec.fault_for("fig5", 1) == ("crash", 0.0)
        assert spec.fault_for("fig5", 2) == ("slow", 0.5)
        assert spec.fault_for("fig7", 0) == (None, 0.0)


class TestSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=13,
            link=LinkFaults(ber=0.001, drop_rate=0.2),
            cache=CacheFaults(corrupt_rate=0.3, modes=("garbage",)),
            worker=WorkerFaults(crash={"fig5": 1}, slow_s={"fig7": 2.0}),
            retry=RetryPolicy(max_retries=4, backoff_s=0.0))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_default_chaos_plan_round_trips(self):
        plan = default_chaos_plan(seed=7)
        assert plan.link.any_enabled
        assert plan.cache.corrupt_rate > 0
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 1, "links": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="bad fault-plan section"):
            FaultPlan.from_dict({"link": {"bit_error_rate": 0.1}})

    @pytest.mark.parametrize("record", [
        {"worker": {"hang_s": {"fig8": 30.0}}},
        {"retry": {"timeout_s": 5.0}},
    ], ids=["worker.hang_s", "retry.timeout_s"])
    def test_removed_hang_and_timeout_keys_rejected(self, record):
        with pytest.raises(ValueError, match="bad fault-plan section"):
            FaultPlan.from_dict(record)

    def test_non_object_and_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(default_chaos_plan(3).to_json(),
                        encoding="utf-8")
        assert FaultPlan.from_file(path) == default_chaos_plan(3)

    def test_empty_object_is_the_null_plan(self):
        plan = FaultPlan.from_dict({})
        assert plan == FaultPlan()
        assert not plan.link.any_enabled


class TestDeriveFaultSeed:
    def test_stable_and_in_numpy_range(self):
        value = derive_fault_seed(7, "link")
        assert value == derive_fault_seed(7, "link")
        assert 0 <= value < 2**63

    def test_distinct_per_domain_and_seed(self):
        seeds = {derive_fault_seed(7, domain)
                 for domain in ("link", "cache", "worker")}
        assert len(seeds) == 3
        assert derive_fault_seed(7, "link") != derive_fault_seed(
            8, "link")

    def test_namespaced_away_from_driver_seeds(self):
        from repro.seeds import derive_driver_seed
        assert derive_fault_seed(7, "fig5") != derive_driver_seed(
            7, "fig5")


class TestInjectedWorkerFault:
    def test_carries_driver_and_attempt(self):
        error = InjectedWorkerFault("fig5", 1)
        assert error.driver == "fig5"
        assert error.attempt == 1
        assert "fig5" in str(error)
