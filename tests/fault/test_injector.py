"""FaultInjector determinism, event accounting, and corruption ops."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import recorder
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, LinkFaults, default_chaos_plan


def _packet_bytes(n: int = 64) -> bytes:
    return bytes(range(n))


class TestDeterminism:
    def test_same_plan_same_fault_log(self):
        logs = []
        for _ in range(2):
            injector = FaultInjector(default_chaos_plan(seed=7))
            for index in range(50):
                injector.perturb_packet(_packet_bytes(),
                                        target=f"packet:{index}")
            logs.append(injector.to_json())
        assert logs[0] == logs[1]

    def test_domains_are_independent_streams(self):
        plan = default_chaos_plan(seed=7)
        plain = FaultInjector(plan)
        interleaved = FaultInjector(plan)
        # Burn cache draws on one injector only; the link stream must
        # not shift (order-independent derivation, as in repro.perf).
        for _ in range(25):
            interleaved.should_corrupt_entry()
        a = [plain.perturb_packet(_packet_bytes(), f"p:{i}")
             for i in range(20)]
        b = [interleaved.perturb_packet(_packet_bytes(), f"p:{i}")
             for i in range(20)]
        assert a == b

    def test_log_has_no_timestamps_and_gapless_seqs(self):
        injector = FaultInjector(default_chaos_plan(seed=3))
        injector.inject_packet_stream(
            [_packet_bytes() for _ in range(40)])
        record = json.loads(injector.to_json())
        assert [event["seq"] for event in record["events"]] == list(
            range(len(record["events"])))
        blob = json.dumps(record)  # wall-clock would break replay
        assert "unix" not in blob and "stamp" not in blob
        assert "elapsed" not in blob and "duration" not in blob


class TestCounters:
    def test_injections_vs_outcomes(self):
        injector = FaultInjector(FaultPlan())
        injector.record("link", "drop", "packet:0")
        injector.record_recovered("link", "packet:0", attempts=2)
        injector.record_failed("worker", "fig5", attempts=3)
        assert injector.counters == {"injected": 1, "recovered": 1,
                                     "failed": 1}

    def test_events_mirror_into_metrics(self):
        recorder.enable()
        try:
            injector = FaultInjector(FaultPlan())
            injector.record("link", "drop", "packet:0")
            injector.record("cache", "corrupt", "entry:1")
            injector.record_recovered("cache", "entry:1")
            counters = recorder.RECORDER.snapshot()["counters"]
            assert counters["fault.injected"] == 2
            assert counters["fault.link.injected"] == 1
            assert counters["fault.cache.injected"] == 1
            assert counters["fault.recovered"] == 1
        finally:
            recorder.disable()
            recorder.reset()

    def test_write_log_round_trips(self, tmp_path):
        injector = FaultInjector(default_chaos_plan(seed=5))
        injector.record("link", "drop", "packet:0")
        path = injector.write_log(tmp_path / "logs" / "fault_log.json")
        assert path.read_text(encoding="utf-8") == injector.to_json()
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["plan"] == default_chaos_plan(seed=5).to_dict()


class TestByteCorruption:
    def test_zero_ber_is_identity(self):
        injector = FaultInjector(FaultPlan())
        raw = _packet_bytes()
        assert injector.corrupt_bytes(raw, "p:0") is raw
        assert injector.events == []

    def test_high_ber_flips_and_logs(self):
        plan = FaultPlan(seed=1, link=LinkFaults(ber=0.5))
        injector = FaultInjector(plan)
        raw = _packet_bytes()
        damaged = injector.corrupt_bytes(raw, "p:0")
        assert damaged != raw
        assert len(damaged) == len(raw)
        [event] = injector.events
        assert event.kind == "bit_flip"
        flipped = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8)) ^ np.unpackbits(
            np.frombuffer(damaged, dtype=np.uint8))
        assert int(flipped.sum()) == event.detail["n_flips"]

    def test_flip_burst_is_contiguous_and_bounded(self):
        injector = FaultInjector(FaultPlan(seed=9))
        raw = _packet_bytes()
        for trial in range(50):
            damaged = injector.flip_burst(raw, f"p:{trial}",
                                          max_burst_bits=16)
            diff = np.flatnonzero(np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8)) ^ np.unpackbits(
                np.frombuffer(damaged, dtype=np.uint8)))
            assert 1 <= diff.size <= 16
            assert diff[-1] - diff[0] == diff.size - 1  # contiguous


class TestPacketPerturbation:
    def test_certain_drop_returns_none(self):
        plan = FaultPlan(seed=2, link=LinkFaults(drop_rate=0.999))
        injector = FaultInjector(plan)
        assert injector.perturb_packet(_packet_bytes(), "p:0") is None
        assert injector.events[0].kind == "drop"

    def test_certain_truncation_shortens(self):
        plan = FaultPlan(seed=2, link=LinkFaults(truncate_rate=0.999))
        injector = FaultInjector(plan)
        raw = _packet_bytes()
        damaged = injector.perturb_packet(raw, "p:0")
        assert damaged is not None and 1 <= len(damaged) < len(raw)
        assert injector.events[0].kind == "truncate"

    def test_null_plan_passes_packets_through_unchanged(self):
        injector = FaultInjector(FaultPlan())
        stream = [_packet_bytes() for _ in range(10)]
        assert injector.inject_packet_stream(stream) == stream
        assert injector.counters["injected"] == 0


class TestCacheCorruption:
    def _entry(self, tmp_path, key="ab" * 32):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"key": key, "payload": {"x": 1}}),
                        encoding="utf-8")
        return path, key

    def test_truncate_mode(self, tmp_path):
        injector = FaultInjector(FaultPlan())
        path, _ = self._entry(tmp_path)
        before = path.read_text(encoding="utf-8")
        mode = injector.corrupt_cache_entry(path, "entry:0",
                                            mode="truncate")
        assert mode == "truncate"
        after = path.read_text(encoding="utf-8")
        assert 0 < len(after) < len(before)
        with pytest.raises(ValueError):
            json.loads(after)

    def test_garbage_mode(self, tmp_path):
        injector = FaultInjector(FaultPlan())
        path, _ = self._entry(tmp_path)
        injector.corrupt_cache_entry(path, "entry:0", mode="garbage")
        with pytest.raises(ValueError):
            json.loads(path.read_text(encoding="utf-8"))

    def test_key_mismatch_mode_keeps_valid_json(self, tmp_path):
        injector = FaultInjector(FaultPlan())
        path, key = self._entry(tmp_path)
        injector.corrupt_cache_entry(path, "entry:0",
                                     mode="key_mismatch")
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry["key"] == "0" * 64 != key

    def test_unknown_mode_rejected(self, tmp_path):
        injector = FaultInjector(FaultPlan())
        path, _ = self._entry(tmp_path)
        with pytest.raises(ValueError, match="unknown cache fault mode"):
            injector.corrupt_cache_entry(path, "entry:0", mode="delete")

    def test_drill_rate_zero_draws_nothing(self):
        injector = FaultInjector(FaultPlan())
        assert not injector.should_corrupt_entry()
        # No draw happened: the cache stream starts fresh afterwards.
        probe = FaultInjector(FaultPlan())
        assert (injector.rng("cache").random()
                == probe.rng("cache").random())
