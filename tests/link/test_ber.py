"""Tests for BER theory and Eb/N0 inversion."""

import math

import pytest
from scipy import optimize, special

from repro.link import ber
from repro.link.ber import (
    ber_bpsk,
    ber_mqam,
    ber_ook,
    q_function,
    required_ebn0,
    shannon_ebn0_limit_db,
)


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_known_value(self):
        # Q(1.2816) ~ 0.1.
        assert q_function(1.2816) == pytest.approx(0.1, abs=1e-3)

    def test_symmetry(self):
        assert q_function(-1.0) + q_function(1.0) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        assert q_function(1.0) > q_function(2.0) > q_function(3.0)


class TestBerCurves:
    def test_bpsk_textbook_point(self):
        # Eb/N0 = 9.6 dB gives BER ~ 1e-5 for BPSK.
        assert ber_bpsk(10 ** 0.96) == pytest.approx(1e-5, rel=0.3)

    def test_ook_pays_3db_vs_bpsk(self):
        ebn0 = 10.0
        assert ber_ook(2 * ebn0) == pytest.approx(ber_bpsk(ebn0), rel=1e-9)

    def test_mqam_order_1_is_bpsk(self):
        assert ber_mqam(10.0, 1) == pytest.approx(ber_bpsk(10.0))

    def test_higher_order_needs_more_energy(self):
        ebn0 = 20.0
        assert ber_mqam(ebn0, 2) < ber_mqam(ebn0, 4) < ber_mqam(ebn0, 6)

    def test_ber_monotone_in_ebn0(self):
        assert ber_mqam(5.0, 4) > ber_mqam(50.0, 4) > ber_mqam(500.0, 4)

    def test_ber_capped_at_half(self):
        assert ber_mqam(1e-5, 6) <= 0.5

    def test_rejects_non_positive_ebn0(self):
        with pytest.raises(ValueError):
            ber_bpsk(0.0)
        with pytest.raises(ValueError):
            ber_mqam(-1.0, 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ber_mqam(10.0, 0)


class TestRequiredEbn0:
    def test_inversion_round_trip(self):
        for bits in (1, 2, 3, 4, 6):
            ebn0 = required_ebn0(1e-6, bits)
            assert ber_mqam(ebn0, bits) == pytest.approx(1e-6, rel=1e-6)

    def test_bpsk_at_1e6_is_about_10_5_db(self):
        ebn0_db = 10 * math.log10(required_ebn0(1e-6, scheme="bpsk"))
        assert ebn0_db == pytest.approx(10.5, abs=0.2)

    def test_qpsk_matches_bpsk_per_bit(self):
        assert required_ebn0(1e-6, 2) == pytest.approx(
            required_ebn0(1e-6, 1), rel=0.02)

    def test_monotone_in_order_beyond_qpsk(self):
        values = [required_ebn0(1e-6, b) for b in range(2, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_stricter_ber_needs_more_energy(self):
        assert required_ebn0(1e-9, 4) > required_ebn0(1e-3, 4)

    def test_ook_needs_double_bpsk(self):
        assert required_ebn0(1e-6, scheme="ook") == pytest.approx(
            2 * required_ebn0(1e-6, scheme="bpsk"), rel=1e-6)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            required_ebn0(0.0)
        with pytest.raises(ValueError):
            required_ebn0(0.6)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            required_ebn0(1e-6, scheme="fsk")


class TestEbn0Memo:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        ber._solve_ebn0.cache_clear()
        yield
        ber._solve_ebn0.cache_clear()

    @pytest.mark.parametrize("bits", range(1, 13))
    def test_root_lies_inside_a_valid_bracket(self, bits):
        ebn0 = required_ebn0(1e-6, bits)
        assert ebn0 > 0
        assert ber_mqam(ebn0, bits) == pytest.approx(1e-6, rel=1e-9)

    def test_repeated_calls_return_the_identical_float(self):
        cold = required_ebn0(1e-6, 5)
        warm = required_ebn0(1e-6, 5)
        assert warm == cold
        ber._solve_ebn0.cache_clear()
        assert required_ebn0(1e-6, 5) == cold

    @pytest.mark.parametrize("args, message", [
        ((1e-6, 1, "fsk"), "unknown scheme"),
        ((0.6, 1, "qam"), "target BER"),
        ((1e-6, 48, "qam"), "failed to bracket"),
        # Targets the curve already meets at the bracket's lower end.
        ((0.4, 4, "qam"), "failed to bracket"),
        ((0.4999, 1, "bpsk"), "failed to bracket"),
        ((0.45, 8, "qam"), "failed to bracket"),
    ])
    def test_errors_raise_on_every_call(self, args, message):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                required_ebn0(*args)
        assert ber._solve_ebn0.cache_info().currsize == 0

    def test_counter_counts_requests_not_solves(self):
        for _ in range(3):
            required_ebn0(1e-6, 4)
        info = ber._solve_ebn0.cache_info()
        assert (info.hits, info.misses) == (2, 1)


#: The 462 inversions the solver must reproduce: QAM b = 1..12, BPSK and
#: OOK, each at 33 targets from 1e-1 down to about 2e-12.
SOLVER_CASES = [(target, bits, scheme)
                for bits, scheme in ([(b, "qam") for b in range(1, 13)]
                                     + [(1, "bpsk"), (1, "ook")])
                for target in (10.0 ** (-k / 3) for k in range(3, 36))]


class TestBrentqPort:
    """``ber._brentq`` against ``scipy.optimize.brentq`` as an oracle."""

    def test_roots_equal_scipy_on_every_case(self, monkeypatch):
        # Build every curve on scipy's erfc so that only the solver
        # differs, and solve each bracket with both solvers.
        monkeypatch.setattr(
            ber, "q_function",
            lambda x: 0.5 * special.erfc(x / math.sqrt(2.0)))
        port = ber._brentq
        pairs = []

        def both(f, a, b, **tolerances):
            root = port(f, a, b, **tolerances)
            pairs.append((root, optimize.brentq(f, a, b, **tolerances)))
            return root

        monkeypatch.setattr(ber, "_brentq", both)
        ber._solve_ebn0.cache_clear()
        try:
            for case in SOLVER_CASES:
                required_ebn0(*case)
        finally:
            ber._solve_ebn0.cache_clear()
        assert len(pairs) == len(SOLVER_CASES) == 462
        assert all(type(root) is float for root, _ in pairs)
        assert [root for root, _ in pairs] == [ref for _, ref in pairs]

    def test_same_sign_bracket_raises_value_error(self):
        def f(x):
            return x * x + 1.0

        for solve in (ber._brentq, optimize.brentq):
            with pytest.raises(ValueError, match="different signs"):
                solve(f, -1.0, 1.0, xtol=1e-9, rtol=1e-12)

    def test_non_convergence_raises_runtime_error(self):
        # A sign step at 0 halves |x| per step; 100 steps do not reach
        # the 1e-300 tolerance.
        def step(x):
            return 1.0 if x > 0 else -1.0

        for solve in (ber._brentq, optimize.brentq):
            with pytest.raises(RuntimeError,
                               match="Failed to converge after 100"):
                solve(step, -1.0, 2.0, xtol=1e-300, rtol=1e-12)


class TestShannonLimit:
    def test_low_efficiency_approaches_minus_1_59_db(self):
        assert shannon_ebn0_limit_db(0.001) == pytest.approx(-1.59, abs=0.01)

    def test_grows_with_spectral_efficiency(self):
        assert (shannon_ebn0_limit_db(1.0) < shannon_ebn0_limit_db(4.0)
                < shannon_ebn0_limit_db(8.0))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            shannon_ebn0_limit_db(0.0)
