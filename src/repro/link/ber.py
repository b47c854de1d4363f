"""Bit-error-rate theory: closed-form BER curves and Eb/N0 inversion.

This is the paper's "QAM equation" (Section 5.2): for each modulation order
we can compute the BER at a given Eb/N0, and — by numerical inversion — the
Eb/N0 required to hit a target BER (the paper uses BER = 1e-6).  Standard
references: Goldsmith, *Wireless Communications*; Rappaport (both cited by
the paper).

Formulas (coherent detection over AWGN, Gray mapping):

* BPSK:        BER = Q(sqrt(2 Eb/N0))
* OOK (coherent, on-off): BER = Q(sqrt(Eb/N0))
* M-QAM (square or cross, b = log2 M bits/symbol, approximate):

      BER ~= (4 / b) * (1 - 1/sqrt(M)) * Q( sqrt(3 b / (M - 1) * Eb/N0) )

  The same expression is the standard approximation for cross constellations
  at odd b; it is what link-budget practice uses.
"""

from __future__ import annotations

import math
from functools import lru_cache


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_bpsk(ebn0_linear: float) -> float:
    """BER of coherent BPSK over AWGN."""
    _check_ebn0(ebn0_linear)
    return q_function(math.sqrt(2.0 * ebn0_linear))


def ber_ook(ebn0_linear: float) -> float:
    """BER of coherent on-off keying (unipolar 2-ASK) over AWGN.

    OOK pays 3 dB versus antipodal BPSK because only half the symbols carry
    energy: BER = Q(sqrt(Eb/N0)).
    """
    _check_ebn0(ebn0_linear)
    return q_function(math.sqrt(ebn0_linear))


def ber_mqam(ebn0_linear: float, bits_per_symbol: int) -> float:
    """Approximate BER of Gray-mapped M-QAM over AWGN.

    Args:
        ebn0_linear: Eb/N0 as a linear power ratio.
        bits_per_symbol: b = log2(M); b = 1 degenerates to BPSK.

    Raises:
        ValueError: for non-positive Eb/N0 or bits_per_symbol < 1.
    """
    _check_ebn0(ebn0_linear)
    if bits_per_symbol < 1:
        raise ValueError("bits_per_symbol must be >= 1")
    if bits_per_symbol == 1:
        return ber_bpsk(ebn0_linear)
    b = bits_per_symbol
    m = 2 ** b
    coeff = (4.0 / b) * (1.0 - 1.0 / math.sqrt(m))
    arg = math.sqrt(3.0 * b / (m - 1.0) * ebn0_linear)
    return min(0.5, coeff * q_function(arg))


def required_ebn0(target_ber: float,
                  bits_per_symbol: int = 1,
                  scheme: str = "qam") -> float:
    """Invert a BER curve: linear Eb/N0 needed to achieve ``target_ber``.

    Args:
        target_ber: target bit error rate in (0, 0.5).
        bits_per_symbol: modulation order exponent (QAM only).
        scheme: one of "qam", "bpsk", "ook".

    Returns:
        Required Eb/N0 as a linear ratio.

    Raises:
        ValueError: for out-of-range targets or unknown schemes.
    """
    if not 0.0 < target_ber < 0.5:
        raise ValueError("target BER must lie in (0, 0.5)")
    if scheme not in ("qam", "bpsk", "ook"):
        raise ValueError(f"unknown scheme {scheme!r}")
    return _solve_ebn0(target_ber, bits_per_symbol, scheme)


@lru_cache(maxsize=256)
def _solve_ebn0(target_ber: float, bits_per_symbol: int,
                scheme: str) -> float:
    """Memoized root of ``curve(x) = target_ber`` for a validated request.

    A failed bracket raises and is therefore never cached.
    """
    if scheme == "qam":
        curve = lambda x: ber_mqam(x, bits_per_symbol)  # noqa: E731
    elif scheme == "bpsk":
        curve = ber_bpsk
    else:
        curve = ber_ook

    lo, hi = 1e-6, 1e-6
    # A target the curve already meets at `lo` has no root above it.
    if curve(lo) <= target_ber:
        raise ValueError("failed to bracket required Eb/N0")
    # Grow the bracket until the BER at `hi` is below target.
    while curve(hi) > target_ber:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("failed to bracket required Eb/N0")
    return _brentq(lambda x: curve(x) - target_ber, lo, hi, xtol=1e-9,
                   rtol=1e-12)


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method.

    A statement-by-statement port of scipy's ``brentq.c`` (the solver
    behind ``scipy.optimize.brentq``), so it returns the same float for
    the same ``f``, bracket and tolerances.

    Raises:
        ValueError: if ``f(a)`` and ``f(b)`` have the same sign.
        RuntimeError: if 100 iterations (scipy's default) do not
            converge.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Failed to converge after 100 iterations, value "
                       f"is {xcur}")


def _check_ebn0(ebn0_linear: float) -> None:
    if ebn0_linear <= 0:
        raise ValueError("Eb/N0 must be positive (linear ratio)")
