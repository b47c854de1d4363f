"""Monte-Carlo AWGN channel used to validate the closed-form BER curves.

The analytical results in :mod:`repro.link.ber` drive every wireless power
number in the MINDFUL evaluation; this simulator is the independent check
that those formulas are implemented correctly (tests compare measured and
theoretical BER at moderate Eb/N0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.link.modulation import Modulation
from repro.seeds import current_seed, derive_stream_seed, seeded_rng


@dataclass
class AwgnChannel:
    """Complex additive white Gaussian noise channel at a fixed Eb/N0.

    Symbols entering the channel are assumed normalized to unit average
    energy per bit (the convention of :mod:`repro.link.modulation`), so the
    per-complex-dimension noise variance is N0/2 = 1 / (2 * Eb/N0).

    Attributes:
        ebn0_linear: energy-per-bit to noise-density ratio (linear).
        rng: NumPy random generator.
    """

    ebn0_linear: float
    rng: np.random.Generator

    def __post_init__(self) -> None:
        if self.ebn0_linear <= 0:
            raise ValueError("Eb/N0 must be positive")

    def transmit(self, symbols: np.ndarray) -> np.ndarray:
        """Add circularly symmetric Gaussian noise to unit-Eb symbols."""
        n0 = 1.0 / self.ebn0_linear
        sigma = np.sqrt(n0 / 2.0)
        noise = sigma * (self.rng.standard_normal(symbols.shape)
                         + 1j * self.rng.standard_normal(symbols.shape))
        return symbols + noise


def measure_ber_sweep(scheme: Modulation,
                      ebn0_db: np.ndarray,
                      n_bits: int,
                      rng: np.random.Generator | None = None,
                      chunk_bits: int = 1 << 20) -> np.ndarray:
    """Empirical BER over a whole Eb/N0 grid in one batched pass.

    Each chunk draws one set of random bits, one modulation pass, and one
    unit-variance noise realization, then evaluates every grid point by
    scaling that noise to the point's N0 — a G-point sweep costs one
    modulation per chunk plus G cheap scale-and-demodulate passes,
    instead of G full Monte-Carlo runs.  Sharing data and noise across
    points is the standard common-random-numbers setup for comparing
    operating points; it intentionally differs from independent
    one-point sweeps.  A one-point sweep is the plain Monte-Carlo
    estimate at that Eb/N0.

    Args:
        scheme: modulation under test.
        ebn0_db: Eb/N0 grid in dB (any array-like; flattened).
        n_bits: bits pushed through per grid point (rounded down to a
            whole number of symbols).
        rng: random generator; defaults to the process run seed
            (:func:`repro.seeds.seeded_rng`).
        chunk_bits: upper bound on bits in flight at once — caps peak
            memory regardless of ``n_bits``.

    Returns:
        Array of observed bit-error fractions, one per grid point.

    Raises:
        ValueError: if fewer than one symbol's worth of bits is requested
            or the grid is empty.
    """
    if rng is None:
        rng = seeded_rng()
    grid = np.asarray(ebn0_db, dtype=np.float64).ravel()
    if grid.size == 0:
        raise ValueError("need at least one Eb/N0 point")
    bits_per_symbol = scheme.bits_per_symbol
    n_bits = (n_bits // bits_per_symbol) * bits_per_symbol
    if n_bits <= 0:
        raise ValueError("need at least one symbol's worth of bits")
    chunk_bits = max(bits_per_symbol,
                     (chunk_bits // bits_per_symbol) * bits_per_symbol)
    sigmas = np.sqrt(1.0 / (10.0 ** (grid / 10.0)) / 2.0)

    errors = np.zeros(grid.size, dtype=np.int64)
    done = 0
    while done < n_bits:
        take = min(chunk_bits, n_bits - done)
        bits = rng.integers(0, 2, size=take).astype(np.int8)
        symbols = scheme.modulate(bits)
        # Component-wise complex assembly: the same two normal
        # draws, in the same order, as ``re + 1j * im`` — but
        # written straight into place instead of through a complex
        # multiply and add (the noise array is the chunk's single
        # biggest temporary).
        unit_noise = np.empty(symbols.shape, dtype=np.complex128)
        unit_noise.real = rng.standard_normal(symbols.shape)
        unit_noise.imag = rng.standard_normal(symbols.shape)
        noisy = np.empty(symbols.shape, dtype=np.complex128)
        for point, sigma in enumerate(sigmas.tolist()):
            # sigma*noise + symbols into the reused scratch buffer:
            # bit-identical to ``symbols + sigma * unit_noise``
            # without two fresh chunk-sized temporaries per point.
            np.multiply(unit_noise, sigma, out=noisy)
            noisy += symbols
            decoded = scheme.demodulate(noisy)
            errors[point] += int(np.count_nonzero(decoded != bits))
        done += take
    return errors / n_bits


def measure_ber_grid(schemes,
                     ebn0_db: np.ndarray,
                     n_bits: int,
                     seed: int | None = None,
                     chunk_bits: int = 1 << 20) -> np.ndarray:
    """Empirical BER over a whole (scheme x Eb/N0) design grid.

    The whole-grid entry point of the link-budget drivers: one call
    evaluates every modulation scheme over every operating point, each
    scheme in a single batched :func:`measure_ber_sweep` pass.  Every
    scheme draws from its own independent substream derived from the
    base seed and the scheme name
    (:func:`repro.seeds.derive_stream_seed`), so results are
    schedule-independent: evaluating schemes in any order — or one at a
    time — yields bit-identical numbers.

    Args:
        schemes: iterable of :class:`~repro.link.modulation.Modulation`
            instances (each contributes one output row).
        ebn0_db: Eb/N0 grid in dB (any array-like; flattened).
        n_bits: bits pushed through per grid point per scheme.
        seed: base seed for the per-scheme substreams; defaults to the
            process run seed (:func:`repro.seeds.current_seed`,
            i.e. the CLI's ``--seed``).
        chunk_bits: per-sweep memory bound, as in
            :func:`measure_ber_sweep`.

    Returns:
        Array of shape ``(len(schemes), grid size)`` of observed
        bit-error fractions.

    Raises:
        ValueError: if no schemes are given (grid/bit validation happens
            per sweep).
    """
    schemes = list(schemes)
    if not schemes:
        raise ValueError("need at least one modulation scheme")
    grid = np.asarray(ebn0_db, dtype=np.float64).ravel()
    base_seed = seed if seed is not None else current_seed()
    measured = np.empty((len(schemes), grid.size), dtype=np.float64)
    for index, scheme in enumerate(schemes):
        rng = seeded_rng(derive_stream_seed(base_seed, "mc", scheme.name))
        measured[index] = measure_ber_sweep(scheme, grid, n_bits, rng=rng,
                                            chunk_bits=chunk_bits)
    return measured
