"""Spike walkthrough: from raw waveform to a measured event rate.

The substrate behind the paper's channel-dropout optimization, end to
end: band-pass into the spike band, robust threshold detection, and the
event-word data rate this channel would contribute to an event-driven
implant (Section 7's pattern-detection dataflow).

Run:  python examples/spike_sorting_walkthrough.py
"""

import numpy as np

from repro.core.event_stream import EventStreamConfig
from repro.decoders.spikesort import SpikeDetector
from repro.signals.filters import spike_band
from repro.signals.spikes import (
    biphasic_spike_template,
    poisson_spike_train,
    render_spike_waveform,
)

FS = 30e3
DURATION_S = 6.0

#: Ground-truth units on this channel: (name, depolarization, amplitude,
#: rate).
UNITS = (
    ("unit A (fast, large)", 1.5e-4, 9.0, 9.0),
    ("unit B (slow, small)", 4.0e-4, 5.0, 7.0),
)


def make_channel(rng: np.random.Generator):
    n = int(DURATION_S * FS)
    signal = 0.6 * rng.standard_normal(n)
    truth = {}
    for name, depol, amplitude, rate in UNITS:
        template = biphasic_spike_template(FS, depolarization_s=depol,
                                           amplitude=amplitude)
        spikes = np.flatnonzero(poisson_spike_train(
            rate, DURATION_S, FS, rng, refractory_s=5e-3))
        signal += render_spike_waveform(spikes, template, n)
        truth[name] = spikes
    return signal, truth


def main() -> None:
    rng = np.random.default_rng(31)
    raw, truth = make_channel(rng)

    # 1. Condition and detect.
    filtered = spike_band(raw, FS)
    detector = SpikeDetector(threshold_sigmas=4.5, refractory_samples=60)
    detected = detector.detect(filtered)
    total_true = sum(len(v) for v in truth.values())
    print(f"detected {len(detected)} events "
          f"({total_true} ground-truth spikes over {DURATION_S:.0f} s)")

    # 2. What this channel costs an event-driven implant.
    config = EventStreamConfig()
    measured_rate = len(detected) / DURATION_S
    event_bps = measured_rate * config.bits_per_event
    raw_bps = 10 * FS
    print(f"\nevent stream: {measured_rate:.1f} events/s x "
          f"{config.bits_per_event} b = {event_bps:.0f} b/s per channel "
          f"vs {raw_bps:.0f} b/s raw ({raw_bps / event_bps:.0f}x "
          f"reduction)")


if __name__ == "__main__":
    main()
