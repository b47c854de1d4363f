"""Data-reduction strategy shoot-out: dropout vs compression vs events.

Section 6.2 prefers spike-sorting-style reduction over "standard
compression techniques"; Section 7 points at event/pattern detection.
This example quantifies all three on the same synthetic recording:

* lossless delta+Rice compression of the full stream,
* channel dropout (keep the n' most active channels),
* event-driven spike streaming,

reporting the achieved data-rate reduction and what each does to the
Eq. 9 communication power of a BISC-class implant.

Run:  python examples/data_reduction_study.py
"""

import numpy as np

from repro.compress.pipeline import NeuralCompressor
from repro.core.event_stream import EventStreamConfig, evaluate_event_stream
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.decoders.spikesort import select_active_channels
from repro.experiments.report import format_table
from repro.ni.adc import quantize
from repro.signals.lfp import synthesize_ecog
from repro.signals.spikes import (
    biphasic_spike_template,
    poisson_spike_train,
    render_spike_waveform,
)
from repro.units import to_mbps, to_mw

N_CHANNELS = 64
ACTIVE_FRACTION = 0.25
DURATION_S = 1.0
FS = 8e3


def make_recording(rng: np.random.Generator) -> np.ndarray:
    """ECoG background with spikes on a quarter of the channels."""
    data = 0.15 * synthesize_ecog(N_CHANNELS, DURATION_S, FS, rng,
                                  noise_rms=0.05)
    template = biphasic_spike_template(FS, amplitude=0.5)
    n_active = int(ACTIVE_FRACTION * N_CHANNELS)
    n_samples = data.shape[1]
    for channel in range(n_active):
        spikes = np.flatnonzero(poisson_spike_train(
            20.0, DURATION_S, FS, rng, refractory_s=3e-3))
        data[channel] += render_spike_waveform(spikes, template, n_samples)
    return data


def main() -> None:
    rng = np.random.default_rng(21)
    soc = scale_to_standard(soc_by_number(1))
    analog = make_recording(rng)
    codes = quantize(analog / (4 * np.abs(analog).max() / 3), bits=10)
    raw_rate = N_CHANNELS * 10 * FS

    rows = []

    # 1. Lossless compression of the full stream.
    codec = NeuralCompressor(sample_bits=10)
    result = codec.analyze(codes)
    rows.append({
        "strategy": "delta+Rice compression",
        "data_reduction": result.ratio,
        "lossy": False,
        "extra_compute_mw": to_mw(codec.codec_power_w(FS, N_CHANNELS)),
    })

    # 2. Channel dropout: transmit only the active quarter.
    kept = select_active_channels(analog, max(1, N_CHANNELS // 4))
    n_active_true = int(ACTIVE_FRACTION * N_CHANNELS)
    hit = len(set(kept) & set(range(n_active_true))) / n_active_true
    rows.append({
        "strategy": f"channel dropout (keep {len(kept)}, "
                    f"{hit:.0%} of truly active found)",
        "data_reduction": N_CHANNELS / len(kept),
        "lossy": True,
        "extra_compute_mw": to_mw(codec.codec_power_w(FS, N_CHANNELS)),
    })

    # 3. Event-driven spike streaming.
    config = EventStreamConfig(spike_rate_hz=20.0 * ACTIVE_FRACTION)
    point = evaluate_event_stream(soc, N_CHANNELS, config)
    rows.append({
        "strategy": "event stream (spikes only)",
        "data_reduction": point.data_reduction,
        "lossy": True,
        "extra_compute_mw": to_mw(point.detector_power_w),
    })

    print(f"raw stream: {to_mbps(raw_rate):.2f} Mbps "
          f"({N_CHANNELS} ch x 10 b x {FS / 1e3:.0f} kHz)\n")
    print(format_table(rows))

    # Project each reduction onto a 1024-channel implant's comm power.
    print(f"\ncommunication power on {soc.name} at 1024 channels "
          f"(implied Eb {soc.implied_energy_per_bit_j * 1e12:.0f} pJ/b):")
    base = soc.sensing_throughput_bps() * soc.implied_energy_per_bit_j
    print(f"  raw:          {to_mw(base):6.2f} mW")
    for row in rows:
        reduced = base / row["data_reduction"]
        print(f"  {row['strategy'][:28]:28s}: {to_mw(reduced):6.2f} mW "
              f"(+{row['extra_compute_mw']:.3f} mW compute)")


if __name__ == "__main__":
    main()
