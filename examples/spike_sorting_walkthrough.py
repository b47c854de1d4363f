"""Spike-sorting walkthrough: from raw waveform to per-unit event stream.

The substrate behind the paper's channel-dropout optimization, end to
end: band-pass into the spike band, robust threshold detection, trough
alignment, PCA + k-means unit separation, per-unit firing rates, the
same sorting as a small classification DNN (Section 5.3's probability
head), and the event-word data rate this channel would contribute to
an event-driven implant (Section 7's pattern-detection dataflow).

Run:  python examples/spike_sorting_walkthrough.py
"""

import numpy as np

from repro.core import EventStreamConfig
from repro.decoders import SpikeDetector, sort_spikes
from repro.dnn.layers import Dense, Softmax
from repro.dnn.network import Network
from repro.dnn.train import cross_entropy_loss, sgd_step
from repro.experiments.report import format_table
from repro.signals import (
    biphasic_spike_template,
    poisson_spike_train,
    render_spike_waveform,
    spike_band,
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

    # 2. Sort into units.
    result = sort_spikes(filtered, detected, n_units=len(UNITS), rng=rng)
    rows = []
    for unit in range(result.n_units):
        count = int(np.sum(result.labels == unit))
        rows.append({
            "unit": unit,
            "spikes": count,
            "rate_hz": count / DURATION_S,
            "template_peak": float(
                np.abs(result.templates[unit]).max()),
        })
    print(format_table(rows))
    for name, spikes in truth.items():
        print(f"  ground truth {name}: {len(spikes)} spikes "
              f"({len(spikes) / DURATION_S:.1f} Hz)")

    # 3. The sorter as a classification DNN: a Dense + Softmax head
    #    maps each spike's PCA scores to one probability per unit,
    #    trained with cross-entropy on the k-means labels.
    n_features = result.features.shape[1]
    classifier = Network([Dense(n_features, result.n_units, rng=rng),
                          Softmax()], input_shape=(n_features,),
                         name="unit classifier")
    for _ in range(200):
        classifier.zero_gradients()
        probabilities = classifier.forward(result.features)
        loss, grad = cross_entropy_loss(probabilities, result.labels)
        classifier.backward(grad)
        sgd_step(classifier, learning_rate=0.5)
    predicted = np.argmax(classifier.forward(result.features), axis=1)
    print(f"\n{classifier.name} ({classifier.total_macs} MACs/spike): "
          f"cross-entropy {loss:.2g}, agrees with the sorter on "
          f"{np.mean(predicted == result.labels):.0%} of spikes")

    # 4. What this channel costs an event-driven implant.
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
