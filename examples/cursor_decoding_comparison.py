"""Decoder-family comparison on a cursor-control task.

The paper (Section 2.3) contrasts traditional linear decoders — the Kalman
and Wiener filters — with modern DNNs.  This example pits all three
families against the same synthetic cosine-tuned cursor dataset and
reports decoding correlation alongside each decoder's computational
footprint on an implant (MAC counts through the Eq. 13 lower bound).

Run:  python examples/cursor_decoding_comparison.py
"""

import numpy as np

from repro.accel.schedule import compute_power_lower_bound
from repro.accel.tech import TECH_45NM
from repro.decoders.dnn_decoder import DnnDecoder
from repro.decoders.kalman import KalmanFilterDecoder
from repro.decoders.wiener import WienerFilterDecoder
from repro.dnn.layers import Dense, ReLU, Tanh
from repro.dnn.macs import fmac_dense
from repro.dnn.network import Network
from repro.experiments.report import format_table
from repro.signals.datasets import make_cursor_dataset
from repro.units import to_uw

N_CHANNELS = 64
N_TIMESTEPS = 6000
BIN_RATE_HZ = 50.0  # one decode per 20 ms bin


def implant_power_uw(mac_profiles) -> float:
    """Eq. 13 power for running a decoder once per bin."""
    power = compute_power_lower_bound(mac_profiles, 1.0 / BIN_RATE_HZ,
                                      TECH_45NM)
    return to_uw(power) if power is not None else float("inf")


def energy_per_decode_nj(mac_profiles) -> float:
    """Energy of one decode step: total MACs times the 45 nm MAC energy."""
    total = sum(p.total_macs for p in mac_profiles)
    return total * TECH_45NM.energy_per_mac_j * 1e9


def main() -> None:
    rng = np.random.default_rng(11)
    data = make_cursor_dataset(N_CHANNELS, N_TIMESTEPS, rng, noise_rms=0.3)
    split = int(0.75 * N_TIMESTEPS)
    train = slice(None, split)
    test = slice(split, None)

    rows = []

    kalman = KalmanFilterDecoder()
    kalman.fit(data.velocity[train], data.features[train])
    # Kalman per step: ~2 state-transition + gain applications; dominated
    # by the H-projection (m x k) and gain (k x m) products.
    kalman_macs = [fmac_dense(N_CHANNELS, 2), fmac_dense(2, N_CHANNELS)]
    rows.append({
        "decoder": "Kalman filter",
        "correlation": kalman.score(data.velocity[test],
                                    data.features[test]),
        "implant_power_uw": implant_power_uw(kalman_macs),
        "energy_per_decode_nj": energy_per_decode_nj(kalman_macs),
    })

    wiener = WienerFilterDecoder(n_lags=5)
    wiener.fit(data.velocity[train], data.features[train])
    wiener_macs = [fmac_dense(5 * N_CHANNELS + 1, 2)]
    rows.append({
        "decoder": "Wiener filter (5 lags)",
        "correlation": wiener.score(data.velocity[test],
                                    data.features[test]),
        "implant_power_uw": implant_power_uw(wiener_macs),
        "energy_per_decode_nj": energy_per_decode_nj(wiener_macs),
    })

    net = Network([Dense(N_CHANNELS, 128, rng=rng), ReLU(),
                   Dense(128, 64, rng=rng), ReLU(),
                   Dense(64, 2, rng=rng), Tanh()],
                  input_shape=(N_CHANNELS,), name="cursor-dnn")
    dnn = DnnDecoder(net, epochs=30, batch_size=64, learning_rate=0.1)
    scale = np.max(np.abs(data.velocity)) * 1.1
    dnn.fit(data.features[train], data.velocity[train] / scale, rng)
    predictions = dnn.decode(data.features[test]) * scale
    truth = data.velocity[test]
    corr = np.mean([np.corrcoef(predictions[:, d], truth[:, d])[0, 1]
                    for d in range(2)])
    rows.append({
        "decoder": "DNN (64-128-64-2)",
        "correlation": float(corr),
        "implant_power_uw": implant_power_uw(net.mac_profiles()),
        "energy_per_decode_nj": energy_per_decode_nj(net.mac_profiles()),
    })

    print(f"cursor decoding, {N_CHANNELS} channels, "
          f"{N_TIMESTEPS - split} held-out bins:")
    print(format_table(rows))
    print("\nAt a 50 Hz decode rate every decoder fits in one MAC unit "
          "(the Eq. 13 power floor), but the per-decode energy shows the "
          "paper's trade-off in miniature: the DNN spends an order of "
          "magnitude more arithmetic than the linear filters.")


if __name__ == "__main__":
    main()
