"""Speech-synthesis decoding pipeline (the paper's motivating workload).

Synthesizes an ECoG-like dataset with 40-bin spectral targets, trains a
small instance of the MINDFUL MLP workload on it, then asks the system
questions the paper asks of the full-scale model: what does the trained
network cost on an implant, and does partitioning it across the
implant/wearable boundary help?

Run:  python examples/speech_decoder_pipeline.py
"""

import numpy as np

from repro.accel.schedule import best_schedule
from repro.accel.tech import TECH_45NM
from repro.core.comp_centric import Workload, evaluate_comp_centric
from repro.core.partitioning import evaluate_partitioned
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.decoders.dnn_decoder import DnnDecoder
from repro.dnn.models import build_speech_mlp
from repro.signals.datasets import make_speech_dataset
from repro.units import to_mw

#: Small-scale training configuration (the analysis itself runs at any n).
N_CHANNELS = 64
N_FRAMES = 2000
WINDOW = 2


def main() -> None:
    rng = np.random.default_rng(7)

    # 1. Synthetic ECoG -> spectral-target dataset and a trained decoder.
    data = make_speech_dataset(N_CHANNELS, N_FRAMES, rng, window=WINDOW)
    net = build_speech_mlp(N_CHANNELS, rng=rng, window=WINDOW)
    decoder = DnnDecoder(net, epochs=15, batch_size=64, learning_rate=0.1)
    split = int(0.8 * N_FRAMES)
    history = decoder.fit(data.features[:split], data.targets[:split], rng)
    score = decoder.score(data.features[split:], data.targets[split:])
    print(f"Trained {net.name}: loss {history[0]:.4f} -> {history[-1]:.4f}, "
          f"held-out correlation {score:.2f}")
    print(f"  model: {net.n_compute_layers} compute layers, "
          f"{net.n_parameters:,} parameters, {net.total_macs:,} MACs/frame")

    # 2. What does this network cost on an implant (Eq. 11-13)?
    soc = scale_to_standard(soc_by_number(1))
    schedule = best_schedule(net.mac_profiles(), 1.0 / soc.sampling_hz,
                             TECH_45NM)
    print(f"  on-implant schedule: {schedule.mac_units} MAC units "
          f"({'pipelined' if schedule.pipelined else 'shared pool'}), "
          f"P_comp >= {to_mw(schedule.power_w(TECH_45NM)):.2f} mW")

    # 3. Scale the same workload to the paper's regime and compare the
    #    full vs partitioned designs at 2048 channels.
    full = evaluate_comp_centric(soc, Workload.MLP, 2048)
    part = evaluate_partitioned(soc, Workload.MLP, 2048)
    print(f"\n{soc.name} @2048 channels, full MLP on implant:")
    print(f"  P_comp {to_mw(full.comp_power_w):.1f} mW + "
          f"P_comm {to_mw(full.comm_power_w):.2f} mW -> "
          f"P_soc/P_budget = {full.power_ratio:.2f}")
    print(f"partitioned after compute layer {part.split_layer} "
          f"(streams {part.transmitted_values} values/sample):")
    print(f"  P_comp {to_mw(part.comp_power_w):.1f} mW + "
          f"P_comm {to_mw(part.comm_power_w):.2f} mW -> "
          f"P_soc/P_budget = {part.power_ratio:.2f}")
    saved = full.total_power_w - part.total_power_w
    print(f"partitioning saves {to_mw(saved):.1f} mW on the implant")


if __name__ == "__main__":
    main()
