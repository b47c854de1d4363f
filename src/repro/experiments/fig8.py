"""Fig. 8 reproduction: the #MACop / MACseq worked examples.

The paper's illustration of its MAC decomposition: a 4x3 by 3x4 matrix
multiplication (#MACop = 4, MACseq = 3) and a two-input-channel
convolution with kernel 4 and output size 4 (#MACop = 4, MACseq = 8).
Regenerated here from the same fMAC machinery the rest of the framework
uses, plus live layer-derived profiles showing the convention in action.
"""

from __future__ import annotations

from repro.dnn.layers import Conv1D, Dense
from repro.dnn.macs import fmac_conv_example, fmac_matmul_example
from repro.experiments.base import ExperimentResult
from repro.experiments.report import format_table
from repro.obs.recorder import set_gauge, span

COLUMNS = ["case", "mac_ops", "mac_seq", "total_macs"]


def run() -> ExperimentResult:
    """Regenerate the Fig. 8 examples and two live layer profiles."""
    with span("fig8.worked_examples"):
        matmul = fmac_matmul_example()
        conv = fmac_conv_example()
    with span("fig8.live_profiles"):
        dense_live = Dense(3, 4).mac_profile((3,))
        conv_live = Conv1D(2, 1, kernel_size=4).mac_profile((2, 7))
    rows = [
        {"case": "Fig. 8 matmul A(4x3) @ B(3x4)",
         "mac_ops": matmul.mac_ops, "mac_seq": matmul.mac_seq,
         "total_macs": matmul.total_macs},
        {"case": "Fig. 8 conv (2 in-ch, k=4, out=4)",
         "mac_ops": conv.mac_ops, "mac_seq": conv.mac_seq,
         "total_macs": conv.total_macs},
        {"case": "live Dense(3 -> 4) layer",
         "mac_ops": dense_live.mac_ops, "mac_seq": dense_live.mac_seq,
         "total_macs": dense_live.total_macs},
        {"case": "live Conv1D(2ch, k=4, len 7) layer",
         "mac_ops": conv_live.mac_ops, "mac_seq": conv_live.mac_seq,
         "total_macs": conv_live.total_macs},
    ]
    summary = {
        "matmul_matches_paper": (matmul.mac_ops, matmul.mac_seq) == (4, 3),
        "conv_matches_paper": (conv.mac_ops, conv.mac_seq) == (4, 8),
        "live_conv_consistent": (conv_live.mac_ops,
                                 conv_live.mac_seq) == (4, 8),
    }
    set_gauge("fig8.paper_match",
              float(summary["matmul_matches_paper"]
                    and summary["conv_matches_paper"]
                    and summary["live_conv_consistent"]))
    return ExperimentResult(
        name="fig8",
        title="Fig. 8: #MACop / MACseq decomposition examples",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Table of the decomposition examples."""
    return format_table(result.rows, COLUMNS)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())
