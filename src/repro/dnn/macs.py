"""MAC accounting: the (MACseq, #MACop) decomposition of Eq. 10 and Fig. 8.

The paper decomposes a DNN layer's arithmetic into independent
multiply-accumulate *operations* (``#MACop``), each a *sequence* of
``MACseq`` accumulate steps.  All MACop in one layer are independent and
share the same MACseq, which is what lets the accelerator time-multiplex
them over ``MAChw`` physical units (Eq. 11).

Conventions (matching Fig. 8):

* matrix-vector / dense layer  (W: out x in):
  ``#MACop = out`` independent dot products, ``MACseq = in``.
* 1-D convolution (in_ch, out_ch, kernel K, output length L):
  ``#MACop = out_ch * L`` independent output values,
  ``MACseq = K * in_ch`` accumulate steps per output.

Fig. 8's two worked examples are exposed verbatim as
:func:`fmac_matmul_example` and :func:`fmac_conv_example` so the tests can
pin the paper's numbers (4/3 for the matmul, 4/8 for the conv).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMacs:
    """The MAC profile of a single DNN layer.

    Attributes:
        mac_seq: accumulation steps per MACop (``MACseq`` in Eq. 10).
        mac_ops: number of independent MACop (``#MACop`` in Eq. 10).
    """

    mac_seq: int
    mac_ops: int

    def __post_init__(self) -> None:
        if self.mac_seq < 0 or self.mac_ops < 0:
            raise ValueError("MAC counts must be non-negative")

    @property
    def total_macs(self) -> int:
        """Total accumulate steps in the layer (mac_seq * mac_ops)."""
        return self.mac_seq * self.mac_ops

    @property
    def is_compute(self) -> bool:
        """True when the layer performs MAC work at all."""
        return self.total_macs > 0


#: Profile of a layer without MAC work (activations, reshapes, pooling).
NO_MACS = LayerMacs(mac_seq=0, mac_ops=0)


def fmac_dense(in_features: int, out_features: int) -> LayerMacs:
    """MAC profile of a dense (matrix-vector) layer."""
    if in_features <= 0 or out_features <= 0:
        _check_positive(in_features=in_features, out_features=out_features)
    return LayerMacs(in_features, out_features)


def fmac_conv1d(in_channels: int, out_channels: int, kernel_size: int,
                output_length: int) -> LayerMacs:
    """MAC profile of a 1-D convolution layer."""
    if min(in_channels, out_channels, kernel_size, output_length) <= 0:
        _check_positive(in_channels=in_channels, out_channels=out_channels,
                        kernel_size=kernel_size, output_length=output_length)
    return LayerMacs(kernel_size * in_channels, out_channels * output_length)


def fmac_matmul_example() -> LayerMacs:
    """Fig. 8, top: A(4x3) @ B(3x4) => #MACop = 4, MACseq = rows_B = 3.

    (The paper treats each row of A as one MACop streaming across B's
    columns; the accumulate depth per output element is rows_B.)
    """
    rows_a, rows_b = 4, 3
    return LayerMacs(mac_seq=rows_b, mac_ops=rows_a)


def fmac_conv_example() -> LayerMacs:
    """Fig. 8, bottom: conv with 2 input channels, 1 output channel,
    kernel size 4, output size 4 => #MACop = 4, MACseq = 8."""
    in_channels, out_channels, kernel, out_len = 2, 1, 4, 4
    return LayerMacs(mac_seq=kernel * in_channels,
                     mac_ops=out_channels * out_len)


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
