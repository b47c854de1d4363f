"""Neural interface (NI) substrate.

Models the sensing side of the implanted SoC (paper Section 2.1/3.2):
electrode-array geometry with channel-spacing and volumetric-efficiency
metrics, the analog front end's noise-efficiency-factor power model, the ADC
digitization stage, and a `NeuralInterface` facade that turns analog
waveforms into digitized frames at the sensing throughput of Eq. 6.
"""

from repro.ni.geometry import (
    ArrayGeometry,
    GridArray,
    channel_spacing,
    volumetric_efficiency,
)
from repro.ni.afe import AnalogFrontEnd, nef_input_current, afe_channel_power
from repro.ni.adc import AdcModel, quantize
from repro.ni.interface import NeuralInterface, sensing_throughput

__all__ = [
    "ArrayGeometry",
    "GridArray",
    "channel_spacing",
    "volumetric_efficiency",
    "AnalogFrontEnd",
    "nef_input_current",
    "afe_channel_power",
    "AdcModel",
    "quantize",
    "NeuralInterface",
    "sensing_throughput",
]
