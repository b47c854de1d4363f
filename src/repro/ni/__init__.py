"""Neural interface (NI) substrate.

Models the sensing side of the implanted SoC (paper Section 2.1/3.2):
electrode-array geometry with channel-spacing and volumetric-efficiency
metrics, the analog front end's noise-efficiency-factor power model, the ADC
digitization stage, and a `NeuralInterface` facade that turns analog
waveforms into digitized frames at the sensing throughput of Eq. 6.
"""
