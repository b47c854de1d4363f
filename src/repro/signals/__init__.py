"""Synthetic neural data substrate.

The MINDFUL analysis itself depends only on channel counts, sampling rates,
and bit widths — but the substrates it reasons about (spike sorting, DNN
decoders, packetized wireless streaming) operate on actual waveforms.  This
package synthesizes those waveforms: Poisson spiking units with extracellular
templates, ECoG/LFP-like field potentials (1/f background plus band-limited
oscillations), and parametric decoding datasets that stand in for the in-vivo
recordings the paper's workloads were trained on (see DESIGN.md,
substitution 4).
"""
